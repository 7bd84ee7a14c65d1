"""Accuracy metrics for hardware-metric predictors.

scipy is imported inside the rank-correlation functions: it costs about a
second of import time, and ``repro search`` never ranks predictions.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rmse", "mae", "kendall_tau", "spearman_rho", "max_error"]


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """Root-mean-square error (the paper's headline predictor metric)."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def mae(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean absolute error."""
    return float(np.mean(np.abs(np.asarray(pred) - np.asarray(truth))))


def max_error(pred: np.ndarray, truth: np.ndarray) -> float:
    """Worst-case absolute error."""
    return float(np.max(np.abs(np.asarray(pred) - np.asarray(truth))))


def kendall_tau(pred: np.ndarray, truth: np.ndarray) -> float:
    """Kendall rank correlation — what matters for search is ranking."""
    from scipy import stats

    tau = stats.kendalltau(pred, truth).statistic
    return float(tau)


def spearman_rho(pred: np.ndarray, truth: np.ndarray) -> float:
    """Spearman rank correlation."""
    from scipy import stats

    rho = stats.spearmanr(pred, truth).statistic
    return float(rho)
