"""Closed-form α/λ step of surrogate-mode search (Eq. 10–12).

In surrogate mode the Eq. (10) objective is a small, fixed graph::

    P̄      = STE(softmax((log softmax(α) + G) / τ))      (sampled path)
    P̄_det  = STE(softmax(log softmax(α) / τ))            (argmax path)
    L      = L_valid(P̄) + λ·e + ½μ·e²,   e = METRIC(P̄_det)/T − 1

with ``L_valid`` the accuracy oracle's differentiable loss and ``METRIC``
the hardware predictor.  Recording it on the autodiff tape costs ~63 op
wrappers and one ``Tensor.backward`` per step, all on an ``(L, K)`` matrix,
so the step is bound by Python dispatch.  :class:`SurrogateStep` computes
the same forward and vector-Jacobian product directly on numpy arrays,
composing the closed forms that live next to the tape code they mirror:

* :meth:`GumbelSampler.gates_vjp` — the Gumbel → STE chain, run twice;
* :meth:`AccuracyOracle.differentiable_loss_vjp` — ``L_valid``;
* ``predictor.forward_vjp`` (:class:`~repro.predictor.mlp.MLPPredictor`,
  :class:`~repro.predictor.analytic.AnalyticCostPredictor`) — ``METRIC``;
* the :class:`ConstrainedObjective` penalty, below.

Every operation repeats the tape's operands in the tape's order — the
forward of each op, then its backward closure from :mod:`repro.nn.ops` —
so losses and gradients are bit-identical to ``loss.backward()``.  The
tests pin this against the tape (``tests/core/test_surrogate_step.py``)
and against a tape-recorded golden search
(``tests/core/test_surrogate_golden.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..proxy.accuracy_model import AccuracyOracle
from .gumbel import GumbelSampler
from .objective import ConstrainedObjective

__all__ = ["SurrogateStep"]


class SurrogateStep:
    """One fused forward + VJP of the surrogate-mode Eq. (10) objective.

    Parameters
    ----------
    oracle:
        Accuracy oracle providing ``L_valid``.
    objective:
        The constrained objective (predictor, target ``T``, weight ``μ``).
    dtype:
        Dtype of α and λ; constants are 0-d arrays of this dtype, as the
        tape's ``Tensor`` wrapping makes them (a float64 0-d array would
        silently upcast float32 arithmetic).
    shape:
        Shape ``(L, K)`` of α.
    """

    def __init__(self, oracle: AccuracyOracle, objective: ConstrainedObjective,
                 dtype, shape: Tuple[int, int]) -> None:
        self.oracle = oracle
        self.predictor = objective.predictor
        self.dtype = dtype = np.dtype(dtype)
        self._inv_target = np.asarray(1.0 / objective.target, dtype=dtype)
        # the constant 1.0 of ``excess``, and backward()'s seed for the loss
        self._one = np.asarray(1.0, dtype=dtype)
        self._half_mu = (np.asarray(0.5 * objective.mu, dtype=dtype)
                         if objective.mu > 0 else None)
        # the deterministic chain adds zero noise, exactly as the tape does
        self._zero_noise = np.zeros(shape, dtype=dtype)

    def __call__(self, alpha: np.ndarray, noise: np.ndarray, inv_tau: float,
                 lam: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
        """Return ``(valid_loss, ∂L/∂α, ∂L/∂λ)`` for one step.

        ``noise`` is the step's Gumbel draw (any float dtype, cast like the
        tape's ``Tensor(noise)``), ``inv_tau`` is ``1/τ`` and ``lam`` is the
        ``(1,)`` multiplier.  The gradients are fresh arrays shaped like
        ``alpha`` and ``lam``, ready to assign to their ``.grad``.
        """
        dtype = self.dtype
        inv_tau = np.asarray(inv_tau, dtype=dtype)
        hard, sampled_back = GumbelSampler.gates_vjp(
            alpha, np.asarray(noise, dtype=dtype), inv_tau)
        valid_loss, valid_back = self.oracle.differentiable_loss_vjp(hard)
        det_hard, det_back = GumbelSampler.gates_vjp(alpha, self._zero_noise,
                                                     inv_tau)
        metric, metric_back = self.predictor.forward_vjp(
            det_hard.reshape((1, det_hard.size)))

        # ConstrainedObjective.loss forward, as far as the gradients need it
        excess = metric * self._inv_target - self._one
        lam_scalar = lam.reshape(())

        # backward from loss = valid_loss + penalty, seeded with ones
        g_penalty = self._one
        g_excess = g_penalty * lam_scalar
        if self._half_mu is not None:
            g_square = g_penalty * self._half_mu
            # tape order: λ·e's contribution, then both e·e operands
            g_excess = g_excess + g_square * excess + g_square * excess
        g_flat = metric_back(g_excess * self._inv_target)
        g_alpha = (sampled_back(valid_back(self._one))
                   + det_back(g_flat.reshape(alpha.shape)))
        g_lam = np.array((g_penalty * excess).reshape((1,)), dtype=lam.dtype)
        return float(valid_loss), g_alpha, g_lam
