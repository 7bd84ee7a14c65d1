"""Exact analytic cost predictors (FLOPs / parameters).

Unlike latency and energy — which need measurement campaigns because they
emerge from device behaviour — multiply-accumulate and parameter counts are
*exactly additive* over the one-hot encoding: ``metric(ᾱ) = Σ ᾱ·C + fixed``
with a per-(layer, operator) cost table C.  :class:`AnalyticCostPredictor`
exposes that closed form through the same interface as
:class:`repro.predictor.mlp.MLPPredictor` (including the differentiable
tensor path), so the LightNAS engine can search under a FLOPs or parameter
budget with zero campaign cost — e.g. the paper's mobile setting
("multi-adds strictly under 600M") becomes a searchable constraint instead
of a post-hoc check.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .. import nn
from ..hardware import flops
from ..search_space.space import Architecture, SearchSpace

__all__ = ["AnalyticCostPredictor"]

Metric = Literal["macs_m", "flops_m", "params_m"]


class AnalyticCostPredictor:
    """Closed-form additive predictor for compute/size metrics.

    Parameters
    ----------
    space:
        Search space fixing the cost table geometry.
    metric:
        ``"macs_m"`` (multi-adds, millions), ``"flops_m"`` (2×MACs) or
        ``"params_m"`` (parameters, millions).

    The object is duck-type compatible with a *fitted*
    :class:`~repro.predictor.mlp.MLPPredictor`: it provides ``fitted``,
    ``predict``, ``predict_tensor`` and ``predict_arch``.
    """

    #: always ready — there is nothing to fit
    fitted = True

    def __init__(self, space: SearchSpace, metric: Metric = "macs_m") -> None:
        if metric not in ("macs_m", "flops_m", "params_m"):
            raise ValueError(f"unknown analytic metric {metric!r}")
        self.space = space
        self.metric = metric
        self.table = np.zeros((space.num_layers, space.num_operators))
        for l, geom in enumerate(space.layer_geometries()):
            for k, spec in enumerate(space.operators):
                cost = flops.op_cost(spec, geom)
                self.table[l, k] = self._pick(cost)
        self.fixed = self._pick(flops.fixed_cost(space.macro))

    def _pick(self, cost: flops.OpCost) -> float:
        if self.metric == "macs_m":
            return cost.macs / 1e6
        if self.metric == "flops_m":
            return cost.flops / 1e6
        return cost.params / 1e6

    # ------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Batch prediction over flattened one-hot encodings ``(N, L·K)``."""
        feats = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return feats @ self.table.reshape(-1) + self.fixed

    def predict_tensor(self, features: nn.Tensor) -> nn.Tensor:
        """Differentiable prediction (linear, so gradients are exact)."""
        flat_table = nn.Tensor(self.table.reshape(-1, 1))
        out = nn.ops.matmul(features, flat_table)
        return nn.ops.reshape(out, (features.shape[0],)) + self.fixed

    def forward_vjp(self, flat: np.ndarray):
        """:meth:`predict_tensor` of one row and its VJP on raw arrays.

        Same contract as :meth:`MLPPredictor.forward_vjp`: returns
        ``(metric, back)``, bit-identical to ``predict_tensor(flat)[0]``
        and its tape gradient with respect to ``flat``.
        """
        dtype = flat.dtype
        column = np.asarray(self.table.reshape(-1, 1), dtype=dtype)
        out = flat @ column
        metric = (out.reshape((1,)) + np.asarray(self.fixed, dtype=dtype))[0]

        def back(g):
            g_pred = np.zeros(1, dtype=dtype)
            g_pred[0] += g
            return g_pred.reshape((1, 1)) @ np.swapaxes(column, -1, -2)

        return metric, back

    def predict_arch(self, arch: Architecture) -> float:
        """Exact metric of one architecture (matches hardware.flops)."""
        self.space.validate(arch)
        rows = np.arange(self.space.num_layers)
        return float(self.table[rows, list(arch.op_indices)].sum() + self.fixed)

    def predict_population(self, archs) -> np.ndarray:
        """Exact metric of a population: one gather-sum, no encoding step."""
        ops = self.space.as_index_matrix(archs)
        rows = np.arange(self.space.num_layers)[None, :]
        return self.table[rows, ops].sum(axis=1) + self.fixed
