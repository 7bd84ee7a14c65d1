"""Single-path Gumbel sampling of architectures (§3.3).

:class:`GumbelSampler` owns the temperature schedule and produces, from the
architecture parameters ``α``, the chain of Eq. (6)–(9)::

    P  = row-softmax(α)                    (operator probabilities)
    P̂  = softmax((P + G) / τ),  G~Gumbel   (continuous relaxation, Eq. 7)
    P̄  = one-hot(argmax P̂) with STE        (hard single-path gates, Eq. 9)

The paper initialises τ = 5 and "gradually decays [it] to zero"; we anneal
exponentially to a small floor (exact zero is singular in Eq. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..search_space.space import Architecture

__all__ = ["TemperatureSchedule", "GumbelSampler"]


@dataclass(frozen=True)
class TemperatureSchedule:
    """Exponential temperature annealing ``τ(t) = max(τ0·decay^t, floor)``."""

    initial: float = 5.0
    floor: float = 0.1
    total_steps: int = 90

    def __post_init__(self) -> None:
        if self.initial <= 0 or self.floor <= 0:
            raise ValueError("temperatures must be positive")
        if self.floor > self.initial:
            raise ValueError("floor must not exceed the initial temperature")

    def at(self, step: int) -> float:
        """Temperature for 0-indexed ``step``."""
        if self.total_steps <= 1:
            return self.floor
        decay = (self.floor / self.initial) ** (1.0 / (self.total_steps - 1))
        return max(self.initial * decay ** max(step, 0), self.floor)


class GumbelSampler:
    """Samples hard single-path gate matrices from architecture parameters."""

    def __init__(self, schedule: TemperatureSchedule, rng: np.random.Generator) -> None:
        self.schedule = schedule
        self.rng = rng

    def probabilities(self, alpha: nn.Tensor) -> nn.Tensor:
        """Eq. (6): per-layer operator probabilities ``P``."""
        return F.softmax(alpha, axis=-1)

    def draw_noise(self, shape) -> np.ndarray:
        """Advance the sampler RNG by one Gumbel draw of the given shape.

        The closed-form surrogate step draws its noise here; the stream
        order matches the in-line draw of :meth:`sample_gates` exactly
        (one ``rng.uniform`` call).
        """
        return F.gumbel_noise(shape, self.rng)

    def sample_gates(self, alpha: nn.Tensor, step: int,
                     deterministic: bool = False,
                     noise: Optional[np.ndarray] = None,
                     ) -> Tuple[nn.Tensor, nn.Tensor]:
        """Draw ``(P̂, P̄)`` for one search step.

        Note on Eq. (7): the paper writes ``softmax((P + G)/τ)`` with the
        *probabilities* P.  Taken literally that construction is nearly
        independent of α (P spans at most [0, 1] while Gumbel noise has
        std ≈ 1.28), so sampled paths would not concentrate on the learned
        architecture as τ anneals.  The categorical-reparameterisation
        result the paper invokes (Jang et al. 2016, its reference [19])
        perturbs *log*-probabilities — ``argmax(log P + G)`` is an exact
        categorical sample — so we use ``softmax((log P + G)/τ)``, which
        preserves the paper's stated property ``lim_{τ→0} P̂ = P``.

        ``deterministic=True`` suppresses the Gumbel noise (used by tests
        and by final-architecture extraction, where Eq. 4 is the argmax of
        ``α`` itself).  ``noise`` supplies a pre-drawn Gumbel sample (see
        :meth:`draw_noise`).
        """
        log_probs = F.log_softmax(alpha, axis=-1)
        if noise is None and not deterministic:
            noise = self.draw_noise(alpha.shape)
        relaxed = F.gumbel_softmax(log_probs, tau=self.schedule.at(step),
                                   noise=noise, axis=-1)
        hard = F.hard_binarize_ste(relaxed, axis=-1)
        return relaxed, hard

    @staticmethod
    def gates_vjp(alpha: np.ndarray, noise: np.ndarray, inv_tau: np.ndarray):
        """:meth:`sample_gates`' hard gates and their VJP on raw arrays.

        Returns ``(hard, back)``: ``hard`` is the one-hot ``P̄`` the tape
        computes for ``alpha``, ``noise`` and ``inv_tau`` (the deterministic
        chain passes zeros as ``noise``, as the tape does), and ``back(g)``
        maps ``∂L/∂P̄`` to ``∂L/∂α``.  Each line mirrors one tape op of
        log-softmax → ``(· + G) · (1/τ)`` → softmax → STE forward, or its
        backward closure in :mod:`repro.nn.ops` in reverse, with the same
        operands in the same order, so both are bit-identical to the tape.
        ``noise`` and ``inv_tau`` must already be in ``alpha``'s dtype.
        """
        shifted = alpha - alpha.max(axis=-1, keepdims=True)
        exps = np.exp(shifted)
        sums = exps.sum(axis=-1, keepdims=True)
        log_probs = shifted - np.log(sums)
        perturbed = (log_probs + noise) * inv_tau
        shifted2 = perturbed - perturbed.max(axis=-1, keepdims=True)
        exps2 = np.exp(shifted2)
        sums2 = exps2.sum(axis=-1, keepdims=True)
        relaxed = exps2 / sums2
        # STE forward: the one-hot argmax (same 1.0 writes as put_along_axis)
        hard = np.zeros_like(relaxed)
        hard[np.arange(len(relaxed)), relaxed.argmax(axis=-1)] = 1.0

        def back(g):
            # STE passes g through; softmax quotient, then its sum
            g_sums2 = (-g * exps2 / (sums2 ** 2)).sum(axis=-1, keepdims=True)
            g_log_probs = (g / sums2 + g_sums2) * exps2 * inv_tau
            # log-softmax: the direct path plus the log-sum-exp path
            g_sums = (-g_log_probs).sum(axis=-1, keepdims=True) / sums
            return g_log_probs + g_sums * exps

        return hard, back

    @staticmethod
    def derive_architecture(alpha: nn.Tensor) -> Architecture:
        """Eq. (4): the searched architecture is the per-layer argmax of α."""
        return Architecture.from_alpha(alpha.data)
