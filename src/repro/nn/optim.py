"""Optimizers and learning-rate schedules.

Implements exactly the optimisation recipe of LightNAS §4.1:

* :class:`SGD` with momentum and decoupled weight decay — used for the
  supernet weights ``w`` (lr 0.1, momentum 0.9, wd 3e-5, cosine anneal).
* :class:`Adam` — used for the architecture parameters ``α``
  (lr 1e-3, wd 1e-3).
* :class:`GradientAscent` — used for the constraint multiplier ``λ``
  (fixed lr 5e-4, *ascent*, Eq. 11).
* :class:`CosineSchedule` with linear warmup — the evaluation protocol warms
  up from 0.1 to 0.5 over 5 epochs then cosine-decays to zero.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

import numpy as np

from .tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "GradientAscent", "CosineSchedule"]


class Optimizer:
    """Base optimizer over a list of parameters."""

    def __init__(self, params: Iterable[Tensor], lr: float) -> None:
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpoint support: internal slots (momentum buffers, Adam moments)
    # as a flat name → array mapping, round-tripping exactly.
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Internal optimizer state (empty for stateless optimizers)."""
        return {}

    def load_state_arrays(self, state: Dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`state_arrays` (strict)."""
        if state:
            raise KeyError(
                f"{type(self).__name__} is stateless but got state keys "
                f"{sorted(state)}"
            )


class SGD(Optimizer):
    """SGD with classical momentum and L2 weight decay.

    ``v ← μ v + (g + wd·p)``; ``p ← p − lr·v``.

    Updates are written **in place** through preallocated scratch buffers:
    ``p.data`` stays the same array object across steps, which is what lets
    compiled step plans (:mod:`repro.nn.plan`) bind parameter arrays once at
    compile time.  Every ``out=`` sequence reproduces the historical
    expression operand-for-operand, so trajectories are bit-identical.
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = [np.zeros_like(p.data) for p in self.params]
        self._scratch = [np.empty_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v, s in zip(self.params, self._velocity, self._scratch):
            g = p.grad
            if g is None:
                continue
            if self.weight_decay:
                # g + wd·p  (scalar·array multiplies commute bitwise)
                np.multiply(p.data, self.weight_decay, out=s)
                np.add(g, s, out=s)
                g = s
            v *= self.momentum
            v += g
            # p ← p − lr·v
            np.multiply(v, self.lr, out=s)
            np.subtract(p.data, s, out=p.data)

    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {f"velocity.{i}": v.copy() for i, v in enumerate(self._velocity)}

    def load_state_arrays(self, state: Dict[str, np.ndarray]) -> None:
        for i, v in enumerate(self._velocity):
            key = f"velocity.{i}"
            if key not in state:
                raise KeyError(f"missing optimizer state {key}")
            if state[key].shape != v.shape:
                raise ValueError(f"shape mismatch for optimizer state {key}")
            v[...] = state[key]


class Adam(Optimizer):
    """Adam with bias correction and L2 weight decay.

    Like :class:`SGD`, the update runs in place through two preallocated
    scratch buffers per parameter (``p.data`` keeps its identity for the
    step-plan compiler) and reproduces the historical expression
    operand-for-operand, bit-identically.
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = float(weight_decay)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = [(np.empty_like(p.data), np.empty_like(p.data))
                         for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1 ** self._t
        bc2 = 1.0 - self.beta2 ** self._t
        for p, m, v, (s1, s2) in zip(self.params, self._m, self._v,
                                     self._scratch):
            g = p.grad
            if g is None:
                continue
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=s1)
                np.add(g, s1, out=s1)
                g = s1
            m *= self.beta1
            np.multiply(g, 1 - self.beta1, out=s2)
            m += s2
            v *= self.beta2
            # (1−β2)·g·g evaluates left-to-right: ((1−β2)·g)·g
            np.multiply(g, 1 - self.beta2, out=s2)
            np.multiply(s2, g, out=s2)
            v += s2
            # p ← p − (lr·(m/bc1)) / (sqrt(v/bc2) + eps); g (possibly s1)
            # is fully consumed above, so s1 is free to hold the divisor
            np.divide(m, bc1, out=s2)
            np.multiply(s2, self.lr, out=s2)
            np.divide(v, bc2, out=s1)
            np.sqrt(s1, out=s1)
            np.add(s1, self.eps, out=s1)
            np.divide(s2, s1, out=s2)
            np.subtract(p.data, s2, out=p.data)

    def state_arrays(self) -> Dict[str, np.ndarray]:
        state = {"t": np.array(self._t, dtype=np.int64)}
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            state[f"m.{i}"] = m.copy()
            state[f"v.{i}"] = v.copy()
        return state

    def load_state_arrays(self, state: Dict[str, np.ndarray]) -> None:
        if "t" not in state:
            raise KeyError("missing optimizer state t")
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            for key, slot in ((f"m.{i}", m), (f"v.{i}", v)):
                if key not in state:
                    raise KeyError(f"missing optimizer state {key}")
                if state[key].shape != slot.shape:
                    raise ValueError(f"shape mismatch for optimizer state {key}")
                slot[...] = state[key]
        self._t = int(state["t"])


class GradientAscent(Optimizer):
    """Plain gradient *ascent*: ``p ← p + lr · grad``.

    LightNAS uses this for the trade-off multiplier ``λ`` (Eq. 11), whose
    gradient is ``LAT(α)/T − 1``; ascending λ when latency exceeds the
    target strengthens the latency penalty, closing the loop that drives
    ``LAT(α) → T``.
    """

    def __init__(self, params: Iterable[Tensor], lr: float, floor: Optional[float] = 0.0) -> None:
        super().__init__(params, lr)
        self.floor = floor
        self._scratch = [np.empty_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, s in zip(self.params, self._scratch):
            if p.grad is None:
                continue
            # p ← p + lr·grad, in place (bit-identical to the historical
            # rebinding update; see SGD)
            np.multiply(p.grad, self.lr, out=s)
            np.add(p.data, s, out=p.data)
            if self.floor is not None:
                np.maximum(p.data, self.floor, out=p.data)


class CosineSchedule:
    """Cosine learning-rate decay with optional linear warmup.

    Parameters
    ----------
    base_lr:
        Peak learning rate reached at the end of warmup.
    total_steps:
        Number of steps over which to decay to ``final_lr``.
    warmup_steps / warmup_start_lr:
        Linear ramp from ``warmup_start_lr`` to ``base_lr`` over the first
        ``warmup_steps`` steps (the paper warms 0.1 → 0.5 over 5 epochs).
    """

    def __init__(
        self,
        base_lr: float,
        total_steps: int,
        warmup_steps: int = 0,
        warmup_start_lr: float = 0.0,
        final_lr: float = 0.0,
    ) -> None:
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if warmup_steps >= total_steps:
            raise ValueError("warmup_steps must be smaller than total_steps")
        self.base_lr = base_lr
        self.total_steps = total_steps
        self.warmup_steps = warmup_steps
        self.warmup_start_lr = warmup_start_lr
        self.final_lr = final_lr

    def lr_at(self, step: int) -> float:
        """Learning rate for 0-indexed ``step`` (clamped to the schedule)."""
        step = max(0, min(step, self.total_steps))
        if self.warmup_steps and step < self.warmup_steps:
            frac = step / self.warmup_steps
            return self.warmup_start_lr + frac * (self.base_lr - self.warmup_start_lr)
        span = self.total_steps - self.warmup_steps
        progress = (step - self.warmup_steps) / span
        cos = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.final_lr + (self.base_lr - self.final_lr) * cos

    def apply(self, optimizer: Optimizer, step: int) -> float:
        """Set ``optimizer.lr`` for ``step`` and return it."""
        lr = self.lr_at(step)
        optimizer.lr = lr
        return lr
