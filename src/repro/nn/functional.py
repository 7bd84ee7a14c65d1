"""Higher-level differentiable functions used by the NAS engines.

Includes the numerically-stable softmax family, cross-entropy, and the
Gumbel-Softmax machinery of LightNAS §3.3:

* :func:`gumbel_noise` — samples ``G ~ Gumbel(0, 1)``.
* :func:`gumbel_softmax` — the relaxation of Eq. (7),
  ``P̂ = softmax((logits + G) / τ)``.
* :func:`hard_binarize_ste` — Eq. (9): forward emits the one-hot argmax
  ``P̄``, backward passes the gradient straight through
  (``∂P̄/∂P̂ ≈ 1``, Bengio et al. 2013), which is exactly the approximation
  the paper invokes in Eq. (12).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor, _GradMode, get_default_dtype
from . import ops

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "one_hot",
    "gumbel_noise",
    "gumbel_softmax",
    "hard_binarize_ste",
    "mse_loss",
    "l1_loss",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``.

    The max-shift is the (non-differentiable) :func:`repro.nn.ops.amax`
    primitive, so step plans recompute it from the live input on replay;
    values and gradients are unchanged from the historical baked constant.
    """
    shifted = x - ops.amax(x, axis=axis, keepdims=True)
    exps = ops.exp(shifted)
    return exps / ops.sum_(exps, axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = x - ops.amax(x, axis=axis, keepdims=True)
    return shifted - ops.log(ops.sum_(ops.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` to a one-hot float array ``(N, C)``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise ValueError("labels out of range for num_classes")
    out = np.zeros((labels.shape[0], num_classes), dtype=get_default_dtype())
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def nll_loss(log_probs: Tensor, labels: Optional[np.ndarray] = None, *,
             targets: Optional[Tensor] = None) -> Tensor:
    """Mean negative log-likelihood given ``(N, C)`` log-probabilities.

    Pass either integer ``labels`` (one-hot encoded internally) or a
    precomputed one-hot ``targets`` tensor — the latter lets compiled step
    plans treat the targets as a per-step input instead of a baked
    constant.  Both paths compute bit-identical losses.
    """
    if targets is None:
        if labels is None:
            raise ValueError("nll_loss needs labels or targets")
        targets = Tensor(one_hot(labels, log_probs.shape[-1]))
    picked = ops.sum_(log_probs * targets, axis=-1)
    return -ops.mean(picked)


def cross_entropy(logits: Tensor, labels: Optional[np.ndarray] = None, *,
                  targets: Optional[Tensor] = None) -> Tensor:
    """Mean softmax cross-entropy over a batch of ``(N, C)`` logits."""
    return nll_loss(log_softmax(logits, axis=-1), labels, targets=targets)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error; ``target`` may be a Tensor or array."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target.detach()
    return ops.mean(diff * diff)


def l1_loss(pred: Tensor, target) -> Tensor:
    """Mean absolute error (used for robust predictor fitting)."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = (pred - target.detach()).data
    out = np.abs(diff).mean()
    if not _GradMode.enabled or not pred.requires_grad:
        return Tensor(out)
    sign = np.sign(diff)

    def backward(grad):
        return [(pred, grad * sign / diff.size)]

    return Tensor._make(out, (pred,), backward)


def gumbel_noise(shape, rng: np.random.Generator) -> np.ndarray:
    """Sample ``G ~ Gumbel(0, 1)`` of the given shape.

    Uses the inverse-CDF transform ``-log(-log(U))`` with ``U`` clipped away
    from {0, 1} for numerical safety.
    """
    u = rng.uniform(low=1e-12, high=1.0 - 1e-12, size=shape)
    return -np.log(-np.log(u))


def gumbel_softmax(
    logits: Tensor,
    tau: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
    noise: Optional[np.ndarray] = None,
    axis: int = -1,
) -> Tensor:
    """Gumbel-Softmax relaxation (Eq. 7): ``softmax((logits + G)/τ)``.

    Parameters
    ----------
    logits:
        Unnormalised scores (the paper feeds the probabilities ``P`` here;
        both are valid parameterisations of the same distribution family).
    tau:
        Softmax temperature; the paper anneals ``τ`` from 5 towards 0.
    rng / noise:
        Either a generator used to draw fresh Gumbel noise, or an explicit
        noise array (useful for deterministic tests).  ``noise=None`` with
        ``rng=None`` disables the noise (plain tempered softmax).
    """
    if tau is None or tau <= 0:
        raise ValueError(f"gumbel_softmax temperature must be positive, got {tau}")
    if noise is None:
        noise = gumbel_noise(logits.shape, rng) if rng is not None else np.zeros(logits.shape)
    perturbed = (logits + Tensor(noise)) * (1.0 / tau)
    return softmax(perturbed, axis=axis)


@ops._op("ste")
def hard_binarize_ste(probs: Tensor, axis: int = -1) -> Tensor:
    """Eq. (9): one-hot argmax forward, straight-through identity backward.

    The forward output ``P̄`` has exactly one 1 per slice along ``axis``;
    the backward pass forwards the incoming gradient to ``probs`` unchanged,
    implementing the paper's ``∂P̄/∂P̂ ≈ 1`` approximation.
    """
    data = probs.data
    hard = np.zeros_like(data)
    idx = np.argmax(data, axis=axis)
    np.put_along_axis(hard, np.expand_dims(idx, axis=axis), 1.0, axis=axis)
    if not _GradMode.enabled or not probs.requires_grad:
        return Tensor(hard)

    def backward(grad):
        return [(probs, grad)]

    return Tensor._make(hard, (probs,), backward)
