"""`repro.nn` — a from-scratch numpy autodiff / neural-network substrate.

This subpackage replaces PyTorch for the LightNAS reproduction: a taped
reverse-mode :class:`Tensor`, the differentiable ops required by the paper's
equations (including grouped/depthwise convolution and the Gumbel-Softmax
straight-through machinery), module containers, and the exact optimizers the
paper's training recipes call for.
"""

from . import functional, init, ops, optim, plan, profiler
from .modules import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool,
    Identity,
    Linear,
    Module,
    Parameter,
    ReLU,
    ReLU6,
    Sequential,
    Sigmoid,
    SqueezeExcite,
)
from .optim import SGD, Adam, CosineSchedule, GradientAscent, Optimizer
from .plan import (
    BufferArena,
    PlanError,
    StepProgram,
    fusion,
    fusion_enabled,
)
from .tensor import (
    Tensor,
    dtype_scope,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    tensor_allocations,
)

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "functional", "ops", "optim", "init",
    "profiler", "set_default_dtype", "get_default_dtype", "dtype_scope",
    "tensor_allocations",
    "Module", "Parameter", "Sequential", "Identity", "Linear", "Conv2d",
    "BatchNorm2d", "ReLU", "ReLU6", "Sigmoid", "Dropout", "GlobalAvgPool",
    "Flatten", "SqueezeExcite",
    "Optimizer", "SGD", "Adam", "GradientAscent", "CosineSchedule",
    "plan", "PlanError", "BufferArena", "StepProgram", "fusion",
    "fusion_enabled",
]
