"""A from-scratch NumPy reverse-mode automatic differentiation engine.

This replaces PyTorch as the training substrate for the reproduction.  It
provides a :class:`~repro.autodiff.tensor.Tensor` type carrying a gradient
tape, a library of differentiable operations (including 2-D convolution,
batch normalization and pooling) and numerically stable loss functions.
"""

from repro.autodiff.tensor import Tensor, Function, frozen, no_grad, is_grad_enabled
from repro.autodiff.conv import conv2d, max_pool2d, avg_pool2d, global_avg_pool2d, pad2d
from repro.autodiff.losses import cross_entropy, mse_loss, nll_loss, log_softmax, softmax

__all__ = [
    "Tensor",
    "Function",
    "no_grad",
    "frozen",
    "is_grad_enabled",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "pad2d",
    "cross_entropy",
    "mse_loss",
    "nll_loss",
    "log_softmax",
    "softmax",
]
