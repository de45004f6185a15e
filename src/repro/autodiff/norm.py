"""Fused batch-normalization operator (training and inference modes).

Per-channel vectors are broadcast with
:func:`repro.backend.numpy_backend.per_channel`, in the memory order of the
activation they meet, so the elementwise work runs contiguous inner loops
over the NHWC-memory activations the convolutions return; every value and
every result's strides are those of a plain broadcast of the ``(C,)``
vector.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autodiff.tensor import Function, Tensor
from repro.backend.numpy_backend import per_channel
from repro.errors import ShapeError


class BatchNorm2dFunction(Function):
    """Per-channel batch normalization over an NCHW tensor.

    In training mode, normalizes with batch statistics and differentiates
    through them; in inference mode, uses the provided running statistics.
    The statistics used are kept as ``batch_mean`` / ``batch_var``, the
    mode as ``training``.
    The backward skips the ``grad_gamma``/``grad_beta`` reductions (and the
    input gradient) for inputs that need no gradient.
    """

    def forward(
        self,
        x: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
        running_mean: np.ndarray,
        running_var: np.ndarray,
        training: bool,
        eps: float,
    ) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        from repro.backend import current_backend

        backend = current_backend()
        if training:
            mean, var = backend.batchnorm_stats(x)
        else:
            mean = running_mean
            var = running_var
        out, x_hat, inv_std = backend.batchnorm_apply(x, gamma, beta, mean, var, eps)
        self.save_for_backward(x_hat, inv_std, gamma, training)
        self.training = training
        self.batch_mean = mean
        self.batch_var = var
        return out

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        x_hat, inv_std, gamma, training = self.saved
        need_x, need_gamma, need_beta = self.needs_input_grad
        axes = (0, 2, 3)
        grad_beta = grad.sum(axis=axes) if need_beta else None
        grad_gamma = (grad * x_hat).sum(axis=axes) if need_gamma else None
        if not need_x:
            return None, grad_gamma, grad_beta
        grad_xhat = grad * per_channel(gamma, grad)
        if training:
            mean_gxh = grad_xhat.mean(axis=axes)
            mean_gxh_xhat = (grad_xhat * x_hat).mean(axis=axes)
            centered = (
                grad_xhat
                - per_channel(mean_gxh, grad_xhat)
                - x_hat * per_channel(mean_gxh_xhat, x_hat)
            )
            grad_x = centered * per_channel(inv_std, centered)
        else:
            grad_x = grad_xhat * per_channel(inv_std, grad_xhat)
        return grad_x, grad_gamma, grad_beta


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    eps: float = 1e-5,
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Apply batch normalization; returns (output, batch_mean, batch_var).

    The batch statistics are returned so callers (the layer) can update
    running averages without recomputing them.
    """
    out, node = BatchNorm2dFunction.apply_node(
        x, gamma, beta, running_mean, running_var, training, eps
    )
    return out, node.batch_mean, node.batch_var
