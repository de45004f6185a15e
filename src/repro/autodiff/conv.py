"""Differentiable 2-D convolution and pooling via im2col.

All operators use NCHW layout, matching the paper's PyTorch models.

:func:`_im2col` builds the patch matrix with one gather through a cached
flat index per input geometry; convolution and both poolings share it.
:class:`Conv2dFunction` computes only the gradients its inputs need
(:attr:`~repro.autodiff.tensor.Function.needs_input_grad`): the
``grad_cols`` GEMM and col2im scatter only when ``x`` needs one, the weight
GEMM only when ``weight`` does, the bias sum only when ``bias`` does.

Patch gradients reach col2im (:func:`_col2im`) in one layout, tap-major
``(N, C*kh*kw, out_h*out_w)``: the convolution's backend GEMM writes it
directly and the poolings pass a transposed view of their
``(N, L, C*kh*kw)`` columns, so one kernel serves all three.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autodiff.tensor import Function, Tensor
from repro.errors import ShapeError


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


@functools.lru_cache(maxsize=128)
def _im2col_index(
    c: int,
    h_pad: int,
    w_pad: int,
    kh: int,
    kw: int,
    stride: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Flat gather index ``(out_h*out_w, C*kh*kw)`` into one padded sample.

    Row ``oh*out_w + ow`` lists the patch under output pixel ``(oh, ow)`` in
    ``(C, kh, kw)`` column order.  It does not depend on the batch size, so
    one cached array serves every batch of a layer.
    """
    # Broadcast to (out_h, out_w, C, kh, kw), then flatten to rows x columns.
    oh = np.arange(out_h, dtype=np.intp)[:, None, None, None, None]
    ow = np.arange(out_w, dtype=np.intp)[:, None, None, None]
    ch = np.arange(c, dtype=np.intp)[:, None, None]
    i = np.arange(kh, dtype=np.intp)[:, None]
    j = np.arange(kw, dtype=np.intp)
    index = ch * (h_pad * w_pad) + (oh * stride + i) * w_pad + (ow * stride + j)
    index = index.reshape(out_h * out_w, c * kh * kw)
    index.setflags(write=False)
    return index


def _im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Extract sliding patches: (N, C, H, W) -> (N, out_h*out_w, C*kh*kw).

    One ``np.take`` through :func:`_im2col_index` writes the C-contiguous
    patch matrix directly; the values are the input's, in the historical
    ``(C, kh, kw)`` column order, so every GEMM downstream sees the same
    operands.
    """
    n, c, h, w = x.shape
    out_h = _out_size(h, kh, stride, padding)
    out_w = _out_size(w, kw, stride, padding)
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"convolution output would be empty for input {x.shape}, "
            f"kernel ({kh},{kw}), stride {stride}, padding {padding}"
        )
    if padding:
        # The bytes np.pad would produce, without its per-call overhead.
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding:-padding, padding:-padding] = x
        x = padded
    h_pad, w_pad = x.shape[2], x.shape[3]
    index = _im2col_index(c, h_pad, w_pad, kh, kw, stride, out_h, out_w)
    cols = np.take(x.reshape(n, c * h_pad * w_pad), index, axis=1)
    return cols, out_h, out_w


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Scatter-add patches back: inverse of :func:`_im2col` for gradients.

    ``cols`` is tap-major ``(N, C*kh*kw, out_h*out_w)``.  Delegates to the
    backend kernel (the pooling backwards route through here too, so every
    col2im in the model runs the same kernel).
    """
    from repro.backend import current_backend

    return current_backend().im2col_backward(
        cols, x_shape, kh, kw, stride, padding, out_h, out_w
    )


class Conv2dFunction(Function):
    """2-D cross-correlation with optional bias (like torch.nn.functional.conv2d)."""

    def forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int,
        padding: int,
    ) -> np.ndarray:
        out_c, in_c, kh, kw = weight.shape
        if x.shape[1] != in_c:
            raise ShapeError(
                f"conv2d input has {x.shape[1]} channels but weight expects {in_c}"
            )
        from repro.backend import current_backend

        cols, out_h, out_w = _im2col(x, kh, kw, stride, padding)
        w_mat = weight.reshape(out_c, -1)
        out = current_backend().conv_cols_matmul(cols, w_mat)  # (N, out_h*out_w, out_c)
        if bias is not None:
            out = out + bias
        out = out.transpose(0, 2, 1).reshape(x.shape[0], out_c, out_h, out_w)
        self.save_for_backward(cols, x.shape, weight, bias is not None, stride, padding, out_h, out_w)
        return out

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        from repro.backend import current_backend

        cols, x_shape, weight, has_bias, stride, padding, out_h, out_w = self.saved
        need_x, need_w = self.needs_input_grad[:2]
        n = x_shape[0]
        out_c, in_c, kh, kw = weight.shape
        grad_mat = grad.reshape(n, out_c, out_h * out_w).transpose(0, 2, 1)  # (N, L, out_c)
        w_mat = weight.reshape(out_c, -1)

        grad_cols, grad_w = current_backend().conv_grads(
            grad_mat, cols, w_mat, weight.shape, need_input=need_x, need_weight=need_w
        )
        grad_x = None
        if need_x:
            grad_x = _col2im(grad_cols, x_shape, kh, kw, stride, padding, out_h, out_w)
        if has_bias:
            grad_b = grad_mat.sum(axis=(0, 1)) if self.needs_input_grad[2] else None
            return grad_x, grad_w, grad_b
        return grad_x, grad_w


class MaxPool2dFunction(Function):
    def forward(self, x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
        n, c, h, w = x.shape
        out_h = _out_size(h, kernel, stride, 0)
        out_w = _out_size(w, kernel, stride, 0)
        cols, _, _ = _im2col(x, kernel, kernel, stride, 0)
        cols = cols.reshape(n, out_h * out_w, c, kernel * kernel)
        argmax = cols.argmax(axis=3)
        out = np.take_along_axis(cols, argmax[..., None], axis=3)[..., 0]
        out = out.transpose(0, 2, 1).reshape(n, c, out_h, out_w)
        self.save_for_backward(x.shape, argmax, kernel, stride, out_h, out_w)
        return out

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        x_shape, argmax, kernel, stride, out_h, out_w = self.saved
        n, c, _, _ = x_shape
        grad_flat = grad.reshape(n, c, out_h * out_w).transpose(0, 2, 1)  # (N, L, C)
        grad_cols = np.zeros((n, out_h * out_w, c, kernel * kernel), dtype=grad.dtype)
        np.put_along_axis(grad_cols, argmax[..., None], grad_flat[..., None], axis=3)
        grad_cols = grad_cols.reshape(n, out_h * out_w, c * kernel * kernel)
        grad_x = _col2im(
            grad_cols.transpose(0, 2, 1), x_shape, kernel, kernel, stride, 0, out_h, out_w
        )
        return (grad_x,)


class AvgPool2dFunction(Function):
    def forward(self, x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
        n, c, h, w = x.shape
        out_h = _out_size(h, kernel, stride, 0)
        out_w = _out_size(w, kernel, stride, 0)
        cols, _, _ = _im2col(x, kernel, kernel, stride, 0)
        cols = cols.reshape(n, out_h * out_w, c, kernel * kernel)
        out = cols.mean(axis=3).transpose(0, 2, 1).reshape(n, c, out_h, out_w)
        self.save_for_backward(x.shape, kernel, stride, out_h, out_w)
        return out

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        x_shape, kernel, stride, out_h, out_w = self.saved
        n, c, _, _ = x_shape
        grad_flat = grad.reshape(n, c, out_h * out_w).transpose(0, 2, 1)
        # Broadcast the per-window mean gradient across the kernel axis; the
        # reshape materialises the stride-0 view exactly once.
        scaled = grad_flat[..., None] / (kernel * kernel)
        grad_cols = np.broadcast_to(
            scaled, (n, out_h * out_w, c, kernel * kernel)
        ).reshape(n, out_h * out_w, c * kernel * kernel)
        grad_x = _col2im(
            grad_cols.transpose(0, 2, 1), x_shape, kernel, kernel, stride, 0, out_h, out_w
        )
        return (grad_x,)


class Pad2dFunction(Function):
    def forward(self, x: np.ndarray, padding: int) -> np.ndarray:
        self.save_for_backward(padding)
        return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        (padding,) = self.saved
        if padding == 0:
            return (grad,)
        return (grad[:, :, padding:-padding, padding:-padding],)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over an NCHW input tensor."""
    if bias is None:
        return Conv2dFunction.apply(x, weight, None, stride, padding)
    return Conv2dFunction.apply(x, weight, bias, stride, padding)


def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling with square windows."""
    return MaxPool2dFunction.apply(x, kernel=kernel, stride=stride or kernel)


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling with square windows."""
    return AvgPool2dFunction.apply(x, kernel=kernel, stride=stride or kernel)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, producing (N, C)."""
    return x.mean(axis=(2, 3))


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the two spatial dimensions symmetrically."""
    return Pad2dFunction.apply(x, padding=padding)
