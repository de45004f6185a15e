"""The compute kernels, byte-identical to the op sequence the goldens were recorded on.

These kernels dominate attack wall-clock.  Each one produces, element for
element, the bytes of the expression the autodiff ops used before the
kernels were lifted out of them -- the reference the golden snapshots,
sweep rows and engine digests were recorded against:

- :meth:`linear` / :meth:`linear_grads` replay the ``Transpose`` +
  ``MatMul`` + ``Add`` tape triple ``nn.Linear`` used to build (including
  the ``_unbroadcast`` reductions the tape applied);
- :meth:`batchnorm_stats` / :meth:`batchnorm_apply` are the expressions
  lifted out of ``BatchNorm2dFunction.forward``;
- :meth:`conv_grads` is ``Conv2dFunction.backward``'s GEMM + einsum pair,
  with the input-gradient GEMM transposed so ``grad_cols`` comes out
  tap-major;
- :meth:`im2col_backward` is the historical col2im scatter-add loop over
  that tap-major layout.

Two layout rules keep them fast without changing a byte (DESIGN.md,
"Compute kernels"):

- a per-channel vector is broadcast through :func:`per_channel`, laid out in
  the operand's memory order, so an elementwise op over an NHWC-memory
  activation walks both operands contiguously.  Each element is the same
  single IEEE operation, and the result keeps the operand's strides, so
  every later reduction sees the memory order it always saw;
- ``grad_cols`` is ``(N, C*kh*kw, out_h*out_w)``: each tap's plane is
  contiguous for col2im's strided adds.  Every element is the same
  ``out_c``-long dot product, and col2im adds the taps in the same order.

The backward kernels take ``need_input`` / ``need_weight`` flags and skip
the part nobody reads; a computed part is the same expression either way.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autodiff.tensor import _unbroadcast


def per_channel(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Broadcast the per-channel vector ``v`` over ``like``'s ``(N, C, H, W)``.

    The result is ``(1, C, H, W)`` with ``v``'s dtype, laid out in the memory
    order of one sample of ``like``: an elementwise op between the two then
    runs long contiguous inner loops instead of C-long ones over an
    NHWC-memory activation.  Only one sample is materialized; the batch axis
    broadcasts.
    """
    out = np.empty_like(like[0], dtype=v.dtype)
    out[...] = v[:, None, None]
    return out[None]


class NumpyBackend:
    """Reference kernels; byte-identical to the pre-backend code path."""

    # ------------------------------------------------------------------
    # Convolution
    # ------------------------------------------------------------------
    def conv_cols_matmul(self, cols: np.ndarray, w_mat: np.ndarray) -> np.ndarray:
        """Contract im2col patches with the kernel matrix.

        ``cols`` is ``(N, out_h*out_w, C*kh*kw)`` (one patch row per output
        pixel), or the stacked ``(N*out_h*out_w, C*kh*kw)`` rows of a
        cropped conv in the trigger's cone; ``w_mat`` is
        ``(out_c, C*kh*kw)``; the result has ``cols``' leading axes and
        ``out_c`` columns.
        """
        # The 3-D @ 2-D matmul runs one (L, K) x (K, out_c) GEMM per sample
        # via the gufunc batch loop -- per-sample results are independent of
        # the batch size, which the engine's candidate stacking relies on.
        return cols @ w_mat.T

    def conv_grads(
        self,
        grad_mat: np.ndarray,
        cols: np.ndarray,
        w_mat: np.ndarray,
        weight_shape: Tuple[int, ...],
        *,
        need_input: bool = True,
        need_weight: bool = True,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """The two backward GEMMs of a convolution.

        ``grad_mat`` is ``(N, L, out_c)``; returns ``(grad_cols, grad_w)``
        where ``grad_cols`` is tap-major ``(N, C*kh*kw, L)`` (fed to
        :meth:`im2col_backward`) and ``grad_w`` has ``weight_shape``.
        ``need_input=False`` skips the ``grad_cols`` GEMM and
        ``need_weight=False`` the weight GEMM; a skipped part comes back as
        ``None``, and a computed one is unchanged by the other flag.  Only
        the weight GEMM reads ``cols``, the ``(N, L, C*kh*kw)`` patches.
        """
        # ``(grad_mat @ w_mat)`` transposed: each element is the same
        # out_c-long dot product, written tap-major for col2im.
        grad_cols = None
        if need_input:
            grad_cols = w_mat.T @ grad_mat.transpose(0, 2, 1)  # (N, C*kh*kw, L)
        grad_w = None
        if need_weight:
            grad_w = np.einsum("nlo,nlk->ok", grad_mat, cols).reshape(weight_shape)
        return grad_cols, grad_w

    def im2col_backward(
        self,
        cols: np.ndarray,
        x_shape: Tuple[int, int, int, int],
        kh: int,
        kw: int,
        stride: int,
        padding: int,
        out_h: int,
        out_w: int,
    ) -> np.ndarray:
        """Scatter-add patch gradients back to image layout (col2im).

        ``cols`` is tap-major ``(N, C*kh*kw, out_h*out_w)``.  The taps are
        added in ``(i, j)`` order, so every pixel sums its contributions in
        the historical order.
        """
        n, c, h, w = x_shape
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
        cols = cols.reshape(n, c, kh, kw, out_h, out_w)
        for i in range(kh):
            i_end = i + stride * out_h
            for j in range(kw):
                j_end = j + stride * out_w
                padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
        if padding:
            return padded[:, :, padding:-padding, padding:-padding]
        return padded

    # ------------------------------------------------------------------
    # Dense
    # ------------------------------------------------------------------
    def linear(
        self, x: np.ndarray, w_t: np.ndarray, b: Optional[np.ndarray]
    ) -> np.ndarray:
        """Dense forward ``x @ w_t (+ b)``.

        ``x`` may be 2-D ``(N, in)`` or carry extra leading axes (the
        engine's stacked candidate scoring broadcasts ``(K, N, in)``).
        """
        # ``w_t`` is the transposed view of the weight, so this GEMM sees the
        # same operand layout (and therefore BLAS kernel selection) as the
        # historical ``x @ weight.transpose()`` tape path.
        out = x @ w_t
        if b is not None:
            out = out + b
        return out

    def linear_grads(
        self,
        grad: np.ndarray,
        x: np.ndarray,
        w_t: np.ndarray,
        bias_shape: Optional[Tuple[int, ...]],
        *,
        need_input: bool = True,
        need_weight: bool = True,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
        """Dense backward: ``(grad_x, grad_w, grad_b)``.

        ``grad_w`` comes back in the layer's ``(out, in)`` weight shape;
        ``grad_b`` is ``None`` when ``bias_shape`` is ``None`` (callers pass
        ``None`` to skip the bias reduction).  ``need_input=False`` /
        ``need_weight=False`` skip ``grad_x`` / ``grad_w`` the same way,
        returning ``None`` in their place.
        """
        # MatMul.backward on (x, w_t), then Transpose.backward on the weight
        # gradient -- the exact historical sequence, including _unbroadcast's
        # leading-axis sums for the engine's stacked 3-D activations.
        grad_x = grad_w = None
        if need_input:
            grad_x = _unbroadcast(grad @ np.swapaxes(w_t, -1, -2), x.shape)
        if need_weight:
            grad_w = np.transpose(_unbroadcast(np.swapaxes(x, -1, -2) @ grad, w_t.shape))
        grad_b = None if bias_shape is None else _unbroadcast(grad, bias_shape)
        return grad_x, grad_w, grad_b

    # ------------------------------------------------------------------
    # Batch norm
    # ------------------------------------------------------------------
    def batchnorm_stats(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-channel ``(mean, var)`` of an NCHW batch."""
        return x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))

    def batchnorm_apply(
        self,
        x: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
        mean: np.ndarray,
        var: np.ndarray,
        eps: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Normalize and affine-transform: ``(out, x_hat, inv_std)``.

        ``x_hat`` and ``inv_std`` are returned because the autodiff backward
        consumes them directly.
        """
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (x - per_channel(mean, x)) * per_channel(inv_std, x)
        out = per_channel(gamma, x_hat) * x_hat + per_channel(beta, x_hat)
        return out, x_hat, inv_std
