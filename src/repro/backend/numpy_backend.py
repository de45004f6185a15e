"""The compute kernels: the exact NumPy op sequence the repo has always run.

These kernels dominate attack wall-clock.  Every kernel here is the literal
expression the autodiff ops used before the kernels were lifted out of them,
so the bytes it produces are the reference the golden snapshots, sweep rows
and engine digests were recorded against:

- :meth:`linear` / :meth:`linear_grads` replay the ``Transpose`` +
  ``MatMul`` + ``Add`` tape triple ``nn.Linear`` used to build (including
  the ``_unbroadcast`` reductions the tape applied);
- :meth:`batchnorm_stats` / :meth:`batchnorm_apply` are the expressions
  lifted out of ``BatchNorm2dFunction.forward``;
- :meth:`im2col_backward` is the historical ``_col2im`` scatter-add loop;
- :meth:`conv_grads` is ``Conv2dFunction.backward``'s GEMM + einsum pair.

The backward kernels take ``need_input`` / ``need_weight`` flags and skip
the part nobody reads; a computed part is the same expression either way.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autodiff.tensor import _unbroadcast


class NumpyBackend:
    """Reference kernels; byte-identical to the pre-backend code path."""

    # ------------------------------------------------------------------
    # Convolution
    # ------------------------------------------------------------------
    def conv_cols_matmul(self, cols: np.ndarray, w_mat: np.ndarray) -> np.ndarray:
        """Contract im2col patches with the kernel matrix.

        ``cols`` is ``(N, out_h*out_w, C*kh*kw)`` (one patch row per output
        pixel), ``w_mat`` is ``(out_c, C*kh*kw)``; the result is
        ``(N, out_h*out_w, out_c)``.
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
        where ``grad_cols`` is ``(N, L, C*kh*kw)`` (fed to
        :meth:`im2col_backward`) and ``grad_w`` has ``weight_shape``.
        ``need_input=False`` skips the ``grad_cols`` GEMM and
        ``need_weight=False`` the weight GEMM; a skipped part comes back as
        ``None``, and a computed one is unchanged by the other flag.
        """
        grad_cols = grad_mat @ w_mat if need_input else None  # (N, L, C*kh*kw)
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
        """Scatter-add patch gradients back to image layout (col2im)."""
        n, c, h, w = x_shape
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
        cols = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
        for i in range(kh):
            i_end = i + stride * out_h
            for j in range(kw):
                j_end = j + stride * out_w
                padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, :, :, i, j]
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
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
        return out, x_hat, inv_std
