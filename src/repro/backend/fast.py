"""The ``fast`` profile: fused, contiguous, float32-everywhere kernels.

Opt-in via ``REPRO_BACKEND=fast``.  Two deviations from the reference
backend buy the speed:

- **Fused GEMMs**: batched per-sample GEMMs collapse into a single
  ``(N*L, K) @ (K, out)`` call -- the im2col contraction, its two backward
  GEMMs, and the dense forward/backward all flatten their leading axes so
  BLAS sees one large problem instead of N small ones (better
  blocking/threading, no gufunc loop).
- **float32 everywhere**: operands are forced to contiguous float32 before
  each GEMM, so a float64 upcast sneaking into a hot path cannot silently
  double memory traffic.

Both change the floating-point reduction *grouping*, so outputs are only
guaranteed equal to the reference backend within tolerance -- ``fast`` is
excluded from byte-identity golden tests and covered by the tolerance
parity suite in ``tests/test_backend.py`` instead.  With this PR the
profile covers the CFT fine-tuning path too (forward *and* backward), the
dominant offline cost at larger scales; the im2col scatter and batch-norm
kernels inherit the reference expressions (they are memory-bound, not
GEMM-bound).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend.numpy_backend import NumpyBackend


def _flat32(x: np.ndarray) -> np.ndarray:
    """Contiguous float32 2-D view of an array's trailing feature axis."""
    return np.ascontiguousarray(x.reshape(-1, x.shape[-1]), dtype=np.float32)


class FastBackend(NumpyBackend):
    """Throughput-first kernels; tolerance-equal to the reference backend."""

    name = "fast"
    byte_identical = False

    def conv_cols_matmul(self, cols: np.ndarray, w_mat: np.ndarray) -> np.ndarray:
        n, length, k = cols.shape
        flat = np.ascontiguousarray(cols.reshape(n * length, k), dtype=np.float32)
        kernel = np.ascontiguousarray(w_mat.T, dtype=np.float32)
        return (flat @ kernel).reshape(n, length, kernel.shape[1])

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
        n, length, out_c = grad_mat.shape
        flat_grad = _flat32(grad_mat)  # (N*L, out_c)
        grad_cols = grad_w = None
        if need_input:
            kernel = np.ascontiguousarray(w_mat, dtype=np.float32)
            grad_cols = (flat_grad @ kernel).reshape(n, length, w_mat.shape[1])
        if need_weight:
            # einsum("nlo,nlk->ok") fused into one transposed GEMM.
            grad_w = (flat_grad.T @ _flat32(cols)).reshape(weight_shape)
        return grad_cols, grad_w

    def linear(
        self, x: np.ndarray, w_t: np.ndarray, b: Optional[np.ndarray]
    ) -> np.ndarray:
        kernel = np.ascontiguousarray(w_t, dtype=np.float32)
        out = (_flat32(x) @ kernel).reshape(x.shape[:-1] + (kernel.shape[1],))
        if b is not None:
            out = out + np.asarray(b, dtype=np.float32)
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
        flat_grad = _flat32(grad)  # (M, out)
        grad_x = grad_w = None
        if need_input:
            w = np.ascontiguousarray(np.swapaxes(w_t, -1, -2), dtype=np.float32)
            grad_x = (flat_grad @ w).reshape(x.shape)
        if need_weight:
            grad_w = flat_grad.T @ _flat32(x)  # (out, in): the layer's weight shape
        grad_b = (
            None if bias_shape is None else flat_grad.sum(axis=0).reshape(bias_shape)
        )
        return grad_x, grad_w, grad_b
