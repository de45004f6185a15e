"""The ``threads`` profile: panel-threaded kernels, byte-identical by design.

Opt-in via ``REPRO_BACKEND=threads`` (pool sized to the CPU count) or
``threads:N``.  Unlike ``fast``, this profile keeps the byte-identity
contract at any thread count, so it runs under the golden suite and the
engine digest hard-fails.  The scheme that makes that possible:

- Work is cut into **panels along the leading (sample/candidate) axis**
  only.  The reference backend's 3-D GEMMs already run one independent
  2-D GEMM per leading slice (the gufunc batch loop), so slicing that axis
  cannot change any slice's operands -- panel outputs are the reference
  bytes on *any* BLAS, not just the one this repo was recorded against.
- A panel never splits a single GEMM's row or reduction (K) axis, and
  panels write disjoint slices of a preallocated output -- there is no
  cross-thread reduction, so the per-panel reduction order is fixed and
  results are independent of the thread count and of scheduling.
- Kernels whose reference expression reduces *across* samples (the weight
  gradients, batch-norm statistics) are left monolithic: splitting them
  would reassociate a float sum.  2-D dense forwards are likewise left
  monolithic -- the engine's lift-to-leading-axis scoring relies on 2-D
  GEMMs keeping exactly the sequential path's shape.

The panel width is a fixed constant (not derived from the worker count) so
``threads:1`` and ``threads:8`` decompose identically; only *who* computes
a panel changes.  NumPy releases the GIL inside BLAS calls and the
scatter-add loop's ufuncs, which is where the parallel win comes from.

Telemetry: ``backend.gemm.calls`` / ``backend.gemm.panels`` counters (both
deterministic) and the ``backend.gemm.pool_size`` gauge are emitted when
telemetry is enabled; wall-clock nanoseconds accumulate on the instance
(``gemm_ns``) and are only exported by ``repro bench`` (as the
``backend.gemm.ns_per_call`` gauge), never from inside sweep tasks, so
merged-metrics byte-identity is preserved.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.backend.numpy_backend import NumpyBackend
from repro.errors import BackendError

# Leading-axis slices per panel.  Fixed (never a function of the worker
# count) so the decomposition -- and therefore the bytes -- is identical
# under threads:1 and threads:N; small enough that micro-scale batches
# (64 samples, 16-24 candidates) still fan out across a pool.
SAMPLE_PANEL = 8


class ThreadsBackend(NumpyBackend):
    """Panel-parallel reference kernels; byte-identical at any thread count."""

    name = "threads"
    byte_identical = True

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise BackendError(f"threads backend needs >= 1 worker, got {workers}")
        self.workers = int(workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self.gemm_calls = 0
        self.gemm_panels = 0
        self.gemm_ns = 0

    @classmethod
    def from_spec(cls, spec: str) -> "ThreadsBackend":
        _, sep, param = spec.partition(":")
        if sep:
            try:
                workers = int(param)
            except ValueError:
                raise BackendError(
                    f"invalid backend spec {spec!r}: expected threads or threads:<N>"
                ) from None
            backend = cls(workers)
        else:
            backend = cls()
        backend.spec = spec
        return backend

    def describe(self) -> dict:
        info = super().describe()
        info["threads"] = self.workers
        info["panel_samples"] = SAMPLE_PANEL
        return info

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            # wait=False: safe after fork, where inherited worker threads no
            # longer exist and could never be joined.
            pool.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Panel executor
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-gemm"
            )
            if telemetry.enabled():
                telemetry.gauge_set("backend.gemm.pool_size", self.workers)
        return self._pool

    def _run_panels(self, count: int, run: Callable[[int], None]) -> None:
        """Execute ``run(panel)`` for ``count`` disjoint panels.

        Panels write non-overlapping output slices, so execution order is
        free; inline when there is nothing to overlap.
        """
        self.gemm_calls += 1
        self.gemm_panels += count
        if telemetry.enabled():
            telemetry.counter_add("backend.gemm.calls")
            telemetry.counter_add("backend.gemm.panels", count)
        start = time.perf_counter_ns()
        if count <= 1 or self.workers <= 1:
            for panel in range(count):
                run(panel)
        else:
            pool = self._ensure_pool()
            futures = [pool.submit(run, panel) for panel in range(count)]
            for future in futures:
                future.result()
        self.gemm_ns += time.perf_counter_ns() - start

    @staticmethod
    def _panel_bounds(panel: int, n: int) -> Tuple[int, int]:
        start = panel * SAMPLE_PANEL
        return start, min(n, start + SAMPLE_PANEL)

    @staticmethod
    def _panel_count(n: int) -> int:
        return (n + SAMPLE_PANEL - 1) // SAMPLE_PANEL

    # ------------------------------------------------------------------
    # Convolution
    # ------------------------------------------------------------------
    def conv_cols_matmul(self, cols: np.ndarray, w_mat: np.ndarray) -> np.ndarray:
        n = cols.shape[0]
        count = self._panel_count(n)
        if count <= 1:
            return super().conv_cols_matmul(cols, w_mat)
        w_t = w_mat.T
        out = np.empty(
            (n, cols.shape[1], w_mat.shape[0]),
            dtype=np.result_type(cols.dtype, w_mat.dtype),
        )

        def run(panel: int) -> None:
            a, b = self._panel_bounds(panel, n)
            out[a:b] = cols[a:b] @ w_t

        self._run_panels(count, run)
        return out

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
        n = grad_mat.shape[0]
        count = self._panel_count(n)
        if count <= 1 or not need_input:
            return super().conv_grads(
                grad_mat, cols, w_mat, weight_shape,
                need_input=need_input, need_weight=need_weight,
            )
        grad_cols = np.empty(
            (n, grad_mat.shape[1], w_mat.shape[1]),
            dtype=np.result_type(grad_mat.dtype, w_mat.dtype),
        )

        def run(panel: int) -> None:
            a, b = self._panel_bounds(panel, n)
            grad_cols[a:b] = grad_mat[a:b] @ w_mat

        self._run_panels(count, run)
        # The weight gradient reduces across samples; stay monolithic so the
        # einsum's accumulation order is the reference one.
        _, grad_w = super().conv_grads(
            grad_mat, cols, w_mat, weight_shape, need_input=False, need_weight=need_weight
        )
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
        n, c, h, w = x_shape
        count = self._panel_count(n)
        if count <= 1:
            return super().im2col_backward(
                cols, x_shape, kh, kw, stride, padding, out_h, out_w
            )
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
        shaped = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)

        def run(panel: int) -> None:
            a, b = self._panel_bounds(panel, n)
            # Same (i, j) add order per element as the reference loop; the
            # scatter targets of different panels are disjoint sample rows.
            for i in range(kh):
                i_end = i + stride * out_h
                for j in range(kw):
                    j_end = j + stride * out_w
                    padded[a:b, :, i:i_end:stride, j:j_end:stride] += shaped[
                        a:b, :, :, :, i, j
                    ]

        self._run_panels(count, run)
        if padding:
            return padded[:, :, padding:-padding, padding:-padding]
        return padded

    # ------------------------------------------------------------------
    # Dense
    # ------------------------------------------------------------------
    def linear(
        self, x: np.ndarray, w_t: np.ndarray, b: Optional[np.ndarray]
    ) -> np.ndarray:
        # 2-D stays monolithic: splitting rows would hand BLAS a different M
        # per call, and the engine's candidate lifting pins 2-D GEMM shapes.
        if x.ndim < 3:
            return super().linear(x, w_t, b)
        n = x.shape[0]
        count = self._panel_count(n)
        if count <= 1:
            return super().linear(x, w_t, b)
        out = np.empty(
            x.shape[:-1] + (w_t.shape[-1],), dtype=np.result_type(x.dtype, w_t.dtype)
        )

        def run(panel: int) -> None:
            a, bnd = self._panel_bounds(panel, n)
            out[a:bnd] = x[a:bnd] @ w_t

        self._run_panels(count, run)
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
        count = self._panel_count(grad.shape[0]) if grad.ndim >= 3 else 1
        if count <= 1 or not need_input:
            return super().linear_grads(
                grad, x, w_t, bias_shape, need_input=need_input, need_weight=need_weight
            )
        n = grad.shape[0]
        w = np.swapaxes(w_t, -1, -2)
        grad_x = np.empty(x.shape, dtype=np.result_type(grad.dtype, w_t.dtype))

        def run(panel: int) -> None:
            a, b = self._panel_bounds(panel, n)
            grad_x[a:b] = grad[a:b] @ w

        self._run_panels(count, run)
        # Weight/bias gradients reduce across the leading axis: monolithic.
        _, grad_w, grad_b = super().linear_grads(
            grad, x, w_t, bias_shape, need_input=False, need_weight=need_weight
        )
        return grad_x, grad_w, grad_b
