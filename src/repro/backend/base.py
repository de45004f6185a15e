"""Backend protocol: the compute kernels ``repro.autodiff`` delegates to.

A backend owns the dense kernels that dominate attack wall-clock: the
im2col contraction (and its backward scatter + gradient GEMMs) behind every
``conv2d``, the ``Linear`` forward/backward matmuls, and the batch-norm
statistics/normalization.  The default
:class:`~repro.backend.numpy_backend.NumpyBackend` reproduces the
historical op sequence bit for bit, so switching it in is invisible to the
golden snapshots; the ``threads`` profile partitions work into panels that
never change any reduction order (byte-identical too, at any thread
count); the ``fast`` profile trades byte-identity for throughput and is
therefore covered by tolerance-based parity tests only, never by the
byte-exact golden suite.

Parameterized selection: a ``REPRO_BACKEND`` value may carry a ``:<param>``
suffix (today only ``threads:N``); :meth:`Backend.from_spec` parses it, and
:attr:`Backend.spec` preserves the full selector for manifests and restore.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import BackendError


class Backend:
    """Base class for compute backends.

    Subclasses set :attr:`name` (the ``REPRO_BACKEND`` family selecting
    them) and :attr:`byte_identical` (whether the backend guarantees the
    exact bytes of the default NumPy op sequence -- golden and digest
    tests only run under byte-identical backends).
    """

    name: str = "base"
    byte_identical: bool = False

    @classmethod
    def from_spec(cls, spec: str) -> "Backend":
        """Build a backend from a full selector (e.g. ``threads:4``).

        The base implementation accepts only the bare family name;
        parameterized backends override this to parse their suffix.
        """
        base, sep, _ = spec.partition(":")
        if sep:
            raise BackendError(
                f"backend {base!r} takes no ':<param>' suffix (got {spec!r})"
            )
        backend = cls()
        backend.spec = spec
        return backend

    @property
    def spec(self) -> str:
        """The full selector this backend was built from (default: name)."""
        return getattr(self, "_spec", self.name)

    @spec.setter
    def spec(self, value: str) -> None:
        self._spec = value

    def close(self) -> None:
        """Release backend-owned resources (thread pools); idempotent."""

    # ------------------------------------------------------------------
    # Convolution kernels
    # ------------------------------------------------------------------
    def conv_cols_matmul(self, cols: np.ndarray, w_mat: np.ndarray) -> np.ndarray:
        """Contract im2col patches with the kernel matrix.

        ``cols`` is ``(N, out_h*out_w, C*kh*kw)`` (one patch row per output
        pixel), ``w_mat`` is ``(out_c, C*kh*kw)``; the result must be
        ``(N, out_h*out_w, out_c)``.
        """
        raise NotImplementedError

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
        raise NotImplementedError

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
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Dense kernels
    # ------------------------------------------------------------------
    def linear(
        self, x: np.ndarray, w_t: np.ndarray, b: Optional[np.ndarray]
    ) -> np.ndarray:
        """Dense forward ``x @ w_t (+ b)``.

        ``w_t`` is the transposed weight ``(in, out)`` -- for the reference
        backend it is the historical transposed *view*, so the GEMM sees the
        exact operand layout the pre-backend code used.  ``x`` may be 2-D
        ``(N, in)`` or carry extra leading axes (the engine's stacked
        candidate scoring broadcasts ``(K, N, in)``).
        """
        raise NotImplementedError

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

        ``grad_w`` must come back in the layer's ``(out, in)`` weight shape;
        ``grad_b`` is ``None`` when ``bias_shape`` is ``None`` (callers pass
        ``None`` to skip the bias reduction).  ``need_input=False`` /
        ``need_weight=False`` skip ``grad_x`` / ``grad_w`` the same way,
        returning ``None`` in their place.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Batch-norm kernels
    # ------------------------------------------------------------------
    def batchnorm_stats(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-channel ``(mean, var)`` of an NCHW batch."""
        raise NotImplementedError

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
        raise NotImplementedError

    def describe(self) -> dict:
        """Metadata exported into bench reports and manifests."""
        return {
            "name": self.name,
            "spec": self.spec,
            "byte_identical": self.byte_identical,
        }
