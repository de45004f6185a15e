"""The compute kernels ``repro.autodiff`` delegates to.

``repro.autodiff`` runs its dense inner kernels -- the im2col contraction
(and backward scatter + gradient GEMMs) behind every convolution, the
``Linear`` forward/backward matmuls, and batch-norm statistics and
normalization -- through :func:`current_backend`, looked up at call time.
There is one kernel set, :class:`NumpyBackend`: NumPy kernels that produce
the bytes every golden snapshot and engine digest was recorded against.
The lookup stays a call-time indirection because it is the hook point the
per-kernel tracer (``perfbench/trace.py``) wraps.
"""

from __future__ import annotations

from repro.backend.numpy_backend import NumpyBackend

__all__ = ["NumpyBackend", "current_backend"]

_BACKEND = NumpyBackend()


def current_backend() -> NumpyBackend:
    """The process-wide kernel instance."""
    return _BACKEND
