"""The compute kernels behind ``repro.backend.current_backend()``.

The one kernel set IS the historical code path -- its GEMM expression is
character-for-character what ``Conv2dFunction.forward`` inlined before the
kernels were lifted out, so byte-identity tests pin it.  The backward
kernels skip the gradients nobody reads; a part they do compute must not
depend on which other part was skipped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NumpyBackend, current_backend


def test_current_backend_is_one_process_wide_numpy_instance():
    # perfbench/trace.py wraps the kernels on type(current_backend()), so
    # every call must reach the same NumpyBackend instance.
    assert isinstance(current_backend(), NumpyBackend)
    assert current_backend() is current_backend()


def test_numpy_backend_matmul_matches_historical_expression():
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((3, 25, 72)).astype(np.float32)
    w_mat = rng.standard_normal((16, 72)).astype(np.float32)
    out = current_backend().conv_cols_matmul(cols, w_mat)
    assert out.tobytes() == (cols @ w_mat.T).tobytes()


# ---------------------------------------------------------------------------
# Gradient-skipping flags: every (need_input, need_weight) combination

GRAD_FLAGS = [(True, True), (True, False), (False, True)]


def _conv_grad_operands():
    rng = np.random.default_rng(11)
    grad_mat = rng.standard_normal((20, 36, 8)).astype(np.float32)
    cols = rng.standard_normal((20, 36, 27)).astype(np.float32)
    w_mat = rng.standard_normal((8, 27)).astype(np.float32)
    return grad_mat, cols, w_mat, (8, 3, 3, 3)


def _linear_grad_operands(stacked):
    # Stacked (K, N, in) activations are the engine's candidate scoring.
    rng = np.random.default_rng(12)
    lead = (20, 6) if stacked else (20,)
    grad = rng.standard_normal(lead + (5,)).astype(np.float32)
    x = rng.standard_normal(lead + (7,)).astype(np.float32)
    w_t = np.transpose(rng.standard_normal((5, 7)).astype(np.float32))
    return grad, x, w_t, (5,)


def _assert_flag_independence(full, got, flags):
    # A skipped part is None; a computed part has the bytes of the
    # all-flags-on call, whichever other part was skipped.
    for part, needed in zip(got[:2], flags):
        assert (part is None) == (not needed)
    for part, whole in zip(got, full):
        assert part is None or part.tobytes() == whole.tobytes()


@pytest.mark.parametrize("flags", GRAD_FLAGS)
def test_conv_grads_flags_are_independent(flags):
    operands = _conv_grad_operands()
    need_input, need_weight = flags
    full = current_backend().conv_grads(*operands)
    got = current_backend().conv_grads(
        *operands, need_input=need_input, need_weight=need_weight
    )
    _assert_flag_independence(full, got, flags)


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("flags", GRAD_FLAGS)
def test_linear_grads_flags_are_independent(flags, stacked):
    operands = _linear_grad_operands(stacked)
    need_input, need_weight = flags
    full = current_backend().linear_grads(*operands)
    got = current_backend().linear_grads(
        *operands, need_input=need_input, need_weight=need_weight
    )
    _assert_flag_independence(full, got, flags)
    assert got[2] is not None


def test_linear_grads_skips_bias_without_bias_shape():
    grad, x, w_t, _ = _linear_grad_operands(stacked=True)
    assert current_backend().linear_grads(grad, x, w_t, None)[2] is None
