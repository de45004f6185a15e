"""Compute backend registry and the opt-in ``fast`` profile.

The default ``numpy`` backend IS the historical code path -- its GEMM
expression is character-for-character what ``Conv2dFunction.forward``
inlined before the abstraction existed, so byte-identity tests pin it.
The ``fast`` profile trades that byte-level determinism for a fused
contiguous float32 GEMM, so it is covered by *tolerance* parity only and
explicitly excluded from the golden suites.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor, no_grad
from repro.backend import (
    available_backends,
    backend_name,
    current_backend,
    reset_backend,
    set_backend,
)
from repro.errors import BackendError, ReproError
from tests.conftest import TinyCNN


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-wide backend as it found it."""
    yield
    reset_backend()


def _logits(model, x):
    with no_grad():
        return model(Tensor(x)).data


def _images(seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((4, 3, 16, 16)).astype(np.float32)


# ---------------------------------------------------------------------------
# Registry


def test_registry_lists_all_backends():
    assert set(available_backends()) == {"numpy", "fast", "threads"}


def test_default_backend_is_numpy_and_byte_identical(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    reset_backend()
    backend = current_backend()
    assert backend.name == "numpy"
    assert backend.byte_identical is True
    assert backend_name() == "numpy"


def test_set_backend_switches_and_describes():
    set_backend("fast")
    assert backend_name() == "fast"
    assert current_backend().byte_identical is False
    assert current_backend().describe() == {
        "name": "fast",
        "spec": "fast",
        "byte_identical": False,
    }


def test_unknown_backend_raises_backend_error():
    with pytest.raises(BackendError, match="unknown backend"):
        set_backend("cuda")
    assert issubclass(BackendError, ReproError)


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "fast")
    reset_backend()
    assert backend_name() == "fast"
    monkeypatch.delenv("REPRO_BACKEND")
    reset_backend()
    assert backend_name() == "numpy"


def test_env_var_unknown_backend_raises(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "tpu")
    reset_backend()
    with pytest.raises(BackendError):
        current_backend()


# ---------------------------------------------------------------------------
# Numpy backend: the historical bytes


def test_numpy_backend_matmul_matches_historical_expression():
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((3, 25, 72)).astype(np.float32)
    w_mat = rng.standard_normal((16, 72)).astype(np.float32)
    set_backend("numpy")
    out = current_backend().conv_cols_matmul(cols, w_mat)
    assert out.tobytes() == (cols @ w_mat.T).tobytes()


def test_conv_forward_unchanged_under_default_backend():
    # The backend indirection itself must not perturb conv bytes: a model
    # forward with the backend explicitly set to numpy equals one with the
    # process default untouched.
    model = TinyCNN(rng=0)
    model.eval()
    x = _images()
    reset_backend()
    baseline = _logits(model, x)
    set_backend("numpy")
    assert _logits(model, x).tobytes() == baseline.tobytes()


# ---------------------------------------------------------------------------
# Gradient-skipping flags: every profile, every (need_input, need_weight)

GRAD_FLAGS = [(True, True), (True, False), (False, True)]
FLAG_PROFILES = [
    "threads:1",
    "threads:2",
    pytest.param("fast", marks=pytest.mark.fast_backend),
]


def _conv_grad_operands():
    # 20 samples: three threads panels, so the parallel path runs.
    rng = np.random.default_rng(11)
    grad_mat = rng.standard_normal((20, 36, 8)).astype(np.float32)
    cols = rng.standard_normal((20, 36, 27)).astype(np.float32)
    w_mat = rng.standard_normal((8, 27)).astype(np.float32)
    return grad_mat, cols, w_mat, (8, 3, 3, 3)


def _linear_grad_operands(stacked):
    # Stacked (K, N, in) activations take the threads panel path.
    rng = np.random.default_rng(12)
    lead = (20, 6) if stacked else (20,)
    grad = rng.standard_normal(lead + (5,)).astype(np.float32)
    x = rng.standard_normal(lead + (7,)).astype(np.float32)
    w_t = np.transpose(rng.standard_normal((5, 7)).astype(np.float32))
    return grad, x, w_t, (5,)


def _assert_flag_parity(ref, got, flags, exact):
    for part, needed in zip(ref[:2], flags):
        assert (part is None) == (not needed)
    for want, have in zip(ref, got):
        if want is None:
            assert have is None
        elif exact:
            assert have.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(have, want, rtol=1e-4, atol=1e-4)


@pytest.mark.parametrize("flags", GRAD_FLAGS)
@pytest.mark.parametrize("spec", FLAG_PROFILES)
def test_conv_grads_flags_match_numpy(spec, flags):
    operands = _conv_grad_operands()
    need_input, need_weight = flags
    set_backend("numpy")
    full = current_backend().conv_grads(*operands)
    ref = current_backend().conv_grads(
        *operands, need_input=need_input, need_weight=need_weight
    )
    # A computed part does not depend on whether the other one was skipped.
    for part, whole in zip(ref, full):
        assert part is None or part.tobytes() == whole.tobytes()
    set_backend(spec)
    got = current_backend().conv_grads(
        *operands, need_input=need_input, need_weight=need_weight
    )
    _assert_flag_parity(ref, got, flags, exact=current_backend().byte_identical)


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("flags", GRAD_FLAGS)
@pytest.mark.parametrize("spec", FLAG_PROFILES)
def test_linear_grads_flags_match_numpy(spec, flags, stacked):
    operands = _linear_grad_operands(stacked)
    need_input, need_weight = flags
    set_backend("numpy")
    full = current_backend().linear_grads(*operands)
    ref = current_backend().linear_grads(
        *operands, need_input=need_input, need_weight=need_weight
    )
    for part, whole in zip(ref, full):
        assert part is None or part.tobytes() == whole.tobytes()
    assert ref[2] is not None
    set_backend(spec)
    got = current_backend().linear_grads(
        *operands, need_input=need_input, need_weight=need_weight
    )
    _assert_flag_parity(ref, got, flags, exact=current_backend().byte_identical)


@pytest.mark.parametrize("spec", ["numpy", "threads:2", "fast"])
def test_linear_grads_skips_bias_without_bias_shape(spec):
    grad, x, w_t, _ = _linear_grad_operands(stacked=True)
    set_backend(spec)
    assert current_backend().linear_grads(grad, x, w_t, None)[2] is None


# ---------------------------------------------------------------------------
# Fast backend: tolerance parity only (separately marked, never golden)


@pytest.mark.fast_backend
def test_fast_backend_tolerance_parity_on_model_forward():
    model = TinyCNN(rng=0)
    model.eval()
    x = _images()
    set_backend("numpy")
    reference = _logits(model, x)
    set_backend("fast")
    fast = _logits(model, x)
    assert fast.shape == reference.shape and fast.dtype == np.float32
    np.testing.assert_allclose(fast, reference, rtol=1e-4, atol=1e-5)


@pytest.mark.fast_backend
def test_fast_backend_tolerance_parity_on_batched_scoring():
    from repro.engine import EvalEngine
    from repro.quant.bits import flip_bit
    from repro.quant.qmodel import QuantizedModel

    model = TinyCNN(rng=0)
    model.eval()
    qmodel = QuantizedModel(model)
    x = _images()
    proposals = []
    for offset in (0, qmodel.total_params // 2, qmodel.total_params - 1):
        name, local = qmodel.locate(offset)
        current = qmodel.quantized(name).reshape(-1)[local]
        proposals.append(
            (offset, int(flip_bit(np.array([current], dtype=np.int8), 6)[0]))
        )

    set_backend("numpy")
    reference = EvalEngine(model).score_candidates(qmodel, proposals, x)
    set_backend("fast")
    fast = EvalEngine(model).score_candidates(qmodel, proposals, x)
    np.testing.assert_allclose(fast, reference, rtol=1e-4, atol=1e-5)


@pytest.mark.fast_backend
def test_fast_backend_output_is_contiguous_float32():
    rng = np.random.default_rng(1)
    cols = rng.standard_normal((2, 9, 27)).astype(np.float32)
    w_mat = rng.standard_normal((8, 27)).astype(np.float32)
    set_backend("fast")
    out = current_backend().conv_cols_matmul(cols, w_mat)
    assert out.shape == (2, 9, 8)
    assert out.dtype == np.float32
    np.testing.assert_allclose(out, cols @ w_mat.T, rtol=1e-5, atol=1e-6)


@pytest.mark.fast_backend
def test_fast_backend_cft_training_step_tolerance_parity():
    """A full CFT fine-tune run (forward + backward) under ``fast``.

    The training path now routes its dense forward, all backward GEMMs,
    the col2im scatter and batch-norm through the backend; the loss
    trajectory under ``fast`` must track the reference within tolerance.
    """
    from repro.attacks import AttackConfig, CFTAttack
    from repro.data.dataset import ArrayDataset
    from repro.nn import BatchNorm2d, Conv2d, GlobalAvgPool2d, Module
    from repro.nn import Linear as NNLinear
    from repro.quant.qmodel import QuantizedModel

    class BNNet(Module):
        def __init__(self, rng=0):
            super().__init__()
            self.conv = Conv2d(3, 4, 3, padding=1, rng=rng)
            self.bn = BatchNorm2d(4)
            self.pool = GlobalAvgPool2d()
            self.fc = NNLinear(4, 4, rng=rng)

        def forward(self, x):
            return self.fc(self.pool(self.bn(self.conv(x)).relu()))

    rng = np.random.default_rng(7)
    data = ArrayDataset(
        rng.random((16, 3, 8, 8), dtype=np.float32),
        rng.integers(0, 4, size=16),
    )
    config = AttackConfig(
        target_class=1, iterations=3, n_flip_budget=1, batch_size=8,
        trigger_size=3, seed=0,
    )

    set_backend("numpy")
    reference = CFTAttack(config, strategy="sgd").run(QuantizedModel(BNNet(rng=0)), data)
    set_backend("fast")
    fast = CFTAttack(config, strategy="sgd").run(QuantizedModel(BNNet(rng=0)), data)

    assert len(fast.loss_history) == len(reference.loss_history)
    np.testing.assert_allclose(
        fast.loss_history, reference.loss_history, rtol=1e-3, atol=1e-4
    )


# ---------------------------------------------------------------------------
# Threads backend: byte-identical at any thread count


def test_threads_spec_parses_worker_count():
    backend = set_backend("threads:3")
    assert backend.name == "threads"
    assert backend.workers == 3
    assert backend.spec == "threads:3"
    info = backend.describe()
    assert info["threads"] == 3
    assert info["byte_identical"] is True
    assert info["panel_samples"] >= 1


def test_threads_bare_spec_uses_cpu_count():
    import os

    backend = set_backend("threads")
    assert backend.workers == (os.cpu_count() or 1)
    assert backend.spec == "threads"


@pytest.mark.parametrize("spec", ["threads:x", "threads:", "threads:1:2"])
def test_threads_invalid_spec_raises(spec):
    with pytest.raises(BackendError):
        set_backend(spec)


def test_unparameterized_backend_rejects_param_suffix():
    with pytest.raises(BackendError, match="no ':<param>' suffix"):
        set_backend("numpy:2")


def test_set_backend_closes_previous_backend():
    backend = set_backend("threads:2")
    backend._ensure_pool()
    assert backend._pool is not None
    set_backend("numpy")
    assert backend._pool is None


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize(
    ("model_name", "width"), [("tinycnn", 1.0), ("resnet20", 1.0), ("vgg11", 0.25)]
)
def test_threads_forward_backward_byte_identical(model_name, width, workers):
    """threads:N reproduces the reference bytes, forward and backward.

    Batch 9 forces multiple panels (panel width 8), so the parallel path
    is actually exercised rather than the single-panel fallback.
    """
    from repro.models import build_model

    rng = np.random.default_rng(3)
    x = rng.standard_normal((9, 3, 32, 32)).astype(np.float32)

    def run():
        model = build_model(model_name, num_classes=4, width=width, rng=0)
        model.eval()
        out = model(Tensor(x, requires_grad=True))
        loss = (out * out).sum()
        loss.backward()
        grads = {
            name: p.grad.tobytes()
            for name, p in model.named_parameters()
            if p.grad is not None
        }
        return out.data.tobytes(), grads

    set_backend("numpy")
    ref_out, ref_grads = run()
    set_backend(f"threads:{workers}")
    thr_out, thr_grads = run()
    assert thr_out == ref_out
    assert set(thr_grads) == set(ref_grads)
    for name in ref_grads:
        assert thr_grads[name] == ref_grads[name], name


def test_threads_batched_scoring_matches_numpy_bytes():
    from repro.engine import EvalEngine
    from repro.quant.bits import flip_bit
    from repro.quant.qmodel import QuantizedModel

    model = TinyCNN(rng=0)
    model.eval()
    qmodel = QuantizedModel(model)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((9, 3, 16, 16)).astype(np.float32)
    proposals = []
    for offset in (0, qmodel.total_params // 2, qmodel.total_params - 1):
        name, local = qmodel.locate(offset)
        current = qmodel.quantized(name).reshape(-1)[local]
        proposals.append(
            (offset, int(flip_bit(np.array([current], dtype=np.int8), 6)[0]))
        )

    set_backend("numpy")
    reference = EvalEngine(model).score_candidates(qmodel, proposals, x)
    set_backend("threads:2")
    threaded = EvalEngine(model).score_candidates(qmodel, proposals, x)
    assert threaded.tobytes() == reference.tobytes()


def test_threads_golden_pipeline_row_unchanged(tiny_dataset, tiny_test_dataset):
    """The full seeded pipeline under threads equals the golden snapshot."""
    import json

    from tests.test_golden_pipeline import GOLDEN_PATH, _run_seeded_pipeline

    set_backend("threads:2")
    row = _run_seeded_pipeline(tiny_dataset, tiny_test_dataset)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert row == golden


def test_threads_counts_gemm_calls_and_panels():
    set_backend("threads:2")
    backend = current_backend()
    rng = np.random.default_rng(2)
    cols = rng.standard_normal((17, 10, 12)).astype(np.float32)
    w_mat = rng.standard_normal((6, 12)).astype(np.float32)
    backend.conv_cols_matmul(cols, w_mat)
    assert backend.gemm_calls == 1
    assert backend.gemm_panels == 3  # ceil(17 / 8)
    assert backend.gemm_ns > 0


# ---------------------------------------------------------------------------
# CLI surface


@pytest.mark.parametrize("spec", ["bogus", "threads:x", "threads:", "numpy:4"])
def test_cli_rejects_invalid_backend_spec(spec, capsys):
    from repro.cli import main

    assert main(["--backend", spec, "devices"]) == 2
    assert "--backend:" in capsys.readouterr().err


def test_cli_backend_flag_mirrors_env_for_spawn_workers(monkeypatch, capsys):
    import os

    from repro.cli import main

    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert main(["--backend", "threads:2", "devices"]) == 0
    capsys.readouterr()
    assert os.environ["REPRO_BACKEND"] == "threads:2"
    assert backend_name() == "threads"
