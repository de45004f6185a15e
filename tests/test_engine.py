"""Evaluation engine: parity, invalidation, eviction and determinism.

The engine's one non-negotiable contract is byte-identity: every logits
array it serves must equal the plain ``module(Tensor(x))`` forward bit for
bit, whatever mix of cache hits, flips, rebinds and evictions preceded it.
Every test here ultimately checks ``tobytes()`` equality, not ``allclose``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.autodiff.tensor import Tensor, no_grad
from repro.engine import (
    ActivationCache,
    EvalEngine,
    batch_enabled,
    compile_plan,
    default_byte_budget,
    disable_batch,
    disable_engine,
    enable_batch,
    enable_engine,
    engine_enabled,
)
from repro.engine.engine import _fingerprint, _FingerprintMemo
from repro.errors import QuantizationError
from repro.models import build_model
from repro.nn import Linear, Module, Sequential
from repro.quant.qmodel import QuantizedModel
from tests.conftest import TinyCNN


@pytest.fixture(autouse=True)
def _restore_engine_flag():
    """Leave the process-global enabled flags exactly as we found them."""
    was = engine_enabled()
    was_batch = batch_enabled()
    yield
    (enable_engine if was else disable_engine)()
    (enable_batch if was_batch else disable_batch)()


def _images(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(np.float32)


def _plain(module, x):
    with no_grad():
        return module(Tensor(x)).data


# ---------------------------------------------------------------------------
# Parity across the model zoo


@pytest.mark.parametrize(
    "name,size",
    [("tinycnn", 16), ("resnet20", 16), ("vgg11", 32)],
)
def test_zoo_parity_and_full_prefix_hit(name, size):
    model = build_model(name, num_classes=4, rng=0)
    model.eval()
    engine = EvalEngine(model)
    assert len(engine.plan) > 1, "zoo models must stage finer than whole-model"
    x = _images((2, 3, size, size))
    assert engine(x).tobytes() == _plain(model, x).tobytes()
    # The repeat call reuses the deepest prefix: the final logits entry.
    again = engine(x)
    assert again.tobytes() == _plain(model, x).tobytes()
    assert engine.cache.stats.hits == 1 and engine.cache.stats.misses == 1


def test_conftest_model_parity(tiny_model):
    tiny_model.eval()
    engine = EvalEngine(tiny_model)
    x = _images((3, 3, 16, 16))
    assert engine(x).tobytes() == _plain(tiny_model, x).tobytes()
    assert engine(Tensor(x)).tobytes() == _plain(tiny_model, x).tobytes()


def test_sequential_fallback_splits_per_child():
    model = Sequential(Linear(6, 5, rng=0), Linear(5, 3, rng=1))
    model.eval()
    plan = compile_plan(model)
    assert len(plan) == 2
    engine = EvalEngine(model)
    x = _images((4, 6))
    assert engine(x).tobytes() == _plain(model, x).tobytes()


def test_whole_model_fallback_is_single_stage():
    class Opaque(Module):
        def __init__(self):
            super().__init__()
            self.fc = Linear(6, 3, rng=0)

        def forward(self, x):
            return self.fc(x).relu() + 1.0

    model = Opaque()
    model.eval()
    plan = compile_plan(model)
    assert len(plan) == 1 and plan.stages[0].name == "forward"
    engine = EvalEngine(model)
    x = _images((2, 6))
    assert engine(x).tobytes() == _plain(model, x).tobytes()


# ---------------------------------------------------------------------------
# Invalidation: flips, rebinds, buffers


def test_flip_reuses_prefix_and_revert_restores_bytes(tiny_model, tiny_quantized):
    tiny_model.eval()
    engine = EvalEngine(tiny_model)
    x = _images((2, 3, 16, 16))
    base = engine(x)
    assert base.tobytes() == _plain(tiny_model, x).tobytes()

    flat = tiny_quantized.offset_of("fc.weight") + 3
    tiny_quantized.apply_bit_flip(flat, 5)
    flipped = engine(x)
    assert flipped.tobytes() == _plain(tiny_model, x).tobytes()
    assert flipped.tobytes() != base.tobytes()
    # Only fc changed, so the probe found the cached pre-fc prefix: a hit.
    assert engine.cache.stats.hits == 1 and engine.cache.stats.misses == 1

    tiny_quantized.apply_bit_flip(flat, 5)  # revert the same bit
    restored = engine(x)
    assert restored.tobytes() == base.tobytes()
    assert engine.cache.stats.hits == 2


def test_conv_flip_invalidates_the_whole_prefix(tiny_model, tiny_quantized):
    tiny_model.eval()
    engine = EvalEngine(tiny_model)
    x = _images((2, 3, 16, 16))
    engine(x)
    tiny_quantized.apply_bit_flip(tiny_quantized.offset_of("conv1.weight"), 4)
    out = engine(x)
    assert out.tobytes() == _plain(tiny_model, x).tobytes()
    # Nothing upstream of conv1 exists, so the second forward is a full miss.
    assert engine.cache.stats.misses == 2 and engine.cache.stats.hits == 0


def test_parameter_rebind_invalidates_dependent_stages(tiny_model):
    tiny_model.eval()
    engine = EvalEngine(tiny_model)
    x = _images((2, 3, 16, 16))
    engine(x)
    tiny_model.fc.weight.data = tiny_model.fc.weight.data * 1.25
    out = engine(x)
    assert out.tobytes() == _plain(tiny_model, x).tobytes()
    assert engine.cache.stats.hits == 1  # pre-fc prefix survived the rebind


def test_buffer_write_invalidates_batchnorm_stages():
    model = build_model("resnet20", num_classes=4, rng=0)
    model.eval()
    engine = EvalEngine(model)
    x = _images((2, 3, 16, 16))
    before = engine(x)
    model.bn1._set_buffer("running_mean", model.bn1.running_mean + 0.5)
    after = engine(x)
    assert after.tobytes() == _plain(model, x).tobytes()
    assert after.tobytes() != before.tobytes()


@settings(max_examples=12, deadline=None)
@given(
    flips=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**9), st.integers(0, 7)),
        max_size=6,
    )
)
def test_randomized_flip_sequences_stay_byte_identical(flips):
    model = TinyCNN(rng=0)
    model.eval()
    qmodel = QuantizedModel(model)
    engine = EvalEngine(model)
    x = _images((2, 3, 16, 16))
    assert engine(x).tobytes() == _plain(model, x).tobytes()
    for raw_index, bit in flips:
        qmodel.apply_bit_flip(raw_index % qmodel.total_params, bit)
        assert engine(x).tobytes() == _plain(model, x).tobytes()


# ---------------------------------------------------------------------------
# Cache mechanics


def test_cache_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        ActivationCache(0)


def test_cache_lru_eviction_order_and_stats():
    cache = ActivationCache(200)
    a, b, c = (np.full(25, v, dtype=np.float32) for v in (1, 2, 3))  # 100 B each
    cache.put("a", a)
    cache.put("b", b)
    assert cache.get("a") is not None  # refresh: "b" becomes the LRU victim
    cache.put("c", c)
    assert cache.keys() == ("a", "c")
    assert cache.get("b") is None
    assert cache.stats.evictions == 1 and cache.stats.evicted_bytes == 100
    assert cache.nbytes == 200


def test_cache_skips_arrays_larger_than_budget_and_serves_read_only():
    cache = ActivationCache(64)
    cache.put("big", np.zeros(1024, dtype=np.float32))
    assert len(cache) == 0
    small = np.zeros(4, dtype=np.float32)
    cache.put("small", small)
    served = cache.get("small")
    assert served.flags.writeable is False
    with pytest.raises(ValueError):
        served[0] = 1.0


def test_engine_stays_byte_identical_under_eviction_pressure(tiny_model):
    tiny_model.eval()
    # Budget fits roughly two-thirds of one forward's activations, so every
    # pass evicts -- correctness must not depend on what survives.
    engine = EvalEngine(tiny_model, byte_budget=50_000)
    batches = [_images((4, 3, 16, 16), seed=s) for s in range(3)]
    for _ in range(2):
        for x in batches:
            assert engine(x).tobytes() == _plain(tiny_model, x).tobytes()
    assert engine.cache.stats.evictions > 0
    assert engine.cache.nbytes <= 50_000


def test_training_mode_bypasses_the_cache(tiny_model):
    tiny_model.train()
    engine = EvalEngine(tiny_model)
    x = _images((2, 3, 16, 16))
    assert engine(x).tobytes() == _plain(tiny_model, x).tobytes()
    assert len(engine.cache) == 0
    assert engine.cache.stats.hits == 0 and engine.cache.stats.misses == 0


# ---------------------------------------------------------------------------
# Fingerprints


def test_fingerprint_covers_dtype_and_shape():
    flat = np.zeros(16, dtype=np.float32)
    assert _fingerprint(flat.reshape(2, 8)) != _fingerprint(flat.reshape(4, 4))
    assert _fingerprint(flat) != _fingerprint(flat.astype(np.float64))
    strided = np.zeros((4, 8), dtype=np.float32)[:, ::2]
    assert _fingerprint(strided) == _fingerprint(np.ascontiguousarray(strided))


def test_fingerprint_memo_is_identity_keyed_and_bounded():
    memo = _FingerprintMemo(capacity=2)
    x = np.arange(12, dtype=np.float32)
    digest = memo.fingerprint(x)
    assert digest == _fingerprint(x)
    assert memo.fingerprint(x) is digest  # served from the memo, not rehashed
    y, z = x.copy(), x + 1.0
    assert memo.fingerprint(y) == digest  # same content, fresh object
    memo.fingerprint(z)
    assert len(memo._entries) == 2  # x rotated out at capacity


# ---------------------------------------------------------------------------
# locate() binary search (satellite)


def test_locate_binary_search_boundaries(tiny_model, tiny_quantized):
    for name, param in tiny_model.named_parameters():
        start = tiny_quantized.offset_of(name)
        assert tiny_quantized.locate(start) == (name, 0)
        assert tiny_quantized.locate(start + param.size - 1) == (name, param.size - 1)
    with pytest.raises(QuantizationError):
        tiny_quantized.locate(-1)
    with pytest.raises(QuantizationError):
        tiny_quantized.locate(tiny_quantized.total_params)


# ---------------------------------------------------------------------------
# Gating, budget, telemetry


def test_engine_flag_toggles():
    enable_engine()
    assert engine_enabled()
    disable_engine()
    assert not engine_enabled()


def test_default_byte_budget_reads_env(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_CACHE_MB", "2.5")
    assert default_byte_budget() == int(2.5 * 1024 * 1024)
    monkeypatch.delenv("REPRO_ENGINE_CACHE_MB")
    assert default_byte_budget() == 64 * 1024 * 1024


@pytest.mark.parametrize("mb", ["-1", "0", "1e-7", "nan"])
def test_cli_rejects_non_positive_engine_cache_budget(mb, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.delenv("REPRO_ENGINE_CACHE_MB", raising=False)
    assert main(["--engine-cache-mb", mb, "devices"]) == 2
    assert "--engine-cache-mb" in capsys.readouterr().err
    assert "REPRO_ENGINE_CACHE_MB" not in os.environ


def test_engine_exports_telemetry_counters(tiny_model):
    tiny_model.eval()
    x = _images((2, 3, 16, 16))
    with telemetry.isolated(enable=True) as (registry, _tracer):
        engine = EvalEngine(tiny_model)
        engine(x)
        engine(x)
        counters = registry.snapshot()["counters"]
    assert counters["engine.cache.miss"] == 1
    assert counters["engine.cache.hit"] == 1
    # The zero add still registers the counter: bench artifacts always
    # export the full engine.cache.* triple.
    assert counters["engine.cache.evicted_bytes"] == 0
    assert engine.counters() == {
        "engine.cache.hit": 1,
        "engine.cache.miss": 1,
        "engine.cache.evicted_bytes": 0,
        "engine.batch.spec_hit": 0,
        "engine.batch.spec_discard": 0,
    }


# ---------------------------------------------------------------------------
# Batched candidate scoring: one stacked suffix forward per round


def _flip_proposals(qmodel, offsets, bit=6):
    """(flat index, new byte value) pairs against the current file state."""
    from repro.quant.bits import flip_bit

    proposals = []
    for offset in offsets:
        index = int(offset) % qmodel.total_params
        name, local = qmodel.locate(index)
        current = qmodel.quantized(name).reshape(-1)[local]
        proposals.append(
            (index, int(flip_bit(np.array([current], dtype=np.int8), bit)[0]))
        )
    return proposals


def _sequential_scores(engine, qmodel, proposals, batches):
    """The reference loop: apply -> engine.forward per batch -> revert."""
    per_batch = [[] for _ in batches]
    for index, value in proposals:
        name, local = qmodel.locate(index)
        tensor = qmodel.quantized(name)
        flat = tensor.reshape(-1)
        previous = flat[local]
        flat[local] = np.int8(value)
        qmodel.set_quantized(name, flat.reshape(tensor.shape))
        for bi, x in enumerate(batches):
            per_batch[bi].append(engine.forward(x).copy())
        flat[local] = previous
        qmodel.set_quantized(name, flat.reshape(tensor.shape))
    return [np.stack(outs) for outs in per_batch]


@pytest.mark.parametrize(
    "name,size",
    [("tinycnn", 16), ("resnet20", 16), ("vgg11", 32)],
)
def test_zoo_batched_scoring_byte_identical(name, size):
    model = build_model(name, num_classes=4, rng=0)
    model.eval()
    qmodel = QuantizedModel(model)
    engine = EvalEngine(model)
    clean = _images((4, 3, size, size), seed=0)
    stamped = _images((4, 3, size, size), seed=1)
    # Spread candidates across the weight file: early conv, middle, head.
    total = qmodel.total_params
    offsets = [0, total // 5, total // 3, total // 2, (2 * total) // 3, total - 1]
    proposals = _flip_proposals(qmodel, offsets)

    expected = _sequential_scores(engine, qmodel, proposals, [clean, stamped])
    before = qmodel.flat_int8().copy()
    got = engine.score_candidates(qmodel, proposals, (clean, stamped))
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
    assert got[0].shape == (len(proposals), 4, 4)
    # The weight file is returned to its exact entry state.
    assert np.array_equal(qmodel.flat_int8(), before)


@settings(max_examples=10, deadline=None)
@given(
    raw=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**9), st.integers(0, 7)),
        min_size=1,
        max_size=8,
    )
)
def test_randomized_batched_proposals_stay_byte_identical(raw):
    model = TinyCNN(rng=0)
    model.eval()
    qmodel = QuantizedModel(model)
    engine = EvalEngine(model)
    x = _images((3, 3, 16, 16))
    proposals = _flip_proposals(
        qmodel, [index for index, _ in raw], bit=raw[0][1]
    )
    expected = _sequential_scores(engine, qmodel, proposals, [x])
    got = engine.score_candidates(qmodel, proposals, x)
    assert got.tobytes() == expected[0].tobytes()


def test_batched_scoring_empty_proposals(tiny_model, tiny_quantized):
    tiny_model.eval()
    engine = EvalEngine(tiny_model)
    x = _images((2, 3, 16, 16))
    out = engine.score_candidates(tiny_quantized, [], x)
    assert out.shape == (0,)
    clean, stamped = engine.score_candidates(tiny_quantized, [], (x, x))
    assert clean.shape == (0,) and stamped.shape == (0,)


def test_batched_scoring_rejects_training_mode(tiny_model, tiny_quantized):
    tiny_model.train()
    engine = EvalEngine(tiny_model)
    proposals = _flip_proposals(tiny_quantized, [0])
    with pytest.raises(ValueError, match="eval mode"):
        engine.score_candidates(tiny_quantized, proposals, _images((2, 3, 16, 16)))


def test_batched_scoring_exports_telemetry_counters(tiny_model, tiny_quantized):
    tiny_model.eval()
    x = _images((2, 3, 16, 16))
    # Two stages touched (conv1 + fc), one of them the head (no suffix).
    offsets = [0, 1, tiny_quantized.offset_of("fc.weight")]
    with telemetry.isolated(enable=True) as (registry, _tracer):
        engine = EvalEngine(tiny_model)
        proposals = _flip_proposals(tiny_quantized, offsets)
        engine.score_candidates(tiny_quantized, proposals, (x, x))
        counters = registry.snapshot()["counters"]
    assert counters["engine.batch.rounds"] == 1
    assert counters["engine.batch.candidates"] == 3
    assert counters["engine.batch.groups"] == 2
    # conv1 group batches a suffix per image batch; the fc group is the head.
    assert counters["engine.batch.suffix_forwards"] == 2


def _commit(qmodel, index, value):
    """Apply one byte change for real (rebinding the module parameter)."""
    name, local = qmodel.locate(int(index))
    tensor = qmodel.quantized(name)
    flat = tensor.reshape(-1)
    previous = flat[local]
    flat[local] = np.int8(value)
    qmodel.set_quantized(name, flat.reshape(tensor.shape))
    return previous


def test_speculation_promotes_winner_byte_identically(tiny_model, tiny_quantized):
    tiny_model.eval()
    engine = EvalEngine(tiny_model)
    x = _images((2, 3, 16, 16))
    proposals = _flip_proposals(tiny_quantized, [0, tiny_quantized.total_params // 2])
    engine.score_candidates(tiny_quantized, proposals, x)
    assert engine._speculation is not None

    index, value = proposals[0]
    _commit(tiny_quantized, index, value)
    assert engine.promote_speculation((index, value)) is True
    assert engine.spec_hits == 1 and engine.spec_discards == 0
    assert engine._speculation is None
    # The promoted entry serves the next forward's prefix; bytes must match
    # a fresh engine (no cache, no speculation) on the committed weights.
    promoted = engine.forward(x)
    fresh = EvalEngine(tiny_model).forward(x)
    assert promoted.tobytes() == fresh.tobytes()


def test_speculation_discarded_when_commit_not_scored(tiny_model, tiny_quantized):
    tiny_model.eval()
    engine = EvalEngine(tiny_model)
    x = _images((2, 3, 16, 16))
    proposals = _flip_proposals(tiny_quantized, [0])
    engine.score_candidates(tiny_quantized, proposals, x)

    # Commit a byte that was never part of the scored round.
    other = _flip_proposals(tiny_quantized, [tiny_quantized.total_params - 1])[0]
    _commit(tiny_quantized, other[0], other[1])
    assert engine.promote_speculation(other) is False
    assert engine.spec_discards == 1
    assert engine.forward(x).tobytes() == EvalEngine(tiny_model).forward(x).tobytes()


def test_speculation_discarded_when_earlier_stage_changed(tiny_model, tiny_quantized):
    tiny_model.eval()
    engine = EvalEngine(tiny_model)
    x = _images((2, 3, 16, 16))
    # Score a head-layer candidate, then also mutate an early conv weight
    # before committing: the prefix signature moved, so the parked buffers
    # are stale and must be dropped.
    head = _flip_proposals(tiny_quantized, [tiny_quantized.offset_of("fc.weight")])
    engine.score_candidates(tiny_quantized, head, x)
    conv_flip = _flip_proposals(tiny_quantized, [0])[0]
    _commit(tiny_quantized, conv_flip[0], conv_flip[1])
    _commit(tiny_quantized, head[0][0], head[0][1])
    assert engine.promote_speculation(head[0]) is False
    assert engine.spec_discards == 1
    assert engine.forward(x).tobytes() == EvalEngine(tiny_model).forward(x).tobytes()


def test_speculation_counters_exported_via_telemetry(tiny_model, tiny_quantized):
    tiny_model.eval()
    x = _images((2, 3, 16, 16))
    with telemetry.isolated(enable=True) as (registry, _tracer):
        engine = EvalEngine(tiny_model)
        proposals = _flip_proposals(tiny_quantized, [0])
        engine.score_candidates(tiny_quantized, proposals, x)
        _commit(tiny_quantized, proposals[0][0], proposals[0][1])
        engine.promote_speculation(proposals[0])
        engine.promote_speculation(proposals[0])  # nothing parked: discard
        counters = registry.snapshot()["counters"]
    assert counters["engine.batch.spec_hit"] == 1
    assert counters["engine.batch.spec_discard"] == 1
    assert engine.counters()["engine.batch.spec_hit"] == 1
    assert engine.counters()["engine.batch.spec_discard"] == 1


def test_stage_index_of_maps_params_and_rejects_strangers(tiny_model):
    from repro.nn.module import Parameter

    plan = compile_plan(tiny_model)
    names = dict(tiny_model.named_parameters())
    stage_names = [stage.name for stage in plan.stages]
    assert stage_names[plan.stage_index_of(names["conv1.weight"])] == "conv1"
    assert stage_names[plan.stage_index_of(names["hidden.bias"])] == "hidden"
    assert stage_names[plan.stage_index_of(names["fc.weight"])] == "fc"
    with pytest.raises(ValueError, match="not read by any stage"):
        plan.stage_index_of(Parameter(np.zeros(3, dtype=np.float32)))


def test_batch_flag_toggles():
    enable_batch()
    assert batch_enabled()
    disable_batch()
    assert not batch_enabled()


def test_attack_selects_identical_flips_with_batching_on_and_off(tmp_path, monkeypatch):
    from repro.core.experiment import SCALE_PRESETS, run_single_experiment

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    scale = SCALE_PRESETS["micro"]
    kwargs = dict(scale=scale, target_class=1, device="K1", seed=0)
    enable_engine()
    disable_batch()
    row_sequential = run_single_experiment("CFT+BR", "tinycnn", **kwargs)
    enable_batch()
    row_batched = run_single_experiment("CFT+BR", "tinycnn", **kwargs)
    assert json.dumps(row_sequential, sort_keys=True) == json.dumps(
        row_batched, sort_keys=True
    )


# ---------------------------------------------------------------------------
# End-to-end determinism: rows must not depend on the engine at all


def test_experiment_rows_identical_with_engine_on_and_off(tmp_path, monkeypatch):
    from repro.core.experiment import SCALE_PRESETS, run_single_experiment

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    scale = SCALE_PRESETS["micro"]
    kwargs = dict(scale=scale, target_class=1, device="K1", seed=0)
    disable_engine()
    row_off = run_single_experiment("CFT+BR", "tinycnn", **kwargs)
    enable_engine()
    row_on = run_single_experiment("CFT+BR", "tinycnn", **kwargs)
    assert json.dumps(row_off, sort_keys=True) == json.dumps(row_on, sort_keys=True)


def test_sweep_rows_identical_across_worker_counts_with_engine(tmp_path, monkeypatch):
    from repro.core.experiment import SCALE_PRESETS, run_method_comparison

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_ENGINE", "1")  # spawn workers re-read these
    monkeypatch.setenv("REPRO_ENGINE_BATCH", "1")
    enable_engine()
    enable_batch()
    scale = SCALE_PRESETS["micro"]
    kwargs = dict(
        dataset="cifar10",
        methods=("CFT", "CFT+BR"),
        scale=scale,
        target_class=1,
        device="K1",
        seed=0,
    )
    inline = run_method_comparison("tinycnn", **kwargs)
    pooled = run_method_comparison("tinycnn", workers=4, **kwargs)
    assert json.dumps(inline, sort_keys=True) == json.dumps(pooled, sort_keys=True)
