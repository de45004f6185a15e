"""Oracles for the engine's stamped twins and its content-keyed signatures.

``EvalEngine.stamp(trigger, clean)`` returns ``trigger.apply(clean)`` and
remembers it as ``clean``'s stamped twin: its windowed stages run on the
trigger's cone over ``clean``'s cached stage outputs.  The contract is
byte identity with the plain ``no_grad`` forward, for ``forward`` and for
candidate-stacked ``score_candidates``, and a fall back to the full stage
wherever a premise of the crop fails.

Stage signatures key parameters on their bytes, so a weight that returns
to bytes it held before finds the activations cached for them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, cone, no_grad
from repro.core.training import _evaluation_splits
from repro.data.trigger import TriggerPattern
from repro.engine import EvalEngine
from repro.engine.plan import compile_plan
from repro.models import build_model
from repro.nn.module import Parameter, content_digest
from repro.quant.bits import flip_bit
from repro.quant.qmodel import QuantizedModel

CORNERS = ("bottom_right", "top_left", "top_right", "bottom_left")
WIDTHS = {"tinycnn": 1.0, "resnet20": 0.25, "vgg11": 0.25}
BATCHES = (1, 2, 44, 64, 256)


@pytest.fixture(scope="module")
def test_images():
    """The 32x32 CIFAR-like test split (at least 256 images)."""
    images = _evaluation_splits("cifar10", 0)[0].images
    assert len(images) >= max(BATCHES)
    return images


def _model(name):
    model = build_model(name, num_classes=10, width=WIDTHS[name], rng=0)
    model.eval()
    return model


_models = {}


def _shared_model(name):
    if name not in _models:
        _models[name] = _model(name)
    return _models[name]


def _plain(model, x):
    with no_grad():
        return model(Tensor(x)).data


def _trigger(shape, size, corner, seed):
    trigger = TriggerPattern.square(shape, size, corner=corner)
    pattern = np.random.default_rng(seed).random(trigger.mask.shape, dtype=np.float32)
    trigger.pattern = np.where(trigger.mask, pattern, 0).astype(np.float32)
    return trigger


class _Windows:
    """Counts the stages the engine runs on the cone."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = cone.run_window

        def counting(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cone, "run_window", counting)


def _stamped_logits(engine, clean, trigger):
    """Clean forward (caches the twin's bases), then the stamped twin's."""
    engine.forward(clean)
    return engine.forward(engine.stamp(trigger, clean))


# -- forward -------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WIDTHS))
@settings(max_examples=5, deadline=None)
@given(
    batch=st.sampled_from(BATCHES),
    size=st.integers(1, 16),
    corner=st.sampled_from(CORNERS),
    seed=st.integers(0, 2**16),
)
def test_stamped_twin_forward_is_byte_identical_to_the_plain_forward(
    name, batch, size, corner, seed, test_images
):
    model = _shared_model(name)
    start = np.random.default_rng(seed).integers(0, len(test_images) - batch + 1)
    clean = test_images[start : start + batch]
    trigger = _trigger(clean.shape[1:], size, corner, seed)
    engine = EvalEngine(model)
    got = _stamped_logits(engine, clean, trigger)
    assert got.tobytes() == _plain(model, trigger.apply(clean)).tobytes()
    # A second pass is a full cache hit on the same bytes.
    assert engine.forward(engine.stamp(trigger, clean)).tobytes() == got.tobytes()


@pytest.mark.parametrize("name", sorted(WIDTHS))
@pytest.mark.parametrize("batch", BATCHES)
def test_the_benchmark_geometry_runs_on_the_cone(name, batch, test_images, monkeypatch):
    model = _shared_model(name)
    clean = test_images[:batch]
    trigger = _trigger(clean.shape[1:], 10, "bottom_right", 0)
    windows = _Windows(monkeypatch)
    engine = EvalEngine(model)
    got = _stamped_logits(engine, clean, trigger)
    assert got.tobytes() == _plain(model, trigger.apply(clean)).tobytes()
    # At n = 1 windows may fail the stacked-GEMM check (three of resnet20's
    # six do), and vgg11's 256-row clean pass (about 84 MB) outgrows the
    # 64 MiB cache, which evicts its early stage outputs: those stamped
    # stages run in full.
    if batch > 1 and (name, batch) != ("vgg11", 256):
        assert windows.count > 0


def test_a_stamped_batch_without_its_clean_twin_cached_runs_in_full(
    test_images, monkeypatch
):
    model = _shared_model("resnet20")
    clean = test_images[:64]
    trigger = _trigger(clean.shape[1:], 10, "bottom_right", 1)
    windows = _Windows(monkeypatch)
    engine = EvalEngine(model)
    stamped = engine.stamp(trigger, clean)
    assert engine.twin_of(stamped) is not None
    assert engine.forward(stamped).tobytes() == _plain(model, stamped).tobytes()
    assert windows.count == 0


# -- candidate-stacked scoring -------------------------------------------------
def _proposals(qmodel, names, rng, per_name=2, bit=6):
    """Single-bit proposals spread over the named weight tensors."""
    proposals = []
    for name in names:
        start, size = qmodel.offset_of(name), qmodel.quantized(name).size
        for local in rng.choice(size, size=min(per_name, size), replace=False):
            value = qmodel.quantized(name).reshape(-1)[local]
            proposals.append(
                (start + int(local), int(flip_bit(np.array([value], dtype=np.int8), bit)[0]))
            )
    return proposals


def _sequential(model, qmodel, proposals, batches):
    """The reference: apply -> plain forward per batch -> revert."""
    per_batch = [[] for _ in batches]
    for index, value in proposals:
        name, local = qmodel.locate(index)
        tensor = qmodel.quantized(name)
        flat = tensor.reshape(-1)
        previous = flat[local]
        flat[local] = np.int8(value)
        qmodel.set_quantized(name, flat.reshape(tensor.shape))
        for bi, x in enumerate(batches):
            per_batch[bi].append(_plain(model, x))
        flat[local] = previous
        qmodel.set_quantized(name, flat.reshape(tensor.shape))
    return [np.stack(outs) for outs in per_batch]


@pytest.mark.parametrize("name", sorted(WIDTHS))
@settings(max_examples=3, deadline=None)
@given(
    size=st.integers(2, 12),
    corner=st.sampled_from(CORNERS),
    seed=st.integers(0, 2**16),
)
def test_stacked_scoring_of_a_stamped_twin_is_byte_identical(
    name, size, corner, seed, test_images
):
    model = _model(name)  # scoring writes weights: a private model
    qmodel = QuantizedModel(model)
    rng = np.random.default_rng(seed)
    clean = test_images[:64]
    trigger = _trigger(clean.shape[1:], size, corner, seed)
    # Candidates in the leading (windowed) layers and in the head.
    names = qmodel.parameter_names
    convs = [n for n in names if n.endswith("weight") and qmodel.quantized(n).ndim == 4]
    proposals = _proposals(qmodel, convs[:4] + [names[-2]], rng)
    engine = EvalEngine(model)
    engine.forward(clean)
    stamped = engine.stamp(trigger, clean)
    engine.forward(stamped)
    before = qmodel.flat_int8().copy()
    got = engine.score_candidates(qmodel, proposals, (clean, stamped))
    expected = _sequential(model, qmodel, proposals, [clean, stamped])
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
    assert np.array_equal(qmodel.flat_int8(), before)


def test_stacked_scoring_runs_the_twin_on_the_cone_per_candidate_slice(
    test_images, monkeypatch
):
    model = _model("resnet20")
    qmodel = QuantizedModel(model)
    clean = test_images[:64]
    trigger = _trigger(clean.shape[1:], 10, "bottom_right", 2)
    proposals = _proposals(qmodel, [qmodel.parameter_names[0]], np.random.default_rng(0), 3)
    engine = EvalEngine(model)
    engine.forward(clean)
    stamped = engine.stamp(trigger, clean)
    engine.forward(stamped)
    ran = []
    original = cone.stacked_gemm_matches

    def recording(n, conv):
        ran.append(n)
        return original(n, conv)

    windows = _Windows(monkeypatch)
    monkeypatch.setattr(cone, "stacked_gemm_matches", recording)
    got = engine.score_candidates(qmodel, proposals, (clean, stamped))
    expected = _sequential(model, qmodel, proposals, [clean, stamped])
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
    # Six windowed stages (the stem, stage 1, two stage-2 blocks) per
    # candidate, and no probe at the stacked K * 64 rows.
    assert windows.count == 6 * len(proposals)
    assert all(n == 64 for n in ran)


# -- fallbacks: each gives the plain forward's bytes ----------------------------
def _fallback(model, clean, trigger, monkeypatch):
    windows = _Windows(monkeypatch)
    engine = EvalEngine(model)
    got = _stamped_logits(engine, clean, trigger)
    assert got.tobytes() == _plain(model, trigger.apply(clean)).tobytes()
    return windows.count, engine


def test_a_pixel_clipped_outside_the_box_takes_the_full_pass(test_images, monkeypatch):
    clean = test_images[:64].copy()
    clean[5, :, 0, 0] = 1.5  # clipped by the stamp, far from the trigger
    trigger = _trigger(clean.shape[1:], 10, "bottom_right", 3)
    count, engine = _fallback(_shared_model("resnet20"), clean, trigger, monkeypatch)
    assert count == 0 and not engine._twins


def test_a_trigger_covering_the_map_takes_the_full_pass(test_images, monkeypatch):
    clean = test_images[:64]
    trigger = _trigger(clean.shape[1:], 32, "bottom_right", 4)
    count, engine = _fallback(_shared_model("resnet20"), clean, trigger, monkeypatch)
    assert count == 0 and not engine._twins


def test_train_mode_takes_the_full_pass(test_images, monkeypatch):
    # tinycnn has no batch norm, so train mode leaves the plain bytes equal.
    model = _model("tinycnn")
    clean = test_images[:64]
    trigger = _trigger(clean.shape[1:], 10, "bottom_right", 5)
    engine = EvalEngine(model)
    engine.forward(clean)
    stamped = engine.stamp(trigger, clean)  # planned in eval mode
    model.train()
    windows = _Windows(monkeypatch)
    assert engine.forward(stamped).tobytes() == _plain(model, stamped).tobytes()
    assert engine.twin_of(engine.stamp(trigger, clean)) is None  # none kept in train mode
    assert windows.count == 0


def test_a_failed_probe_takes_the_full_pass(test_images, monkeypatch):
    monkeypatch.setattr(cone, "stacked_gemm_matches", lambda n, conv: False)
    clean = test_images[:64]
    trigger = _trigger(clean.shape[1:], 10, "bottom_right", 6)
    count, engine = _fallback(_shared_model("resnet20"), clean, trigger, monkeypatch)
    assert count == 0 and not engine._twins


def test_a_stage_that_fails_the_probe_runs_full_map(test_images, monkeypatch):
    # The stem fails; the blocks after it still run on crops.
    passes = cone.stacked_gemm_matches
    monkeypatch.setattr(cone, "stacked_gemm_matches",
                        lambda n, conv: conv.k != 27 and passes(n, conv))
    clean = test_images[:64]
    trigger = _trigger(clean.shape[1:], 10, "bottom_right", 7)
    count, _ = _fallback(_shared_model("resnet20"), clean, trigger, monkeypatch)
    assert count == 5


# -- the one planner -----------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WIDTHS))
@pytest.mark.parametrize("size,corner", [(10, "bottom_right"), (3, "top_left"), (7, "top_right")])
def test_the_one_sample_plan_equals_the_plan_of_a_taped_batch(name, size, corner, test_images):
    """A window depends on geometry only: a zero image plans what a batch does."""
    plan = compile_plan(_shared_model(name))
    box = cone.bounding_box(_trigger(test_images.shape[1:], size, corner, 0).mask)
    x, reference, at = Tensor(test_images[:8], requires_grad=True), [], box
    for stage in plan.stages:
        if at is None:
            break
        y = stage.fn(x)
        window, at = cone.plan_stage(x, y, at)
        reference.append(window)
        x = y
    assert cone.plan(plan.stages, test_images.shape[1:], box) == reference


# -- content-keyed signatures --------------------------------------------------
class _Stages:
    """Records which stages the engine computes."""

    def __init__(self, monkeypatch):
        self.ran = []
        original = EvalEngine.run_stage

        def recording(engine, index, *args, **kwargs):
            self.ran.append(index)
            return original(engine, index, *args, **kwargs)

        monkeypatch.setattr(EvalEngine, "run_stage", recording)


def test_parameter_digest_follows_content_and_is_memoized_per_version():
    param = Parameter(np.arange(6, dtype=np.float32))
    digest = param.digest()
    assert digest == content_digest(param.data)
    assert param.digest() is digest  # memoized: not rehashed
    version = param.version
    param.data = param.data.copy()
    assert param.version == version + 1 and param.digest() == digest
    param.data = param.data.reshape(2, 3)
    assert param.digest() != digest  # the shape is part of the content
    param.data = np.arange(6, dtype=np.float64)
    assert param.digest() != digest  # and so is the dtype


@pytest.mark.parametrize("name", ["tinycnn", "resnet20"])
def test_apply_then_revert_hits_on_every_stage(name, test_images, monkeypatch):
    model = _model(name)
    qmodel = QuantizedModel(model)
    engine = EvalEngine(model)
    x = test_images[:8]
    base = engine.forward(x)
    params = dict(model.named_parameters())
    stages = _Stages(monkeypatch)
    for pname in qmodel.parameter_names:
        stage = engine.plan.stage_index_of(params[pname])
        offset = qmodel.offset_of(pname)
        qmodel.apply_bit_flip(offset, 6)
        stages.ran.clear()
        assert engine.forward(x).tobytes() == _plain(model, x).tobytes()
        assert stages.ran == list(range(stage, len(engine.plan)))  # misses from its stage on
        qmodel.apply_bit_flip(offset, 6)  # revert: the earlier bytes again
        stages.ran.clear()
        assert engine.forward(x).tobytes() == base.tobytes()
        assert stages.ran == []  # every stage served from the cache


def test_a_rebind_to_equal_bytes_hits(test_images, monkeypatch):
    model = _model("resnet20")
    engine = EvalEngine(model)
    x = test_images[:8]
    base = engine.forward(x)
    for _, param in model.named_parameters():
        param.data = param.data.copy()
    stages = _Stages(monkeypatch)
    assert engine.forward(x).tobytes() == base.tobytes()
    assert stages.ran == []
    assert engine.cache.stats.hits == 1


def test_one_changed_byte_misses_from_its_stage_on(test_images, monkeypatch):
    model = _model("resnet20")
    engine = EvalEngine(model)
    x = test_images[:8]
    engine.forward(x)
    param = model.stages.m1.m0.conv1.weight
    stage = engine.plan.stage_index_of(param)
    data = param.data.copy()
    data.reshape(-1).view(np.uint8)[0] ^= 1  # one byte of one weight
    param.data = data
    stages = _Stages(monkeypatch)
    assert engine.forward(x).tobytes() == _plain(model, x).tobytes()
    assert stages.ran == list(range(stage, len(engine.plan)))
