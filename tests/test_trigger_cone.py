"""Oracles for the trigger's cone in CFT trigger steps.

A trigger step's stamped pass may recompute only the cone of the trigger
(:mod:`repro.autodiff.cone`): each leading stage runs on a crop of its
input over cached clean activations.  Its contract is byte identity with
the full ``attack_loss_and_grads`` on the loss and on ``trigger_grad``
inside the trigger mask, for every zoo architecture, batch size and
trigger placement, and a fall back to the full pass wherever the crop's
premises fail.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import AttackConfig, CFTAttack
from repro.attacks import cft as cft_module
from repro.attacks.objective import attack_loss_and_grads
from repro.autodiff import Tensor, cone, no_grad
from repro.autodiff.conv import max_pool2d
from repro.backend import current_backend
from repro.core.training import _evaluation_splits
from repro.data.trigger import TriggerPattern
from repro.engine.plan import compile_plan
from repro.errors import AttackError
from repro.models import build_model
from repro.nn import Conv2d
from repro.quant.qmodel import QuantizedModel

CORNERS = ("bottom_right", "top_left", "top_right", "bottom_left")
WIDTHS = {"tinycnn": 1.0, "resnet20": 0.25, "vgg11": 0.25}


@pytest.fixture(scope="module")
def attacker_images():
    """The 128 CIFAR-like attacker images (Section V-A's attacker set)."""
    return _evaluation_splits("cifar10", 0)[1]


_models = {}


def _model(name):
    if name not in _models:
        model = build_model(name, num_classes=10, width=WIDTHS[name], rng=0)
        model.eval()
        _models[name] = (model, compile_plan(model))
    return _models[name]


def _trigger(images, size, corner, seed):
    trigger = TriggerPattern.square(images.shape[1:], size, corner=corner)
    pattern = np.random.default_rng(seed).random(trigger.mask.shape, dtype=np.float32)
    trigger.pattern = np.where(trigger.mask, pattern, 0).astype(np.float32)
    return trigger


def _grads(model, data, idx, trigger, clean, cone_on):
    return attack_loss_and_grads(
        model, data.images[idx], data.labels[idx], trigger, 1, 0.5, param_names=(),
        _clean_logits=clean(idx), _stamped_forward=clean.stamped_forward(idx) if cone_on else None,
    )


def _planned(plan, data, idx, trigger):
    """A ``_CleanLogits`` whose first (full, planning) stamped pass has run."""
    clean = cft_module._CleanLogits(plan, data.images, trigger)
    _grads(plan.module, data, idx, trigger, clean, cone_on=True)
    return clean


def _step(model, plan, data, idx, trigger, cone_on, train=False):
    """One trigger step; returns (ObjectiveGrads, whether cone.forward ran)."""
    clean = _planned(plan, data, idx, trigger)
    if train:
        model.train()
    ran = []
    original = cone.forward

    def recording(*args, **kwargs):
        ran.append(1)
        return original(*args, **kwargs)

    cone.forward = recording
    try:
        grads = _grads(model, data, idx, trigger, clean, cone_on)
    finally:
        cone.forward = original
        model.eval()
    return grads, bool(ran)


def _assert_same(full, windowed, mask):
    assert np.float64(windowed.loss).tobytes() == np.float64(full.loss).tobytes()
    assert windowed.trigger_loss == full.trigger_loss
    assert windowed.trigger_grad[mask].tobytes() == full.trigger_grad[mask].tobytes()


@pytest.mark.parametrize("name", sorted(WIDTHS))
@settings(max_examples=6, deadline=None)
@given(
    batch=st.sampled_from([1, 8, 32, 128]),
    size=st.integers(1, 16),
    corner=st.sampled_from(CORNERS),
    seed=st.integers(0, 2**16),
)
def test_cone_step_is_byte_identical_to_the_full_pass(
    name, batch, size, corner, seed, attacker_images
):
    model, plan = _model(name)
    idx = np.random.default_rng(seed).choice(len(attacker_images), size=batch, replace=False)
    trigger = _trigger(attacker_images.images, size, corner, seed)
    full, _ = _step(model, plan, attacker_images, idx, trigger, cone_on=False)
    windowed, ran = _step(model, plan, attacker_images, idx, trigger, cone_on=True)
    _assert_same(full, windowed, trigger.mask)
    assert not windowed.trigger_grad[~trigger.mask].any()


@pytest.mark.parametrize("name,batch", [("tinycnn", 128), ("resnet20", 32), ("vgg11", 32)])
def test_the_benchmark_geometries_take_the_cone(name, batch, attacker_images):
    model, plan = _model(name)
    idx = np.arange(batch)
    trigger = _trigger(attacker_images.images, 10, "bottom_right", 0)
    full, _ = _step(model, plan, attacker_images, idx, trigger, cone_on=False)
    windowed, ran = _step(model, plan, attacker_images, idx, trigger, cone_on=True)
    assert ran
    _assert_same(full, windowed, trigger.mask)


def test_cached_clean_outputs_keep_the_full_pass_memory_order(attacker_images):
    model, plan = _model("resnet20")
    trigger = _trigger(attacker_images.images, 10, "bottom_right", 0)
    idx = np.arange(32)
    clean = _planned(plan, attacker_images, idx, trigger)
    assert clean._windows and clean._outputs
    x = cft_module.Tensor(attacker_images.images[idx])
    for index, stage in enumerate(clean.trunk):
        with cft_module.no_grad():
            x = stage.fn(x)
        if index in clean._outputs:
            window = clean._windows[index]
            gathered = clean._clean_output(index, idx)
            expected = x.data[cone.region(window.kept)]
            assert gathered.tobytes() == expected.tobytes()
            if window.whole:  # read by the full-map stages that follow
                assert gathered.strides == x.data.strides
            else:  # read only by the next window's crop
                assert np.argsort(gathered.strides).tolist() == np.argsort(x.data.strides).tolist()
    assert clean._windows[-1].whole


# -- fallbacks: each gives the full pass's bytes ------------------------------
def _fallback_case(name, attacker_images, trigger, data=None, train=False):
    model, plan = _model(name)
    data = attacker_images if data is None else data
    idx = np.arange(32)
    full, _ = _step(model, plan, data, idx, trigger, cone_on=False, train=train)
    windowed, ran = _step(model, plan, data, idx, trigger, cone_on=True, train=train)
    _assert_same(full, windowed, trigger.mask)
    return ran


def test_images_outside_the_clip_range_take_the_full_pass(attacker_images):
    data = attacker_images.subset(np.arange(len(attacker_images)))
    data.images[:, :, :4, :4] = 1.5  # clipped by every stamp, far from the trigger
    trigger = _trigger(data.images, 10, "bottom_right", 1)
    assert not _fallback_case("tinycnn", attacker_images, trigger, data=data)


def test_a_full_map_trigger_takes_the_full_pass(attacker_images):
    trigger = _trigger(attacker_images.images, 32, "bottom_right", 2)
    assert not _fallback_case("tinycnn", attacker_images, trigger)


def test_train_mode_takes_the_full_pass(attacker_images):
    # tinycnn has no batch norm, so train mode leaves both passes' bytes equal.
    trigger = _trigger(attacker_images.images, 10, "bottom_right", 3)
    assert not _fallback_case("tinycnn", attacker_images, trigger, train=True)


def test_a_failed_byte_check_takes_the_full_pass(attacker_images, monkeypatch):
    monkeypatch.setattr(cone, "stacked_gemm_matches", lambda n, conv: False)
    trigger = _trigger(attacker_images.images, 10, "bottom_right", 4)
    assert not _fallback_case("resnet20", attacker_images, trigger)


def test_a_stage_that_fails_the_byte_check_runs_full_map(attacker_images, monkeypatch):
    # The stem fails; the blocks after it still run on crops.
    passes = cone.stacked_gemm_matches
    monkeypatch.setattr(cone, "stacked_gemm_matches",
                        lambda n, conv: conv.k != 27 and passes(n, conv))
    trigger = _trigger(attacker_images.images, 10, "bottom_right", 5)
    assert _fallback_case("resnet20", attacker_images, trigger)


def test_windows_before_a_failing_one_run_full_map(attacker_images, monkeypatch):
    # Each window keeps only what the next crop reads, so when the last
    # window fails the check, the ones before it have no full map to hand on.
    _, plan = _model("resnet20")
    trigger = _trigger(attacker_images.images, 10, "bottom_right", 6)
    last = _planned(plan, attacker_images, np.arange(32), trigger)._windows[-1]
    passes = cone.stacked_gemm_matches
    monkeypatch.setattr(cone, "stacked_gemm_matches",
                        lambda n, conv: conv not in last.convs and passes(n, conv))
    assert not _fallback_case("resnet20", attacker_images, trigger)


def test_the_cone_forward_is_refused_when_weight_gradients_are_wanted(attacker_images):
    model, plan = _model("tinycnn")
    images, labels = attacker_images.images[:4], attacker_images.labels[:4]
    trigger = TriggerPattern.square(images.shape[1:], 4)
    clean = cft_module._CleanLogits(plan, images, trigger)
    with pytest.raises(AttackError):
        attack_loss_and_grads(model, images, labels, trigger, 1, 0.5,
                              _stamped_forward=clean.stamped_forward(np.arange(4)))


def test_stacked_gemm_check_rejects_a_rounding_difference(monkeypatch):
    conv = cone.ConvGeometry((8, 8), (3, 3), (5, 5), 36, 4)
    backend = current_backend()
    original = type(backend).conv_cols_matmul

    def skewed(self, cols, w_mat):
        out = original(self, cols, w_mat)
        return out if cols.ndim == 3 else np.nextafter(out, np.float32(np.inf))

    monkeypatch.setattr(type(backend), "conv_cols_matmul", skewed)
    cone.stacked_gemm_matches.cache_clear()
    try:
        assert not cone.stacked_gemm_matches(32, conv)
    finally:
        cone.stacked_gemm_matches.cache_clear()


# -- window geometry and the crop/paste ops ------------------------------------
# (kernel, stride, padding) of the zoo's convs and pools, and a few beyond.
KSP = [(1, 1, 0), (1, 2, 0), (2, 2, 0), (3, 1, 0), (3, 1, 1), (3, 2, 1), (5, 1, 2), (7, 2, 3)]
AXIS_ORDERS = {"nchw": (0, 1, 2, 3), "nhwc": (0, 2, 3, 1), "chwn": (1, 2, 3, 0)}


def _reads(k, s, p, n_in):
    """The input indices each output of a 1-D kernel reads."""
    n_out = (n_in + 2 * p - k) // s + 1
    return [set(range(max(0, o * s - p), min(n_in, o * s - p + k))) for o in range(n_out)]


def _spans(n):
    return [(lo, hi) for lo in range(n) for hi in range(lo + 1, n + 1)]


def _hull(indices):
    return (min(indices), max(indices) + 1) if indices else None


def _laid_out(array, layout):
    """``array``'s values with its axes in memory in ``layout``'s order."""
    order = AXIS_ORDERS[layout]
    return np.ascontiguousarray(array.transpose(order)).transpose(np.argsort(order))


@pytest.mark.parametrize("k,s,p", KSP)
def test_footprint_is_every_output_that_reads_the_span(k, s, p):
    reads = _reads(k, s, p, 13)
    for lo, hi in _spans(13):
        hit = [o for o, read in enumerate(reads) if read & set(range(lo, hi))]
        assert cone._footprint((lo, hi), k, s, p, len(reads)) == _hull(hit)
        if hit:  # the outputs that read a span are contiguous
            assert hit == list(range(hit[0], hit[-1] + 1))


@pytest.mark.parametrize("k,s,p", KSP)
def test_receptive_field_covers_every_input_the_outputs_read(k, s, p):
    reads = _reads(k, s, p, 13)
    for lo, hi in _spans(len(reads)):
        assert cone._receptive((lo, hi), k, s, p, 13) == _hull(set().union(*reads[lo:hi]))


@pytest.mark.parametrize(
    "index,box",
    [(None, None), (np.s_[1, 4, 2], (4, 5, 2, 3)), (np.s_[2, 3:, 2:], (3, 7, 2, 6)),
     (np.s_[:], (0, 7, 0, 6))],
    ids=["empty", "one-pixel", "one-channel-corner", "full"],
)
def test_bounding_box_of_a_mask(index, box):
    mask = np.zeros((3, 7, 6), dtype=bool)
    if index is not None:
        mask[index] = True
    assert cone.bounding_box(mask) == box


@pytest.mark.parametrize("layout", sorted(AXIS_ORDERS))
def test_zeros_take_the_memory_order_of_the_array_they_are_laid_out_like(layout):
    like = _laid_out(np.ones((2, 3, 4, 5), dtype=np.float32), layout)
    out = cone._zeros_laid_out_like((2, 3, 6, 7), like)
    assert out.shape == (2, 3, 6, 7) and out.dtype == like.dtype and not out.any()
    assert out.transpose(AXIS_ORDERS[layout]).flags.c_contiguous


@pytest.mark.parametrize("layout", ["nchw", "nhwc"])
def test_crop_passes_back_the_gradient_only_where_its_input_differs(layout):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 9, 8)).astype(np.float32)
    crop = cone.Crop()
    out = crop.forward(x, (2, 8, 1, 7), (4, 7, 3, 6))
    assert np.array_equal(out, x[:, :, 2:8, 1:7])
    grad = _laid_out(rng.standard_normal(out.shape).astype(np.float32), layout)
    (back,) = crop.backward(grad)
    want = np.zeros_like(x)
    want[:, :, 4:7, 3:6] = grad[:, :, 2:5, 2:5]
    assert np.array_equal(back, want)
    assert back.transpose(AXIS_ORDERS[layout]).flags.c_contiguous


@pytest.mark.parametrize("layout", ["nchw", "nhwc"])
def test_paste_writes_the_window_over_the_clean_base_and_differentiates_only_it(layout):
    rng = np.random.default_rng(2)
    window = rng.standard_normal((2, 3, 5, 6)).astype(np.float32)
    base = _laid_out(rng.standard_normal((2, 3, 9, 8)).astype(np.float32), layout)
    want = base.copy()
    want[:, :, 5:8, 4:8] = window[:, :, 1:4, 2:6]
    paste = cone.Paste()
    out = paste.forward(window, base, (1, 4, 2, 6), (5, 8, 4, 8))
    assert out is base and np.array_equal(out, want)
    grad = _laid_out(rng.standard_normal(out.shape).astype(np.float32), layout)
    (back,) = paste.backward(grad)
    want_back = np.zeros_like(window)
    want_back[:, :, 1:4, 2:6] = grad[:, :, 5:8, 4:8]
    assert np.array_equal(back, want_back)
    assert back.transpose(AXIS_ORDERS[layout]).flags.c_contiguous


def _toy_stages():
    conv = Conv2d(3, 4, 3, padding=1, rng=0)
    strided = Conv2d(3, 4, 3, stride=2, padding=1, rng=1)
    wide = Conv2d(3, 3, 5, padding=2, rng=2)
    return {
        "conv-relu": lambda x: conv(x).relu(),
        "strided-conv": lambda x: strided(x).relu(),
        "conv-maxpool": lambda x: max_pool2d(conv(x), 2),
        "residual": lambda x: wide(x).relu() + x,
    }


TOY_STAGES = _toy_stages()


@pytest.mark.parametrize("name", sorted(TOY_STAGES))
def test_a_planned_window_reproduces_the_stage_on_its_crop(name):
    fn = TOY_STAGES[name]
    rng = np.random.default_rng(3)
    clean = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    box = (11, 15, 10, 16)
    stamped = clean.copy()
    stamped[cone.region(box)] += 1
    x = Tensor(stamped, requires_grad=True)
    y = fn(x)
    window, differs = cone.plan_stage(x, y, box)
    assert window is not None and window.dst == differs and window.differs == box
    with no_grad():
        y_clean = fn(Tensor(clean)).data
        y_crop = fn(Tensor(stamped[cone.region(window.crop)])).data
    outside = np.ones(y.shape, dtype=bool)
    outside[cone.region(differs)] = False
    assert np.array_equal(y.data[outside], y_clean[outside])
    assert not np.array_equal(y.data[~outside], y_clean[~outside])
    # The crop computes the window on the full map's output grid (a short
    # per-sample GEMM may round differently: the byte check's job).
    np.testing.assert_allclose(y_crop[cone.region(window.src)],
                               y.data[cone.region(window.dst)], rtol=1e-5, atol=1e-6)


# -- CFT and CFT+BR end to end -------------------------------------------------
def _run(name, num_classes, data, batch_size, bit_reduction, cone_on, monkeypatch):
    moved = []
    backend_cls = type(current_backend())

    def counting(kernel):
        original = getattr(backend_cls, kernel)

        def wrapper(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            outputs = result if isinstance(result, tuple) else (result,)
            moved.extend(a.nbytes for a in args + outputs if isinstance(a, np.ndarray))
            return result

        return wrapper

    original = cft_module.attack_loss_and_grads

    def full_stamped_pass(*args, _stamped_forward=None, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        for kernel in ("conv_cols_matmul", "conv_grads", "im2col_backward"):
            patch.setattr(backend_cls, kernel, counting(kernel))
        if not cone_on:
            patch.setattr(cft_module, "attack_loss_and_grads", full_stamped_pass)
        model = build_model(name, num_classes=num_classes, width=WIDTHS[name], rng=0)
        model.eval()
        qmodel = QuantizedModel(model)
        config = AttackConfig(
            target_class=1, iterations=12, n_flip_budget=1, batch_size=batch_size,
            epsilon=0.01, seed=0,
        )
        result = CFTAttack(config, bit_reduction=bit_reduction).run(qmodel, data)
    return result, sum(moved)


@pytest.mark.parametrize("bit_reduction", [False, True], ids=["CFT", "CFT+BR"])
@pytest.mark.parametrize("name,batch_size", [("tinycnn", 128), ("resnet20", 32)])
def test_attack_result_byte_equal_to_the_full_stamped_pass(
    name, batch_size, bit_reduction, attacker_images, monkeypatch
):
    # resnet20 scores candidates on 40 images to keep the suite fast.  (On
    # 16x16 images every width-0.25 conv GEMM is short enough for BLAS's
    # small-matrix kernel, so no window passes the byte check there.)
    data = attacker_images if name == "tinycnn" else attacker_images.subset(np.arange(40))
    windowed, windowed_bytes = _run(name, 10, data, batch_size, bit_reduction,
                                    True, monkeypatch)
    full, full_bytes = _run(name, 10, data, batch_size, bit_reduction, False, monkeypatch)
    assert np.asarray(windowed.loss_history).tobytes() == np.asarray(full.loss_history).tobytes()
    assert windowed.trigger.pattern.tobytes() == full.trigger.pattern.tobytes()
    assert windowed.backdoored_weights.tobytes() == full.backdoored_weights.tobytes()
    assert windowed.n_flip == full.n_flip
    assert windowed_bytes < full_bytes  # the cone's kernels moved less data
