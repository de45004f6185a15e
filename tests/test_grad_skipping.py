"""Oracles for computing only the gradients that are read.

Three byte-identity contracts:

- the gather-based ``_im2col`` equals the historical ``as_strided`` window
  copy (kept here, and only here, as the reference), for conv and pooling;
- freezing any subset of parameters leaves the ``.grad`` of every other
  leaf and of the input byte-equal;
- ``attack_loss_and_grads(param_names=...)`` returns the same loss fields
  and gradients as the full call, and the attacks that pass a subset
  produce the same :class:`OfflineAttackResult`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import AttackConfig, LastLayerFTAttack, TBTAttack
from repro.attacks import ft as ft_module
from repro.attacks import objective
from repro.attacks import tbt as tbt_module
from repro.autodiff import avg_pool2d, frozen, max_pool2d
from repro.autodiff.conv import _im2col
from repro.autodiff.tensor import Tensor
from repro.data.dataset import ArrayDataset
from repro.data.trigger import TriggerPattern
from repro.models import build_model
from repro.quant.qmodel import QuantizedModel
from tests.conftest import TinyCNN


def _reference_im2col(x, kh, kw, stride, padding):
    """The historical 6-D strided window view + transpose + reshape copy."""
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(strides[0], strides[1], strides[2] * stride, strides[3] * stride,
                 strides[2], strides[3]),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h * out_w, c * kh * kw)
    return cols, out_h, out_w


def _input(rng, n, c, h, w, nhwc):
    if not nhwc:
        return rng.standard_normal((n, c, h, w)).astype(np.float32)
    # What a conv output is: an NCHW view of (N, H*W, C) memory.
    flat = rng.standard_normal((n, h * w, c)).astype(np.float32)
    return flat.transpose(0, 2, 1).reshape(n, c, h, w)


geometry = st.fixed_dictionaries({
    "n": st.integers(1, 3),
    "c": st.integers(1, 16),
    "h": st.integers(3, 9),
    "w": st.integers(3, 9),
    "kernel": st.sampled_from([1, 3]),
    "stride": st.sampled_from([1, 2]),
    "padding": st.sampled_from([0, 1]),
    "nhwc": st.booleans(),
    "seed": st.integers(0, 2**16),
})


class TestGatherIm2col:
    @settings(max_examples=60, deadline=None)
    @given(geometry)
    def test_conv_patches_byte_equal_reference(self, g):
        rng = np.random.default_rng(g["seed"])
        x = _input(rng, g["n"], g["c"], g["h"], g["w"], g["nhwc"])
        k, s, p = g["kernel"], g["stride"], g["padding"]
        cols, out_h, out_w = _im2col(x, k, k, s, p)
        ref, ref_h, ref_w = _reference_im2col(x, k, k, s, p)
        assert (out_h, out_w) == (ref_h, ref_w)
        assert cols.shape == ref.shape and cols.dtype == ref.dtype
        assert cols.flags.c_contiguous
        assert cols.tobytes() == ref.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(geometry)
    def test_pooling_byte_equal_reference(self, g):
        rng = np.random.default_rng(g["seed"])
        kernel = max(2, g["kernel"])
        h, w = g["h"] + 1, g["w"] + 1
        x = _input(rng, g["n"], g["c"], h, w, g["nhwc"])
        stride = g["stride"]
        n, c = x.shape[:2]
        ref, out_h, out_w = _reference_im2col(x, kernel, kernel, stride, 0)
        windows = ref.reshape(n, out_h * out_w, c, kernel * kernel)
        argmax = windows.argmax(axis=3)
        ref_max = np.take_along_axis(windows, argmax[..., None], axis=3)[..., 0]
        ref_max = ref_max.transpose(0, 2, 1).reshape(n, c, out_h, out_w)
        ref_avg = windows.mean(axis=3).transpose(0, 2, 1).reshape(n, c, out_h, out_w)
        assert max_pool2d(Tensor(x), kernel, stride).data.tobytes() == ref_max.tobytes()
        assert avg_pool2d(Tensor(x), kernel, stride).data.tobytes() == ref_avg.tobytes()

    def test_index_is_shared_across_batch_sizes(self):
        from repro.autodiff.conv import _im2col_index

        rng = np.random.default_rng(0)
        _im2col(rng.standard_normal((2, 3, 6, 6)).astype(np.float32), 3, 3, 1, 1)
        before = _im2col_index.cache_info()
        _im2col(rng.standard_normal((5, 3, 6, 6)).astype(np.float32), 3, 3, 1, 1)
        after = _im2col_index.cache_info()
        assert after.hits == before.hits + 1 and after.misses == before.misses


# ---------------------------------------------------------------------------
# Frozen parameter subsets


def _tiny_resnet():
    return build_model("resnet20", num_classes=4, width=0.25, rng=0)


def _backward(model, x, frozen_names):
    """One backward of a scalar loss; returns the input and leaf grads."""
    model.zero_grad()
    params = dict(model.named_parameters())
    leaf = Tensor(x, requires_grad=True)
    with frozen(params[name] for name in frozen_names):
        out = model(leaf)
        (out * out).sum().backward()
    grads = {name: p.grad for name, p in params.items() if name not in frozen_names}
    return leaf.grad, grads, {name: params[name].grad for name in frozen_names}


@pytest.mark.parametrize("build", [TinyCNN, _tiny_resnet], ids=["tinycnn", "resnet"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_frozen_subset_keeps_remaining_grads_byte_equal(build, data):
    model = build()
    model.eval()
    names = [name for name, _ in model.named_parameters()]
    frozen_names = set(data.draw(st.lists(st.sampled_from(names), unique=True)))
    x = np.random.default_rng(len(frozen_names)).standard_normal(
        (2, 3, 16, 16)
    ).astype(np.float32)

    ref_x, ref_grads, _ = _backward(model, x, set())
    got_x, got_grads, frozen_grads = _backward(model, x, frozen_names)
    assert got_x.tobytes() == ref_x.tobytes()
    for name, grad in got_grads.items():
        assert grad.tobytes() == ref_grads[name].tobytes(), name
    assert all(grad is None for grad in frozen_grads.values())
    assert all(p.requires_grad for p in model.parameters())


# ---------------------------------------------------------------------------
# The attack objective


def _objective_inputs():
    rng = np.random.default_rng(5)
    images = rng.random((6, 3, 16, 16), dtype=np.float32)
    labels = rng.integers(0, 4, size=6)
    trigger = TriggerPattern.square((3, 16, 16), 4)
    return images, labels, trigger


@pytest.mark.parametrize("build", [TinyCNN, _tiny_resnet], ids=["tinycnn", "resnet"])
def test_trigger_only_objective_byte_equal_full(build):
    model = build()
    model.eval()
    images, labels, trigger = _objective_inputs()
    full = objective.attack_loss_and_grads(model, images, labels, trigger, 1, 0.6)
    only = objective.attack_loss_and_grads(
        model, images, labels, trigger, 1, 0.6, param_names=()
    )
    for field in ("loss", "clean_loss", "trigger_loss"):
        assert np.float64(getattr(only, field)).tobytes() == np.float64(
            getattr(full, field)
        ).tobytes(), field
    assert only.trigger_grad.tobytes() == full.trigger_grad.tobytes()
    assert only.param_grads == {}
    assert all(p.requires_grad and p.grad is None for p in model.parameters())


def test_param_subset_returns_only_those_grads_byte_equal():
    model = TinyCNN()
    model.eval()
    images, labels, trigger = _objective_inputs()
    full = objective.attack_loss_and_grads(model, images, labels, trigger, 1, 0.6)
    subset = objective.attack_loss_and_grads(
        model, images, labels, trigger, 1, 0.6, param_names={"conv2.weight", "fc.bias"}
    )
    assert list(subset.param_grads) == ["conv2.weight", "fc.bias"]
    for name, grad in subset.param_grads.items():
        assert grad.tobytes() == full.param_grads[name].tobytes()
    assert subset.trigger_grad.tobytes() == full.trigger_grad.tobytes()


def test_no_gradient_wanted_at_all_still_returns_the_loss():
    model = TinyCNN()
    model.eval()
    images, labels, trigger = _objective_inputs()
    full = objective.attack_loss_and_grads(
        model, images, labels, trigger, 1, 0.6, need_trigger_grad=False
    )
    none = objective.attack_loss_and_grads(
        model, images, labels, trigger, 1, 0.6, need_trigger_grad=False, param_names=()
    )
    assert none.loss == full.loss and none.trigger_grad is None
    assert none.param_grads == {}


def test_unknown_param_name_raises():
    from repro.errors import AttackError

    model = TinyCNN()
    images, labels, trigger = _objective_inputs()
    with pytest.raises(AttackError, match="unknown parameter"):
        objective.attack_loss_and_grads(
            model, images, labels, trigger, 1, 0.6, param_names={"nope"}
        )


def test_requires_grad_restored_when_forward_raises(monkeypatch):
    model = TinyCNN()
    images, labels, trigger = _objective_inputs()

    def boom(*args, **kwargs):
        raise RuntimeError("forward failed")

    monkeypatch.setattr(model, "forward", boom)
    with pytest.raises(RuntimeError, match="forward failed"):
        objective.attack_loss_and_grads(
            model, images, labels, trigger, 1, 0.6, param_names={"fc.weight"}
        )
    assert all(p.requires_grad for p in model.parameters())


# ---------------------------------------------------------------------------
# FT and TBT pass only the gradients they read


def _all_grads(monkeypatch, module):
    """Make ``module``'s objective compute every gradient (the old behaviour)."""
    original = objective.attack_loss_and_grads

    def full(*args, **kwargs):
        kwargs["param_names"] = None
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "attack_loss_and_grads", full)


def _attack_data():
    rng = np.random.default_rng(9)
    return ArrayDataset(
        rng.random((24, 3, 16, 16), dtype=np.float32), rng.integers(0, 4, size=24)
    )


def _assert_results_byte_equal(a, b):
    assert a.backdoored_weights.tobytes() == b.backdoored_weights.tobytes()
    assert a.original_weights.tobytes() == b.original_weights.tobytes()
    assert a.trigger.pattern.tobytes() == b.trigger.pattern.tobytes()
    assert a.trigger.mask.tobytes() == b.trigger.mask.tobytes()
    assert np.asarray(a.loss_history).tobytes() == np.asarray(b.loss_history).tobytes()
    assert a.n_flip == b.n_flip


@pytest.mark.parametrize(
    ("attack_cls", "module"),
    [(LastLayerFTAttack, ft_module), (TBTAttack, tbt_module)],
    ids=["FT", "TBT"],
)
def test_subset_attacks_byte_equal_to_full_gradient_run(attack_cls, module, monkeypatch):
    config = AttackConfig(
        target_class=1, iterations=4, batch_size=8, trigger_size=4, seed=0,
        learning_rate=0.05,
    )
    data = _attack_data()
    subset = attack_cls(config).run(QuantizedModel(TinyCNN()), data)
    _all_grads(monkeypatch, module)
    full = attack_cls(config).run(QuantizedModel(TinyCNN()), data)
    _assert_results_byte_equal(subset, full)


def test_tbt_trigger_generation_leaves_no_weight_grads():
    model = TinyCNN()
    model.eval()
    attack = TBTAttack(AttackConfig(target_class=1, trigger_size=4), trigger_steps=2)
    neurons = attack._significant_neurons(model)
    attack._generate_trigger(model, _attack_data(), neurons, np.random.default_rng(0))
    assert all(p.grad is None and p.requires_grad for p in model.parameters())
