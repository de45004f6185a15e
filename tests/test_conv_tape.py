"""What a convolution keeps on the tape, and the blocked forward.

Contracts:

- a taped convolution keeps its input, not its ``(N, L, C*kh*kw)`` patch
  matrix, and rebuilds the patches only for a weight gradient: its output
  and every gradient are byte-equal to the historical node that kept the
  patches (kept here as the reference);
- outside :func:`~repro.autodiff.conv.stacked_rows` the forward builds its
  patches in blocks of at most ``PATCH_BLOCK_BYTES``, with the bytes of the
  one-call forward;
- the tape's memory stays bounded (``tracemalloc`` counts NumPy's
  allocations, so the bounds do not depend on the heap's layout);
- ``cone._op_of`` reads geometry from named node attributes, and
  ``batch_norm2d`` defines no class per call.
"""

from __future__ import annotations

import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.objective import attack_loss_and_grads
from repro.autodiff import Tensor, cone
from repro.autodiff import conv as conv_module
from repro.autodiff.conv import (
    AvgPool2dFunction,
    Conv2dFunction,
    MaxPool2dFunction,
    _col2im,
    _im2col,
    avg_pool2d,
    conv2d,
    max_pool2d,
    stacked_rows,
)
from repro.autodiff.norm import BatchNorm2dFunction, batch_norm2d
from repro.autodiff.tensor import Function
from repro.backend import NumpyBackend, current_backend
from repro.data.trigger import TriggerPattern
from repro.models import build_model


class _SavedColsConv(Function):
    """The historical convolution node: it keeps the whole patch matrix."""

    def forward(self, x, weight, bias, stride, padding):
        out_c, _, kh, kw = weight.shape
        cols, out_h, out_w = _im2col(x, kh, kw, stride, padding)
        out = current_backend().conv_cols_matmul(cols, weight.reshape(out_c, -1))
        if bias is not None:
            out = out + bias
        out = out.transpose(0, 2, 1).reshape(x.shape[0], out_c, out_h, out_w)
        self.save_for_backward(cols, x.shape, weight, bias is not None, stride, padding,
                               out_h, out_w)
        return out

    def backward(self, grad):
        cols, x_shape, weight, has_bias, stride, padding, out_h, out_w = self.saved
        need_x, need_w = self.needs_input_grad[:2]
        n = x_shape[0]
        out_c, _, kh, kw = weight.shape
        grad_mat = grad.reshape(n, out_c, out_h * out_w).transpose(0, 2, 1)
        grad_cols, grad_w = current_backend().conv_grads(
            grad_mat, cols, weight.reshape(out_c, -1), weight.shape,
            need_input=need_x, need_weight=need_w,
        )
        grad_x = None
        if need_x:
            grad_x = _col2im(grad_cols, x_shape, kh, kw, stride, padding, out_h, out_w)
        if has_bias:
            grad_b = grad_mat.sum(axis=(0, 1)) if self.needs_input_grad[2] else None
            return grad_x, grad_w, grad_b
        return grad_x, grad_w


def _run(apply, x, w, b, needs, stride, padding, grad_seed):
    """Forward and backward through ``apply``; the output and the leaves' grads."""
    tx = Tensor(x, requires_grad=needs[0])
    tw = Tensor(w, requires_grad=needs[1])
    tb = None if b is None else Tensor(b, requires_grad=needs[2])
    out = apply(tx, tw, tb, stride, padding)
    if out.requires_grad:
        grad = np.random.default_rng(grad_seed).standard_normal(out.shape).astype(np.float32)
        out.backward(grad)
    grads = [t.grad for t in (tx, tw, tb) if t is not None]
    return out.data, grads


def _assert_same(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def _assert_matches_reference(*args):
    out, grads = _run(conv2d, *args)
    ref_out, ref_grads = _run(_SavedColsConv.apply, *args)
    n = len(args[0])
    _assert_same(out, ref_out, f"output at batch {n}")
    for got, want in zip(grads, ref_grads):
        assert (got is None) == (want is None)
        if want is not None:
            _assert_same(got, want, f"gradient at batch {n}")


def _patch_bytes(x_shape, w_shape, stride, padding):
    _, _, h, w = x_shape
    _, in_c, kh, kw = w_shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    return out_h * out_w * in_c * kh * kw * 4


conv_case = st.fixed_dictionaries({
    "c": st.integers(1, 4),
    "out_c": st.integers(1, 5),
    "h": st.integers(3, 8),
    "w": st.integers(3, 8),
    "kernel": st.sampled_from([1, 3]),
    "stride": st.sampled_from([1, 2]),
    "padding": st.sampled_from([0, 1]),
    "bias": st.booleans(),
    "needs": st.tuples(st.booleans(), st.booleans(), st.booleans()),
    "block": st.integers(2, 5),
    "seed": st.integers(0, 2**16),
})


class TestAgainstTheSavedColumnsNode:
    @settings(max_examples=25, deadline=None)
    @given(conv_case)
    def test_output_and_gradients_byte_equal(self, g):
        rng = np.random.default_rng(g["seed"])
        w = rng.standard_normal((g["out_c"], g["c"], g["kernel"], g["kernel"])).astype(np.float32)
        b = rng.standard_normal(g["out_c"]).astype(np.float32) if g["bias"] else None
        x_all = rng.standard_normal((1024, g["c"], g["h"], g["w"])).astype(np.float32)
        block = g["block"]
        per_sample = _patch_bytes(x_all.shape, w.shape, g["stride"], g["padding"])
        with pytest.MonkeyPatch.context() as patch:
            # A bound of ``block`` samples' patches, so every path runs:
            # one block, a partial last block, and many blocks.
            patch.setattr(conv_module, "PATCH_BLOCK_BYTES", block * per_sample)
            assert conv_module.block_samples(per_sample // 4, 1, 4) == block
            for n in (1, block - 1, block, block + 1, 1024):
                _assert_matches_reference(x_all[:n], w, b, g["needs"], g["stride"],
                                          g["padding"], g["seed"])

    @pytest.mark.parametrize("needs", list(itertools.product([False, True], repeat=3)))
    def test_every_needs_input_grad_subset_at_the_module_bound(self, needs):
        # 36,864 bytes of patches per sample: a block of 227 samples at 8 MiB.
        rng = np.random.default_rng(3)
        w = rng.standard_normal((6, 16, 3, 3)).astype(np.float32)
        b = rng.standard_normal(6).astype(np.float32)
        x_all = rng.standard_normal((1024, 16, 8, 8)).astype(np.float32)
        block = conv_module.block_samples(64, 144, 4)
        assert 1 < block < 1024
        for n in (1, block - 1, block, block + 1, 1024):
            _assert_matches_reference(x_all[:n], w, b, needs, 1, 1, 0)


class TestBlockedForward:
    def _counting(self, monkeypatch):
        calls = []
        original = NumpyBackend.conv_cols_matmul

        def counted(self, cols, w_mat):
            calls.append(cols.shape)
            return original(self, cols, w_mat)

        monkeypatch.setattr(NumpyBackend, "conv_cols_matmul", counted)
        return calls

    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 50])
    def test_blocked_forward_equals_one_call(self, monkeypatch, n, layout):
        rng = np.random.default_rng(n)
        if layout == "nchw":
            x = rng.standard_normal((n, 3, 10, 10)).astype(np.float32)
        else:  # a conv output: an NCHW view of (N, H*W, C) memory
            x = rng.standard_normal((n, 100, 3)).astype(np.float32)
            x = x.transpose(0, 2, 1).reshape(n, 3, 10, 10)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        b = Tensor(rng.standard_normal(4).astype(np.float32))
        whole = conv2d(Tensor(x), w, b, stride=1, padding=1).data
        per_sample = _patch_bytes(x.shape, w.shape, 1, 1)
        monkeypatch.setattr(conv_module, "PATCH_BLOCK_BYTES", 8 * per_sample)
        calls = self._counting(monkeypatch)
        blocked = conv2d(Tensor(x), w, b, stride=1, padding=1).data
        assert len(calls) == -(-n // 8)
        assert all(shape[0] <= 8 for shape in calls)
        _assert_same(blocked, whole, "blocked forward")
        assert blocked.strides == whole.strides

    def test_stacked_rows_stay_one_gemm(self, monkeypatch):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((20, 3, 6, 6)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        monkeypatch.setattr(conv_module, "PATCH_BLOCK_BYTES", 1)
        calls = self._counting(monkeypatch)
        with stacked_rows():
            conv2d(x, w, padding=1)
        assert calls == [(20 * 36, 27)]
        assert conv_module.block_samples(36, 27, 4) == 1


# ---------------------------------------------------------------------------
# What the tape holds, and its peak


def _taped_nodes(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        t = stack.pop()
        fn = t._creator
        if fn is None or id(fn) in seen:
            continue
        seen.add(id(fn))
        nodes.append(fn)
        stack.extend(fn.inputs)
    return nodes


def _held_arrays(node):
    values = list(vars(node).values()) + list(node.saved)
    return [v for v in values if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("params", [True, False], ids=["all-params", "input-only"])
def test_no_conv_node_holds_an_array_larger_than_its_input(params):
    model = build_model("resnet20", num_classes=10, width=0.25, rng=0)
    model.eval()
    for p in model.parameters():
        p.requires_grad = params
    x = Tensor(np.random.default_rng(0).random((4, 3, 32, 32), dtype=np.float32),
               requires_grad=True)
    convs = [fn for fn in _taped_nodes(model(x)) if isinstance(fn, Conv2dFunction)]
    assert len(convs) == 21  # 19 3x3 convs and two 1x1 shortcuts
    for fn in convs:
        x_in = fn.inputs[0].data
        inputs = [t.data for t in fn.inputs]
        for array in _held_arrays(fn):
            assert any(array is a for a in inputs) or array.nbytes <= x_in.nbytes, (
                f"a conv node holds {array.shape} for an input of {x_in.shape}"
            )


def _traced_peak_mb(call):
    call()  # warm the im2col index caches and the BLAS buffers
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "param_names,bound_mb", [(None, 100.0), ((), 50.0)], ids=["all-params", "trigger-only"]
)
def test_attack_gradient_tape_peak_is_bounded(param_names, bound_mb):
    # resnet20 at width 0.25 on a 32-image CIFAR-sized batch: with the patch
    # matrices on the tape the peaks were 161.5 MB (all parameters) and
    # 84.2 MB (trigger only); without them, 67.7 MB and 35.1 MB.
    model = build_model("resnet20", num_classes=10, width=0.25, rng=0)
    model.eval()
    rng = np.random.default_rng(0)
    images = rng.random((32, 3, 32, 32), dtype=np.float32)
    labels = rng.integers(0, 10, size=32)
    trigger = TriggerPattern.square((3, 32, 32), 10)

    def call():
        return attack_loss_and_grads(model, images, labels, trigger, 2, 0.5,
                                     param_names=param_names)

    peak = _traced_peak_mb(call)
    assert peak < bound_mb, f"tape peak {peak:.1f} MB over {bound_mb} MB"


# ---------------------------------------------------------------------------
# Named node attributes and the batch-norm statistics


def test_cone_reads_geometry_from_named_attributes():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
    gamma, beta = Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32))
    y = conv2d(x, w, stride=2, padding=1)
    z, _, _ = batch_norm2d(y, gamma, beta, np.zeros(4, np.float32), np.ones(4, np.float32),
                           training=False)
    pooled = [max_pool2d(z, 2), avg_pool2d(z, 2, stride=1)]
    for t in [y, z] + pooled:
        t._creator.saved = ()  # no positional unpacking may depend on it
    conv_op = cone._op_of(y._creator, (4, 4), (0,))
    assert (conv_op.kind, conv_op.kernel, conv_op.stride, conv_op.padding) == ("conv", (3, 3), 2, 1)
    assert (conv_op.k, conv_op.out_c) == (27, 4)
    assert cone._op_of(z._creator, (4, 4), (1,)).kind == "point"
    max_op = cone._op_of(pooled[0]._creator, (2, 2), (2,))
    avg_op = cone._op_of(pooled[1]._creator, (3, 3), (2,))
    assert isinstance(pooled[0]._creator, MaxPool2dFunction)
    assert isinstance(pooled[1]._creator, AvgPool2dFunction)
    assert (max_op.kind, max_op.kernel, max_op.stride) == ("pool", (2, 2), 2)
    assert (avg_op.kind, avg_op.kernel, avg_op.stride) == ("pool", (2, 2), 1)


def test_training_batch_norm_is_not_a_local_op():
    x = Tensor(np.random.default_rng(0).random((2, 4, 3, 3), dtype=np.float32),
               requires_grad=True)
    gamma, beta = Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32))
    z, _, _ = batch_norm2d(x, gamma, beta, np.zeros(4, np.float32), np.ones(4, np.float32),
                           training=True)
    with pytest.raises(cone._NotLocal):
        cone._op_of(z._creator, (3, 3), (0,))


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_defines_no_class_per_call(training):
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((3, 4, 5, 5)).astype(np.float32), requires_grad=True)
    gamma = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
    beta = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
    running_mean = rng.standard_normal(4).astype(np.float32)
    running_var = rng.random(4, dtype=np.float32) + 0.5
    gc.disable()  # a class made per call would survive until the next collection
    try:
        before = len(BatchNorm2dFunction.__subclasses__())
        results = [batch_norm2d(x, gamma, beta, running_mean, running_var, training)
                   for _ in range(5)]
        assert len(BatchNorm2dFunction.__subclasses__()) == before
    finally:
        gc.enable()
    out, mean, var = results[0]
    if training:
        want_mean, want_var = current_backend().batchnorm_stats(x.data)
    else:
        want_mean, want_var = running_mean, running_var
    _assert_same(mean, want_mean, "batch mean")
    _assert_same(var, want_var, "batch var")
    for other_out, other_mean, other_var in results[1:]:
        _assert_same(other_out.data, out.data, "output")
        _assert_same(other_mean, mean, "batch mean")
        _assert_same(other_var, var, "batch var")
