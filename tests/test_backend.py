"""The compute kernels behind ``repro.backend.current_backend()``.

Each kernel produces the bytes of the historical code path.  The forward
GEMM is character-for-character what ``Conv2dFunction.forward`` inlined
before the kernels were lifted out; the batch-norm broadcasts and the
tap-major conv input gradient follow the layout rules of DESIGN.md
("Compute kernels"), and the tests below pin them against the expressions
they replaced, kept inline as ``ref_*`` references.  The backward kernels
skip the gradients nobody reads; a part they do compute must not depend on
which other part was skipped.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.autodiff import conv as conv_module
from repro.autodiff import norm as norm_module
from repro.autodiff.norm import BatchNorm2dFunction
from repro.backend import NumpyBackend, current_backend
from repro.backend import numpy_backend


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
    grad_mat, cols, _, weight_shape = operands
    if need_input:  # tap-major (N, C*kh*kw, L)
        assert got[0].shape == (grad_mat.shape[0], cols.shape[2], grad_mat.shape[1])
    if need_weight:
        assert got[1].shape == weight_shape


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


# ---------------------------------------------------------------------------
# The expressions the layout rules replaced, kept verbatim as references.


def ref_batchnorm_apply(x, gamma, beta, mean, var, eps):
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
    return out, x_hat, inv_std


def ref_batchnorm_backward(grad, x_hat, inv_std, gamma, training):
    axes = (0, 2, 3)
    grad_beta = grad.sum(axis=axes)
    grad_gamma = (grad * x_hat).sum(axis=axes)
    grad_xhat = grad * gamma[None, :, None, None]
    if training:
        mean_gxh = grad_xhat.mean(axis=axes)
        mean_gxh_xhat = (grad_xhat * x_hat).mean(axis=axes)
        grad_x = (
            grad_xhat
            - mean_gxh[None, :, None, None]
            - x_hat * mean_gxh_xhat[None, :, None, None]
        ) * inv_std[None, :, None, None]
    else:
        grad_x = grad_xhat * inv_std[None, :, None, None]
    return grad_x, grad_gamma, grad_beta


def ref_grad_cols(grad_mat, w_mat):
    """The historical ``(N, L, C*kh*kw)`` input-gradient GEMM."""
    return grad_mat @ w_mat


def ref_col2im(cols, x_shape, kh, kw, stride, padding, out_h, out_w):
    """The historical scatter over ``(N, L, C*kh*kw)`` patch gradients."""
    n, c, h, w = x_shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, :, :, i, j]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def ref_im2col(x, kh, kw, stride, padding):
    """The historical ``np.pad`` + gather patch extraction."""
    n, c, h, w = x.shape
    out_h = conv_module._out_size(h, kh, stride, padding)
    out_w = conv_module._out_size(w, kw, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_pad, w_pad = x.shape[2], x.shape[3]
    index = conv_module._im2col_index(c, h_pad, w_pad, kh, kw, stride, out_h, out_w)
    return np.take(x.reshape(n, c * h_pad * w_pad), index, axis=1), out_h, out_w


# ---------------------------------------------------------------------------
# Per-channel broadcasts: same values and strides in every memory order


def _activation(rng, shape, layout, dtype):
    """An (N, C, H, W) array stored NCHW, NHWC or as a padded slice."""
    n, c, h, w = shape
    if layout == "nhwc":  # what Conv2dFunction.forward returns
        return rng.standard_normal((n, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)
    if layout == "nchw":
        return rng.standard_normal(shape).astype(dtype)
    big = rng.standard_normal((n, c, h + 2, w + 2)).astype(dtype)
    return big[:, :, 1:-1, 1:-1]


LAYOUTS = ["nhwc", "nchw", "padded"]
BN_SHAPE = (3, 5, 6, 7)


def _assert_same_array(got, want, what):
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    assert got.strides == want.strides, f"{what}: strides {got.strides} != {want.strides}"
    assert got.tobytes() == want.tobytes(), f"{what}: values differ"


def _bn_vectors(rng, c, dtype):
    gamma, beta, mean = (rng.standard_normal(c).astype(dtype) for _ in range(3))
    var = rng.random(c).astype(dtype) + dtype(0.5)
    return gamma, beta, mean, var


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_per_channel_matches_the_plain_broadcast(layout, dtype):
    rng = np.random.default_rng(20)
    like = _activation(rng, BN_SHAPE, layout, dtype)
    v = rng.standard_normal(BN_SHAPE[1]).astype(dtype)
    got = numpy_backend.per_channel(v, like)
    assert got.shape == (1,) + BN_SHAPE[1:] and got.dtype == v.dtype
    np.testing.assert_array_equal(got, np.broadcast_to(v[None, :, None, None], got.shape))
    # One sample is allocated, in the memory order of one sample of ``like``.
    assert got.base is not None and got.base.size == like[0].size
    assert np.argsort(got.strides[1:]).tolist() == np.argsort(like.strides[1:]).tolist()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_batchnorm_apply_matches_plain_broadcast_in_values_and_strides(layout, dtype):
    rng = np.random.default_rng(21)
    x = _activation(rng, BN_SHAPE, layout, dtype)
    gamma, beta, mean, var = _bn_vectors(rng, BN_SHAPE[1], dtype)
    got = current_backend().batchnorm_apply(x, gamma, beta, mean, var, 1e-5)
    want = ref_batchnorm_apply(x, gamma, beta, mean, var, 1e-5)
    for name, g, w in zip(("out", "x_hat", "inv_std"), got, want):
        _assert_same_array(g, w, f"batchnorm_apply {name} ({layout}, {dtype.__name__})")


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("xhat_layout", LAYOUTS)
@pytest.mark.parametrize("grad_layout", LAYOUTS)
def test_batchnorm_backward_matches_plain_broadcast_in_values_and_strides(
    grad_layout, xhat_layout, dtype, training
):
    rng = np.random.default_rng(22)
    x = _activation(rng, BN_SHAPE, xhat_layout, dtype)
    gamma, beta, mean, var = _bn_vectors(rng, BN_SHAPE[1], dtype)
    _, x_hat, inv_std = ref_batchnorm_apply(x, gamma, beta, mean, var, 1e-5)
    grad = _activation(rng, BN_SHAPE, grad_layout, dtype)
    ctx = BatchNorm2dFunction()
    ctx.save_for_backward(x_hat, inv_std, gamma, training)
    ctx.needs_input_grad = (True, True, True)
    got = ctx.backward(grad)
    want = ref_batchnorm_backward(grad, x_hat, inv_std, gamma, training)
    for name, g, w in zip(("grad_x", "grad_gamma", "grad_beta"), got, want):
        _assert_same_array(g, w, f"BN backward {name} ({grad_layout}/{xhat_layout})")


# ---------------------------------------------------------------------------
# Tap-major conv input gradient on every conv and pool geometry of the zoo

ZOO = [("tinycnn", 1.0), ("tinycnn", 0.25), ("resnet20", 0.25), ("resnet20", 1.0),
       ("vgg11", 0.25), ("vgg11", 1.0)]
BATCHES = [1, 32, 128, 300]
BLAS_ASSUMPTION = (
    "BLAS assumption broken: the transposed GEMM (w_mat.T @ grad_mat^T) must give "
    "the same products as grad_mat @ w_mat, element for element"
)


@functools.lru_cache(maxsize=None)
def zoo_geometries():
    """``(kind, in_c, h, w, out_c, k, stride, padding)`` of every conv and pool."""
    from repro.autodiff import Tensor, no_grad
    from repro.models import build_model

    seen = []
    originals = {
        cls: cls.forward
        for cls in (conv_module.Conv2dFunction, conv_module.MaxPool2dFunction,
                    conv_module.AvgPool2dFunction)
    }

    def recording(cls):
        def forward(self, x, *args, **kwargs):
            if cls is conv_module.Conv2dFunction:
                weight, _, stride, padding = args
                out_c, _, k, _ = weight.shape
                geometry = ("conv",) + x.shape[1:] + (out_c, k, stride, padding)
            else:
                geometry = (cls.__name__[:7].lower(),) + x.shape[1:] + (
                    x.shape[1], kwargs["kernel"], kwargs["stride"], 0)
            if geometry not in seen:
                seen.append(geometry)
            return originals[cls](self, x, *args, **kwargs)
        return forward

    try:
        for cls in originals:
            cls.forward = recording(cls)
        for name, width in ZOO:
            model = build_model(name, num_classes=10, width=width, rng=0)
            model.eval()
            with no_grad():
                model(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))
    finally:
        for cls, forward in originals.items():
            cls.forward = forward
    return tuple(seen)


def test_zoo_geometries_cover_convs_and_pools():
    kinds = {g[0] for g in zoo_geometries()}
    assert kinds == {"conv", "maxpool"}
    assert any(g[6] == 2 for g in zoo_geometries() if g[0] == "conv")  # strided
    assert any(g[5] == 1 for g in zoo_geometries() if g[0] == "conv")  # 1x1


def _check_tap_major(geometry, batch, dtype, seed, exact=True):
    kind, c, h, w, out_c, k, stride, padding = geometry
    out_h = conv_module._out_size(h, k, stride, padding)
    out_w = conv_module._out_size(w, k, stride, padding)
    n, big_k, big_l = batch, c * k * k, out_h * out_w
    x_shape = (n, c, h, w)
    rng = np.random.default_rng(seed)
    if kind == "conv":
        # The upstream gradient of a conv output is NHWC in memory.
        grad = _activation(rng, (n, out_c, out_h, out_w), "nhwc", dtype)
        grad_mat = grad.reshape(n, out_c, big_l).transpose(0, 2, 1)
        w_mat = rng.standard_normal((out_c, big_k)).astype(dtype)
        got_cols, _ = current_backend().conv_grads(
            grad_mat, None, w_mat, (out_c, c, k, k), need_weight=False
        )
        want_cols = ref_grad_cols(grad_mat, w_mat)
        assert got_cols.shape == (n, big_k, big_l)
        if not exact:  # within the rounding bound of an out_c-term dot product
            bound = 2 * out_c * np.finfo(dtype).eps * (np.abs(grad_mat) @ np.abs(w_mat))
            assert np.all(np.abs(got_cols - want_cols.transpose(0, 2, 1))
                          <= bound.transpose(0, 2, 1))
            return
        assert got_cols.tobytes() == np.ascontiguousarray(
            want_cols.transpose(0, 2, 1)).tobytes(), BLAS_ASSUMPTION
    else:  # the poolings hand col2im a transposed view of (N, L, C*k*k)
        want_cols = rng.standard_normal((n, big_l, big_k)).astype(dtype)
        got_cols = want_cols.transpose(0, 2, 1)
    got = current_backend().im2col_backward(
        got_cols, x_shape, k, k, stride, padding, out_h, out_w
    )
    want = ref_col2im(want_cols, x_shape, k, k, stride, padding, out_h, out_w)
    _assert_same_array(got, want, f"col2im {geometry} batch {batch}")


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("geometry", zoo_geometries(), ids=str)
def test_tap_major_input_gradient_matches_historical_gemm_and_scatter(geometry, batch):
    _check_tap_major(geometry, batch, np.float32, seed=batch)


@pytest.mark.parametrize("batch", BATCHES[:2])
@pytest.mark.parametrize("geometry", zoo_geometries(), ids=str)
def test_tap_major_input_gradient_agrees_in_float64(geometry, batch):
    # The byte contract is float32, the only dtype models train and attack
    # in.  In float64 the transposed GEMM may round differently: scipy-openblas
    # 0.3.31's dgemm sums the 3 remainder taps of a 3->16 stem conv (K=27,
    # out_c=16) in another order, a few 1e-15 off.  col2im stays exact.
    # Small batches only: batch 300 would need about 1 GB here.
    _check_tap_major(geometry, batch, np.float64, seed=batch + 1, exact=False)


@pytest.mark.parametrize("padding", [0, 1, 2])
def test_im2col_matches_np_pad_reference(padding):
    rng = np.random.default_rng(23)
    for layout in LAYOUTS:
        x = _activation(rng, (2, 3, 7, 6), layout, np.float32)
        got = conv_module._im2col(x, 3, 3, 1, padding)
        want = ref_im2col(x, 3, 3, 1, padding)
        assert got[1:] == want[1:]
        _assert_same_array(got[0], want[0], f"im2col ({layout}, padding {padding})")


@pytest.mark.parametrize("pool", ["max_pool2d", "avg_pool2d"])
def test_pool_backward_matches_historical_scatter(pool):
    from repro.autodiff import Tensor

    rng = np.random.default_rng(24)
    x = Tensor(_activation(rng, (3, 4, 8, 8), "nhwc", np.float32), requires_grad=True)
    out = getattr(conv_module, pool)(x, 2)
    grad = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(grad)
    # The historical backward: (N, L, C*k*k) columns through the old scatter.
    n, c, out_h, out_w = out.shape
    grad_flat = grad.reshape(n, c, out_h * out_w).transpose(0, 2, 1)
    cols = conv_module._im2col(x.data, 2, 2, 2, 0)[0].reshape(n, out_h * out_w, c, 4)
    if pool == "max_pool2d":
        grad_cols = np.zeros(cols.shape, dtype=np.float32)
        np.put_along_axis(grad_cols, cols.argmax(axis=3)[..., None], grad_flat[..., None], axis=3)
    else:
        grad_cols = np.broadcast_to(grad_flat[..., None] / 4, cols.shape)
    want = ref_col2im(grad_cols.reshape(n, out_h * out_w, c * 4), x.shape, 2, 2, 2, 0, out_h, out_w)
    _assert_same_array(x.grad, want, pool)


# ---------------------------------------------------------------------------
# Training bytes: the new kernels against the historical ones, end to end


class _ReferenceKernels(NumpyBackend):
    """The historical conv backward: ``(N, L, C*kh*kw)`` grad columns.

    It speaks the tap-major interface through transposed views only, so the
    GEMM and scatter it runs are the historical expressions on the
    historical operands.
    """

    def conv_grads(self, grad_mat, cols, w_mat, weight_shape, *,
                   need_input=True, need_weight=True):
        _, grad_w = super().conv_grads(
            grad_mat, cols, w_mat, weight_shape, need_input=False, need_weight=need_weight
        )
        grad_cols = ref_grad_cols(grad_mat, w_mat).transpose(0, 2, 1) if need_input else None
        return grad_cols, grad_w

    def im2col_backward(self, cols, *args):
        return ref_col2im(cols.transpose(0, 2, 1), *args)


def _train_bytes(model_name):
    from repro.core.training import TrainingConfig, train_model
    from repro.data.dataset import ArrayDataset
    from repro.models import build_model

    rng = np.random.default_rng(25)
    data = ArrayDataset(rng.random((12, 3, 32, 32), dtype=np.float32), rng.integers(0, 10, 12))
    model = build_model(model_name, num_classes=10, width=0.25, rng=0)
    train_model(model, data, TrainingConfig(epochs=2, batch_size=6, seed=0))
    return {name: (value.dtype, value.shape, value.tobytes())
            for name, value in model.state_dict().items()}


@pytest.mark.parametrize("model_name", ["resnet20", "vgg11"])
def test_training_bytes_match_the_historical_kernels(model_name, monkeypatch):
    new = _train_bytes(model_name)
    def plain_broadcast(v, like):
        return v[None, :, None, None]

    monkeypatch.setattr(numpy_backend, "per_channel", plain_broadcast)
    monkeypatch.setattr(norm_module, "per_channel", plain_broadcast)
    monkeypatch.setattr(conv_module, "_im2col", ref_im2col)
    monkeypatch.setattr("repro.backend._BACKEND", _ReferenceKernels())
    old = _train_bytes(model_name)
    assert any(name.endswith("running_mean") for name in new)
    differ = sorted(name for name in new if new[name] != old[name])
    assert not differ, f"parameters or running statistics differ: {differ}"
