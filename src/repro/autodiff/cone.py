"""The trigger's cone: recompute a stamped pass only where it differs.

A stamped image differs from its clean image only inside the trigger's
bounding box.  A local op -- a convolution or pooling, an eval-mode batch
norm, a ReLU, a residual add -- spreads that difference to a box of its
output that follows from its kernel, stride and padding.  So each leading
stage of a model whose output differs from the clean output only on a
sub-box can run on a crop of its input (:class:`Crop`), and its window can
be pasted into a copy of the clean output (:class:`Paste`).  The gradient
flows back only through the crops.  CFT's trigger steps
(:mod:`repro.attacks.cft`) differentiate through the crops; the
evaluation engine's stamped twins (:meth:`repro.engine.EvalEngine.stamp`)
run them under ``no_grad`` over cached clean stage outputs.

Byte identity with the full pass rests on three rules (DESIGN.md, "The
trigger's cone"):

- *Geometry* (:func:`plan_stage`): each stage's window is derived from the
  ops it ran in a taped pass: CFT's first stamped pass of an attack, which
  runs in full, or, for the engine, one zero image (:func:`plan`).  The
  crop covers every input its window
  reads, starts at a multiple of the stage's stride and ends on one (or on
  the map's edge), so every conv in the crop sees the same patches on the
  same output grid, and zero padding only where the full map has it.
- *GEMMs*: a cropped conv has few patch rows per sample, and BLAS may
  round a short GEMM differently.  Cropped stages run their forward GEMMs
  over the batch's stacked rows (:func:`repro.autodiff.conv.stacked_rows`),
  and only where :func:`stacked_gemm_matches` found, once per batch size
  and conv geometry, that this reproduces the full map's rows byte for
  byte.
- *Layouts*: the pasted clean output keeps the full pass's memory order,
  and the backward zero-fills in the incoming gradient's memory order, so
  every later reduction and GEMM sees the operand layouts of the full pass.

The gradient a crop passes back is exact inside the box where its input
differs and zero elsewhere.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import ops
from repro.autodiff.conv import (
    AvgPool2dFunction,
    Conv2dFunction,
    MaxPool2dFunction,
    stacked_rows,
)
from repro.autodiff.norm import BatchNorm2dFunction
from repro.autodiff.tensor import Function, Tensor, enable_grad

# A spatial box: rows [r0, r1) and columns [c0, c1).
Box = Tuple[int, int, int, int]
# One axis of a box: [start, stop), or None when empty.
Span = Optional[Tuple[int, int]]


def bounding_box(mask: np.ndarray) -> Optional[Box]:
    """Bounding box of a ``(C, H, W)`` mask's True pixels (None when empty)."""
    rows = np.flatnonzero(mask.any(axis=(0, 2)))
    cols = np.flatnonzero(mask.any(axis=(0, 1)))
    if rows.size == 0:
        return None
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def unclipped(images: np.ndarray, box: Box, clip_range: Tuple[float, float]) -> np.ndarray:
    """Per image, whether every pixel outside ``box`` lies in ``clip_range``.

    Stamping a trigger clips every pixel, so an image is its own stamp
    outside the trigger's box only where this holds.
    """
    outside = np.ones(images.shape[2:], dtype=bool)
    outside[region(box)[2:]] = False
    low, high = clip_range
    values = images[:, :, outside]
    return ((values >= low) & (values <= high)).all(axis=(1, 2))


def _zeros_laid_out_like(shape: Sequence[int], like: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` whose axes lie in memory in ``like``'s stride order."""
    order = np.argsort([-stride for stride in like.strides], kind="stable")
    out = np.zeros([shape[axis] for axis in order], dtype=like.dtype)
    return out.transpose(np.argsort(order))


def _shift(box: Box, origin: Box) -> Box:
    """``box`` in the coordinates of a map whose full-map box is ``origin``."""
    return box[0] - origin[0], box[1] - origin[0], box[2] - origin[2], box[3] - origin[2]


def region(box: Box, origin: Box = (0, 0, 0, 0)) -> Tuple[slice, slice, slice, slice]:
    """NCHW index of ``box`` on a map whose full-map box is ``origin``."""
    r0, r1, c0, c1 = _shift(box, origin)
    return slice(None), slice(None), slice(r0, r1), slice(c0, c1)


class Crop(Function):
    """``x[:, :, box]``; the gradient flows back only inside ``grad_box``."""

    def forward(self, x: np.ndarray, box: Box, grad_box: Box) -> np.ndarray:
        self.save_for_backward(x.shape, box, grad_box)
        return x[region(box)]

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        shape, box, grad_box = self.saved
        out = _zeros_laid_out_like(shape, grad)
        out[region(grad_box)] = grad[region(grad_box, box)]
        return (out,)


class Paste(Function):
    """``base`` with ``window[:, :, src]`` written over ``base[:, :, dst]``.

    ``base`` is a fresh array of clean values, written in place; only the
    window is differentiated.
    """

    def forward(self, window: np.ndarray, base: np.ndarray, src: Box, dst: Box) -> np.ndarray:
        base[region(dst)] = window[region(src)]
        self.save_for_backward(window.shape, src, dst)
        return base

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        shape, src, dst = self.saved
        out = _zeros_laid_out_like(shape, grad)
        out[region(src)] = grad[region(dst)]
        return (out,)


# ---------------------------------------------------------------------------
# Geometry
@dataclasses.dataclass(frozen=True)
class ConvGeometry:
    """One conv of a cropped stage: its full-map and cropped output grids."""

    out_hw: Tuple[int, int]
    crop_hw: Tuple[int, int]
    origin: Tuple[int, int]  # the crop grid's first row and column on the full grid
    k: int  # patch length C*kh*kw
    out_c: int


@dataclasses.dataclass(frozen=True)
class StageWindow:
    """How one stage runs on a crop of its input."""

    crop: Box  # the input crop
    differs: Box  # the input box that differs from clean: its gradient is exact
    src: Box  # the window in the crop output's coordinates
    dst: Box  # the window on the full output: where it differs from clean
    convs: Tuple[ConvGeometry, ...]
    out_hw: Tuple[int, int]
    kept: Box  # the output box the pass reads: the next window's crop, or the map

    @property
    def whole(self) -> bool:
        """Whether the pass reads this stage's whole output map."""
        return self.kept == (0, self.out_hw[0], 0, self.out_hw[1])


@dataclasses.dataclass(frozen=True)
class _Op:
    kind: str  # "conv", "pool", "point" or "add"
    srcs: Tuple[int, ...]  # node indices of the data inputs (0 is the stage input)
    kernel: Tuple[int, int] = (1, 1)
    stride: int = 1
    padding: int = 0
    out_hw: Tuple[int, int] = (0, 0)
    k: int = 0
    out_c: int = 0


class _NotLocal(Exception):
    """The stage runs an op whose output is not a local function of its input."""


def _op_of(fn: Function, out_hw: Tuple[int, int], srcs: Tuple[int, ...]) -> _Op:
    if isinstance(fn, Conv2dFunction):
        weight = fn.weight
        return _Op("conv", srcs, fn.kernel, fn.stride, fn.padding, out_hw,
                   int(np.prod(weight.shape[1:])), int(weight.shape[0]))
    if isinstance(fn, (MaxPool2dFunction, AvgPool2dFunction)):
        return _Op("pool", srcs, (fn.kernel, fn.kernel), fn.stride, 0, out_hw)
    if isinstance(fn, ops.Add) and fn.saved[0] == fn.saved[1]:
        return _Op("add", srcs, out_hw=out_hw)
    if isinstance(fn, ops.ReLU) or (isinstance(fn, BatchNorm2dFunction) and not fn.training):
        return _Op("point", srcs, out_hw=out_hw)
    raise _NotLocal(type(fn).__name__)


def _trace(x: Tensor, y: Tensor) -> List[_Op]:
    """The ops that computed ``y`` from the taped leaf ``x``, inputs first.

    Op ``i`` produces node ``i + 1``; node 0 is ``x``.  Every data input
    must be ``x`` or another traced op's output, and every other input (a
    weight, a batch-norm affine) a leaf.
    """
    nodes = {id(x): 0}
    traced: List[_Op] = []

    def node(t: Tensor) -> int:
        if id(t) in nodes:
            return nodes[id(t)]
        fn = t._creator
        if fn is None or t.ndim != 4:
            raise _NotLocal("input is not the stage input")
        data = fn.inputs if isinstance(fn, ops.Add) else fn.inputs[:1]
        if any(other._creator is not None for other in fn.inputs[len(data):]):
            raise _NotLocal("a non-data input depends on the stage input")
        srcs = tuple(node(d) for d in data)
        traced.append(_op_of(fn, tuple(t.shape[2:]), srcs))
        nodes[id(t)] = len(traced)
        return len(traced)

    node(y)
    return traced


def _union(a: Span, b: Span) -> Span:
    if a is None or b is None:
        return a if b is None else b
    return min(a[0], b[0]), max(a[1], b[1])


def _footprint(span: Span, k: int, s: int, p: int, n_out: int) -> Span:
    """Outputs whose patch overlaps ``span`` of the input."""
    if span is None:
        return None
    lo = max(0, -(-(span[0] + p - k + 1) // s))
    hi = min(n_out, (span[1] - 1 + p) // s + 1)
    return (lo, hi) if lo < hi else None


def _receptive(span: Span, k: int, s: int, p: int, n_in: int) -> Span:
    """Inputs that the outputs in ``span`` read."""
    if span is None:
        return None
    return max(0, span[0] * s - p), min(n_in, (span[1] - 1) * s - p + k)


def _window_axis(
    traced: List[_Op], in_size: int, span: Span, axis: int
) -> Tuple[Span, Optional[tuple]]:
    """One axis of a stage window: (output span that differs, crop plan or None).

    The crop plan is ``(crop, src, sizes, origins)`` with per-node crop sizes
    and grid origins; None when the crop would be the whole input.
    """
    sizes_full = [in_size] + [op.out_hw[axis] for op in traced]
    diff: List[Span] = [span]
    stride = [1]
    for op in traced:
        srcs = [diff[i] for i in op.srcs]
        if op.kind in ("conv", "pool"):
            k, n_out = op.kernel[axis], sizes_full[len(diff)]
            diff.append(_footprint(srcs[0], k, op.stride, op.padding, n_out))
            stride.append(stride[op.srcs[0]] * op.stride)
        else:
            if len({stride[i] for i in op.srcs}) != 1:
                raise _NotLocal("residual inputs on different grids")
            diff.append(functools.reduce(_union, srcs))
            stride.append(stride[op.srcs[0]])
    out = diff[-1]
    if out is None:
        return None, None
    need: List[Span] = [None] * len(diff)
    need[-1] = out
    for index in range(len(traced), 0, -1):
        op = traced[index - 1]
        wanted = need[index]
        if op.kind in ("conv", "pool"):
            wanted = _receptive(wanted, op.kernel[axis], op.stride, op.padding,
                                sizes_full[op.srcs[0]])
        for src in op.srcs:
            need[src] = _union(need[src], wanted)
    lo, hi = _union(need[0], span)
    total = stride[-1]
    lo, hi = lo // total * total, min(in_size, -(-hi // total) * total)
    if (lo, hi) == (0, in_size):
        return out, None
    sizes = [hi - lo]
    for op in traced:
        src_sizes = [sizes[i] for i in op.srcs]
        if op.kind in ("conv", "pool"):
            size = (src_sizes[0] + 2 * op.padding - op.kernel[axis]) // op.stride + 1
            if size < 1:
                return out, None
        elif len(set(src_sizes)) != 1:
            return out, None
        else:
            size = src_sizes[0]
        sizes.append(size)
    origins = [lo // s for s in stride]
    if not (origins[-1] <= out[0] and out[1] <= origins[-1] + sizes[-1] <= sizes_full[-1]):
        return out, None
    return out, ((lo, hi), (out[0] - origins[-1], out[1] - origins[-1]), sizes, origins)


def plan_stage(x: Tensor, y: Tensor, box: Box) -> Tuple[Optional[StageWindow], Optional[Box]]:
    """Plan the stage that computed ``y`` from the taped leaf ``x``.

    ``box`` is where the stage's input differs from the clean input.
    Returns the stage's window (None: it runs on the full map) and the box
    where its output differs -- None when no later stage can be windowed
    (a non-local op, or an output that differs everywhere).
    """
    if x.ndim != 4 or y.ndim != 4:
        return None, None
    try:
        traced = _trace(x, y)
        rows, row_plan = _window_axis(traced, x.shape[2], box[:2], 0)
        cols, col_plan = _window_axis(traced, x.shape[3], box[2:], 1)
    except _NotLocal:
        return None, None
    if rows is None or cols is None:
        return None, None
    out = rows + cols
    whole = (rows, cols) == ((0, y.shape[2]), (0, y.shape[3]))
    if whole or row_plan is None or col_plan is None:
        return None, None if whole else out
    (crop_r, src_r, sizes_r, origins_r), (crop_c, src_c, sizes_c, origins_c) = row_plan, col_plan
    convs = tuple(
        ConvGeometry(op.out_hw, (sizes_r[i + 1], sizes_c[i + 1]),
                     (origins_r[i + 1], origins_c[i + 1]), op.k, op.out_c)
        for i, op in enumerate(traced) if op.kind == "conv"
    )
    out_hw = tuple(y.shape[2:])
    window = StageWindow(crop=crop_r + crop_c, differs=box, src=src_r + src_c, dst=out,
                         convs=convs, out_hw=out_hw, kept=(0, out_hw[0], 0, out_hw[1]))
    return window, out


def plan(stages: Sequence, shape: Sequence[int], box: Box) -> List[Optional[StageWindow]]:
    """The windows of ``stages`` for images of ``shape`` stamped on ``box``.

    Planned on a taped pass of one zero image: a window depends on the
    stages' ops and geometry, not on the values or the batch size.  The
    stages run in their current mode, so call it in eval mode (a
    train-mode batch norm is not local, and its pass would move the
    running statistics).  One entry per leading stage up to the first
    whose output differs everywhere or not locally; None runs on the full
    map.  Each window keeps its whole output map (see :func:`link`).
    """
    x = Tensor(np.zeros((1,) + tuple(shape), dtype=np.float32), requires_grad=True)
    windows: List[Optional[StageWindow]] = []
    with enable_grad():
        for stage in stages:
            if box is None:
                break
            y = stage.fn(x)
            window, box = plan_stage(x, y, box)
            windows.append(window)
            x = y
    return windows


def link(windows: Sequence[Optional[StageWindow]]) -> List[Optional[StageWindow]]:
    """The planned windows, each keeping only what the next window's crop reads.

    Trailing stages without a window are dropped: they run on the full map.
    """
    linked = list(windows)
    while linked and linked[-1] is None:
        linked.pop()
    for index, window in enumerate(linked[:-1]):
        following = linked[index + 1]
        if window is not None and following is not None:
            linked[index] = dataclasses.replace(window, kept=following.crop)
    return linked


def usable(windows: Sequence[Optional[StageWindow]], n: int) -> List[Optional[StageWindow]]:
    """The windows a batch of ``n`` runs on its crops.

    Every cropped conv must pass :func:`stacked_gemm_matches`, and a window
    that keeps only part of its output must be followed by a usable one.
    """
    out: List[Optional[StageWindow]] = [None] * len(windows)
    following = False
    for index in range(len(windows) - 1, -1, -1):
        window = windows[index]
        following = (window is not None and (window.whole or following)
                     and all(stacked_gemm_matches(n, conv) for conv in window.convs))
        out[index] = window if following else None
    return out


# ---------------------------------------------------------------------------
# The byte check and the windowed pass
@functools.lru_cache(maxsize=256)
def stacked_gemm_matches(n: int, conv: ConvGeometry) -> bool:
    """Whether a stacked GEMM over ``n`` crops reproduces the full map's rows.

    A probe on random data of the real shapes and layouts: one sample's
    full ``(L, K)`` patch matrix through the per-sample GEMM (whose rows do
    not depend on the batch size), against its crop rows repeated for
    ``n`` samples through one 2-D GEMM.  Decided once per geometry and
    batch size.
    """
    from repro.backend import current_backend

    (out_h, out_w), (crop_h, crop_w), (top, left) = conv.out_hw, conv.crop_hw, conv.origin
    rows = ((top + np.arange(crop_h))[:, None] * out_w + left + np.arange(crop_w)).reshape(-1)
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((1, out_h * out_w, conv.k), dtype=np.float32)
    w_mat = rng.standard_normal((conv.out_c, conv.k), dtype=np.float32)
    backend = current_backend()
    full = backend.conv_cols_matmul(cols, w_mat)[0, rows]
    stacked = backend.conv_cols_matmul(np.tile(cols[0, rows], (n, 1)), w_mat)
    return stacked.tobytes() == np.tile(full, (n, 1)).tobytes()


def forward(
    stages: Sequence,
    windows: Sequence[Optional[StageWindow]],
    x: Tensor,
    clean_output: Callable[[int], np.ndarray],
) -> Tensor:
    """Run ``stages`` on ``x``, each stage ``i`` with a window on its crop.

    ``clean_output(i)`` returns a fresh array of stage ``i``'s clean output
    for the batch on the window's ``kept`` box, in the full pass's memory
    order.  Stages without a window (and past ``windows``) run on the full
    map, so ``windows`` must come from :func:`usable`.
    """
    at = (0, x.shape[2], 0, x.shape[3])  # the box of the map ``x`` holds
    for index, stage in enumerate(stages):
        window = windows[index] if index < len(windows) else None
        if window is None:
            x = stage.fn(x)
            continue
        x = run_window(stage, window, x, clean_output(index), at)
        at = window.kept
    return x


def run_window(
    stage, window: StageWindow, x: Tensor, base: np.ndarray, at: Optional[Box] = None
) -> Tensor:
    """``stage`` on the crop of ``x``, its window pasted over ``base``.

    ``x`` holds the box ``at`` of the stage input's map (default: the
    whole map).  ``base`` is a fresh array of the stage's clean output on
    the window's ``kept`` box, in the full pass's memory order; it is
    written in place and returned inside the output tensor.
    """
    if at is None:
        at = (0, x.shape[2], 0, x.shape[3])
    crop = Crop.apply(x, box=_shift(window.crop, at), grad_box=_shift(window.differs, at))
    with stacked_rows():
        out = stage.fn(crop)
    return Paste.apply(out, base, src=window.src, dst=_shift(window.dst, window.kept))
