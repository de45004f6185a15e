"""Core tensor type and reverse-mode gradient tape.

The design follows the classic define-by-run pattern: every differentiable
operation is a :class:`Function` whose ``apply`` records itself as the
creator of its output tensor.  Calling :meth:`Tensor.backward` performs a
topological sort of the creator graph and accumulates gradients.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GradientError, ShapeError

DEFAULT_DTYPE = np.float32

_grad_state = threading.local()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the gradient tape."""
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def _grad_mode(enabled: bool):
    previous = is_grad_enabled()
    _grad_state.enabled = enabled
    try:
        yield
    finally:
        _grad_state.enabled = previous


def no_grad():
    """Context manager disabling gradient-tape recording (like torch.no_grad)."""
    return _grad_mode(False)


def enable_grad():
    """Context manager recording the gradient tape, also inside ``no_grad``."""
    return _grad_mode(True)


@contextlib.contextmanager
def frozen(tensors: Iterable["Tensor"]):
    """Turn ``requires_grad`` off on ``tensors`` for the duration of the block.

    Frozen leaves drop out of the tape, so every backward that only feeds
    them is skipped (see :attr:`Function.needs_input_grad`).  The previous
    flags are restored on exit, also when the block raises.
    """
    tensors = list(tensors)
    previous = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(tensors, previous):
            t.requires_grad = flag


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Function:
    """Base class for differentiable operations.

    Subclasses implement :meth:`forward` (producing a raw ndarray) and
    :meth:`backward` (mapping the output gradient to input gradients, in
    the same order as the forward inputs; ``None`` marks non-differentiable
    inputs).

    :attr:`needs_input_grad` holds one bool per tensor input, set when the
    node joins the tape: whether that input requires a gradient.  Backwards
    may return ``None`` for an input that needs none and skip its kernels;
    the tape discards such gradients anyway.
    """

    def __init__(self) -> None:
        self.inputs: Tuple["Tensor", ...] = ()
        self.saved: Tuple[Any, ...] = ()
        self.needs_input_grad: Tuple[bool, ...] = ()

    def save_for_backward(self, *items: Any) -> None:
        self.saved = items

    def forward(self, *args: Any, **kwargs: Any) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        raise NotImplementedError

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any) -> "Tensor":
        return cls.apply_node(*args, **kwargs)[0]

    @classmethod
    def apply_node(cls, *args: Any, **kwargs: Any) -> Tuple["Tensor", "Function"]:
        """:meth:`apply`, also returning the node that ran the forward.

        The node is returned whether or not it joined the tape, so a caller
        can read what its forward computed besides the output.
        """
        ctx = cls()
        tensor_inputs = tuple(a for a in args if isinstance(a, Tensor))
        raw_args = tuple(a.data if isinstance(a, Tensor) else a for a in args)
        out_data = ctx.forward(*raw_args, **kwargs)
        requires = is_grad_enabled() and any(t.requires_grad for t in tensor_inputs)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            ctx.inputs = tensor_inputs
            ctx.needs_input_grad = tuple(t.requires_grad for t in tensor_inputs)
            out._creator = ctx
        return out, ctx


class Tensor:
    """An n-dimensional array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float32`` unless it already has a
        floating dtype.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_creator")

    def __init__(self, data: Any, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._creator: Optional[Function] = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise GradientError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    "backward() without an explicit gradient requires a scalar output; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
            )

        topo_order: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            # Iterative DFS to avoid recursion limits on deep graphs.
            stack: List[Tuple[Tensor, bool]] = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    topo_order.append(current)
                    continue
                if id(current) in visited:
                    continue
                visited.add(id(current))
                stack.append((current, True))
                if current._creator is not None:
                    for parent in current._creator.inputs:
                        if id(parent) not in visited:
                            stack.append((parent, False))

        visit(self)

        grads = {id(self): grad}
        for node in reversed(topo_order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._creator is None:
                # Leaf: accumulate.
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
            ctx = node._creator
            if ctx is None:
                continue
            input_grads = ctx.backward(node_grad)
            if len(input_grads) != len(ctx.inputs):
                raise GradientError(
                    f"{type(ctx).__name__}.backward returned {len(input_grads)} gradients "
                    f"for {len(ctx.inputs)} inputs"
                )
            for parent, parent_grad in zip(ctx.inputs, input_grads):
                if parent_grad is None or not parent.requires_grad:
                    continue
                parent_grad = np.asarray(parent_grad, dtype=parent.data.dtype)
                existing = grads.get(id(parent))
                grads[id(parent)] = parent_grad if existing is None else existing + parent_grad
            if node is not self and node.requires_grad and node._creator is not None:
                # Interior node requested gradient retention via retain semantics:
                # we keep interior grads only when explicitly marked as leaves,
                # which plain Tensors are not; nothing to do.
                pass

    # ------------------------------------------------------------------
    # Operator plumbing (implementations live in repro.autodiff.ops)
    # ------------------------------------------------------------------
    def _binary(self, other: Any, fn: Any, reverse: bool = False) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.data.dtype))
        if reverse:
            return fn.apply(other_t, self)
        return fn.apply(self, other_t)

    def __add__(self, other: Any) -> "Tensor":
        from repro.autodiff.ops import Add

        return self._binary(other, Add)

    __radd__ = __add__

    def __sub__(self, other: Any) -> "Tensor":
        from repro.autodiff.ops import Sub

        return self._binary(other, Sub)

    def __rsub__(self, other: Any) -> "Tensor":
        from repro.autodiff.ops import Sub

        return self._binary(other, Sub, reverse=True)

    def __mul__(self, other: Any) -> "Tensor":
        from repro.autodiff.ops import Mul

        return self._binary(other, Mul)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "Tensor":
        from repro.autodiff.ops import Div

        return self._binary(other, Div)

    def __rtruediv__(self, other: Any) -> "Tensor":
        from repro.autodiff.ops import Div

        return self._binary(other, Div, reverse=True)

    def __neg__(self) -> "Tensor":
        from repro.autodiff.ops import Neg

        return Neg.apply(self)

    def __pow__(self, exponent: float) -> "Tensor":
        from repro.autodiff.ops import Pow

        return Pow.apply(self, exponent=float(exponent))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from repro.autodiff.ops import MatMul

        return self._binary(other, MatMul)

    def __getitem__(self, index: Any) -> "Tensor":
        from repro.autodiff.ops import GetItem

        return GetItem.apply(self, index=index)

    # Reductions / shape ops -------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        from repro.autodiff.ops import Sum

        return Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        from repro.autodiff.ops import Mean

        return Mean.apply(self, axis=axis, keepdims=keepdims)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        from repro.autodiff.ops import Max

        return Max.apply(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        from repro.autodiff.ops import Reshape

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Reshape.apply(self, shape=shape)

    def transpose(self, *axes: int) -> "Tensor":
        from repro.autodiff.ops import Transpose

        return Transpose.apply(self, axes=axes or None)

    def flatten_batch(self) -> "Tensor":
        """Flatten all dimensions except the leading batch dimension."""
        return self.reshape(self.shape[0], -1)

    # Elementwise ------------------------------------------------------------
    def exp(self) -> "Tensor":
        from repro.autodiff.ops import Exp

        return Exp.apply(self)

    def log(self) -> "Tensor":
        from repro.autodiff.ops import Log

        return Log.apply(self)

    def relu(self) -> "Tensor":
        from repro.autodiff.ops import ReLU

        return ReLU.apply(self)

    def sigmoid(self) -> "Tensor":
        from repro.autodiff.ops import Sigmoid

        return Sigmoid.apply(self)

    def tanh(self) -> "Tensor":
        from repro.autodiff.ops import Tanh

        return Tanh.apply(self)

    def abs(self) -> "Tensor":
        from repro.autodiff.ops import Abs

        return Abs.apply(self)

    def clip(self, low: float, high: float) -> "Tensor":
        from repro.autodiff.ops import Clip

        return Clip.apply(self, low=float(low), high=float(high))


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    from repro.autodiff.ops import Stack

    tensors = list(tensors)
    if not tensors:
        raise ShapeError("stack() requires at least one tensor")
    return Stack.apply(*tensors, axis=axis)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis (differentiable)."""
    from repro.autodiff.ops import Concat

    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat() requires at least one tensor")
    return Concat.apply(*tensors, axis=axis)
