"""Elementwise, linear-algebra and shape operations for the autograd engine."""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autodiff.tensor import Function, _unbroadcast

Axis = Optional[Union[int, Tuple[int, ...]]]


class Add(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a.shape, b.shape)
        return a + b

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        a_shape, b_shape = self.saved
        return _unbroadcast(grad, a_shape), _unbroadcast(grad, b_shape)


class Sub(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a.shape, b.shape)
        return a - b

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        a_shape, b_shape = self.saved
        return _unbroadcast(grad, a_shape), _unbroadcast(-grad, b_shape)


class Mul(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a * b

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        a, b = self.saved
        return _unbroadcast(grad * b, a.shape), _unbroadcast(grad * a, b.shape)


class Div(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a / b

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        a, b = self.saved
        grad_a = _unbroadcast(grad / b, a.shape)
        grad_b = _unbroadcast(-grad * a / (b * b), b.shape)
        return grad_a, grad_b


class Neg(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        return -a

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        return (-grad,)


class Pow(Function):
    def forward(self, a: np.ndarray, exponent: float) -> np.ndarray:
        self.save_for_backward(a, exponent)
        return a**exponent

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        a, exponent = self.saved
        return (grad * exponent * a ** (exponent - 1),)


class Exp(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        (out,) = self.saved
        return (grad * out,)


class Log(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.save_for_backward(a)
        return np.log(a)

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        (a,) = self.saved
        return (grad / a,)


class ReLU(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        mask = a > 0
        self.save_for_backward(mask)
        return a * mask

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        (mask,) = self.saved
        return (grad * mask,)


class Sigmoid(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-a))
        self.save_for_backward(out)
        return out

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        (out,) = self.saved
        return (grad * out * (1.0 - out),)


class Tanh(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.tanh(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        (out,) = self.saved
        return (grad * (1.0 - out * out),)


class Abs(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.save_for_backward(np.sign(a))
        return np.abs(a)

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        (sign,) = self.saved
        return (grad * sign,)


class Clip(Function):
    def forward(self, a: np.ndarray, low: float, high: float) -> np.ndarray:
        mask = (a >= low) & (a <= high)
        self.save_for_backward(mask)
        return np.clip(a, low, high)

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        (mask,) = self.saved
        return (grad * mask,)


class MatMul(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a @ b

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        a, b = self.saved
        grad_a = grad @ np.swapaxes(b, -1, -2)
        grad_b = np.swapaxes(a, -1, -2) @ grad
        return _unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape)


class LinearFunction(Function):
    """Fused dense layer ``x @ w.T (+ b)`` delegating to the backend kernels.

    Replaces the ``Transpose`` + ``MatMul`` + ``Add`` tape triple that
    ``nn.Linear`` historically built with a single node.  The backend
    kernels replay the exact numeric sequence of that triple (including
    the ``_unbroadcast`` reductions), so forward outputs and all three
    gradients are byte-identical to the unfused path; fusing only removes
    tape bookkeeping and lets the kernels see the whole dense op at once.

    ``w_t`` arrives as a keyword (non-differentiable) argument: the layer
    passes its cached transposed *view* so repeated calls do not re-derive
    it, and the kernels see the same operand layout as ``x @ w.transpose()``.

    The backward asks the backend only for the gradients the inputs need
    (:attr:`~repro.autodiff.tensor.Function.needs_input_grad`).
    """

    def forward(
        self,
        x: np.ndarray,
        w: np.ndarray,
        b: Optional[np.ndarray],
        w_t: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        from repro.backend import current_backend

        if w_t is None:
            w_t = np.transpose(w)
        self.save_for_backward(x, w_t, None if b is None else b.shape)
        return current_backend().linear(x, w_t, b)

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        from repro.backend import current_backend

        x, w_t, bias_shape = self.saved
        need_x, need_w = self.needs_input_grad[:2]
        # A bias that needs no gradient goes in as bias_shape=None, which
        # skips its reduction.
        need_b = bias_shape is not None and self.needs_input_grad[2]
        grad_x, grad_w, grad_b = current_backend().linear_grads(
            grad, x, w_t, bias_shape if need_b else None,
            need_input=need_x, need_weight=need_w,
        )
        if bias_shape is None:
            return grad_x, grad_w
        return grad_x, grad_w, grad_b


class Sum(Function):
    def forward(self, a: np.ndarray, axis: Axis, keepdims: bool) -> np.ndarray:
        self.save_for_backward(a.shape, axis, keepdims)
        return a.sum(axis=axis, keepdims=keepdims)

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        shape, axis, keepdims = self.saved
        grad = _restore_reduced(grad, shape, axis, keepdims)
        return (np.broadcast_to(grad, shape).copy(),)


class Mean(Function):
    def forward(self, a: np.ndarray, axis: Axis, keepdims: bool) -> np.ndarray:
        self.save_for_backward(a.shape, axis, keepdims)
        return a.mean(axis=axis, keepdims=keepdims)

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        shape, axis, keepdims = self.saved
        count = _reduced_count(shape, axis)
        grad = _restore_reduced(grad, shape, axis, keepdims)
        return (np.broadcast_to(grad, shape) / count,)


class Max(Function):
    def forward(self, a: np.ndarray, axis: Optional[int], keepdims: bool) -> np.ndarray:
        out = a.max(axis=axis, keepdims=keepdims)
        self.save_for_backward(a, out, axis, keepdims)
        return out

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        a, out, axis, keepdims = self.saved
        out_full = _restore_reduced(out, a.shape, axis, keepdims)
        grad_full = _restore_reduced(grad, a.shape, axis, keepdims)
        mask = (a == out_full).astype(a.dtype)
        # Split gradient equally among ties, matching NumPy reductions.
        counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        return (grad_full * mask / counts,)


class Reshape(Function):
    def forward(self, a: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
        self.save_for_backward(a.shape)
        return a.reshape(shape)

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        (shape,) = self.saved
        return (grad.reshape(shape),)


class Transpose(Function):
    def forward(self, a: np.ndarray, axes: Optional[Tuple[int, ...]]) -> np.ndarray:
        self.save_for_backward(a.ndim, axes)
        return np.transpose(a, axes)

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        ndim, axes = self.saved
        if axes is None:
            return (np.transpose(grad),)
        inverse = np.argsort(axes)
        return (np.transpose(grad, inverse),)


class GetItem(Function):
    def forward(self, a: np.ndarray, index: Any) -> np.ndarray:
        self.save_for_backward(a.shape, index)
        return a[index]

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        shape, index = self.saved
        out = np.zeros(shape, dtype=grad.dtype)
        np.add.at(out, index, grad)
        return (out,)


class Stack(Function):
    def forward(self, *arrays: np.ndarray, axis: int) -> np.ndarray:
        self.save_for_backward(axis, len(arrays))
        return np.stack(arrays, axis=axis)

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        axis, count = self.saved
        pieces = np.split(grad, count, axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)


class Concat(Function):
    def forward(self, *arrays: np.ndarray, axis: int) -> np.ndarray:
        self.save_for_backward(axis, [a.shape[axis] for a in arrays])
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        axis, sizes = self.saved
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(grad, splits, axis=axis))


def _reduced_count(shape: Tuple[int, ...], axis: Axis) -> int:
    if axis is None:
        return int(np.prod(shape))
    if isinstance(axis, int):
        axis = (axis,)
    return int(np.prod([shape[a] for a in axis]))


def _restore_reduced(
    grad: np.ndarray, shape: Tuple[int, ...], axis: Axis, keepdims: bool
) -> np.ndarray:
    """Re-insert reduced axes so ``grad`` broadcasts against ``shape``."""
    if axis is None or keepdims:
        return grad if keepdims else np.asarray(grad).reshape([1] * len(shape))
    if isinstance(axis, int):
        axis = (axis,)
    axis = tuple(a % len(shape) for a in axis)
    new_shape = [1 if i in axis else s for i, s in enumerate(shape)]
    return np.asarray(grad).reshape(new_shape)
