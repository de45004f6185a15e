"""Module base class: parameter registration, traversal and state dicts."""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.autodiff.tensor import Tensor


# The slot descriptor Tensor defines for ``data``; Parameter shadows it with
# a property below so every rebind can be observed, and uses this descriptor
# to reach the underlying storage.
_TENSOR_DATA_SLOT = Tensor.data


def content_digest(x: np.ndarray) -> bytes:
    """sha256 of an array's dtype, shape and raw bytes.

    sha256 because CPython routes it through OpenSSL's hardware-accelerated
    implementation: the evaluation engine digests every batch it serves.
    """
    h = hashlib.sha256()
    h.update(str(x.dtype).encode())
    h.update(str(x.shape).encode())
    h.update(np.ascontiguousarray(x))
    return h.digest()


class Parameter(Tensor):
    """A tensor registered as a trainable module parameter.

    Every rebind of :attr:`data` bumps a monotonically increasing
    :attr:`version` counter, and :meth:`digest` hashes the bytes once per
    version.  The evaluation engine (:mod:`repro.engine`) keys its
    layer-prefix activation cache on these digests, so any weight write --
    an optimizer step, a quantized-model sync, a committed bit flip --
    invalidates exactly the cached prefixes that depended on the touched
    parameter, and a write that restores earlier bytes (a scored flip
    reverted, a pruned flip re-applied) finds their prefixes again.  Code
    must rebind ``data`` (``param.data = new``) rather than mutate it in
    place for a write to be seen; every writer in this codebase does.
    """

    def __init__(self, data: Any) -> None:
        super().__init__(data, requires_grad=True)

    @property
    def data(self) -> np.ndarray:
        return _TENSOR_DATA_SLOT.__get__(self, Parameter)

    @data.setter
    def data(self, value: np.ndarray) -> None:
        _TENSOR_DATA_SLOT.__set__(self, value)
        self.__dict__["_version"] = self.__dict__.get("_version", 0) + 1

    @property
    def version(self) -> int:
        """Number of times :attr:`data` has been rebound (never decreases)."""
        return self.__dict__.get("_version", 0)

    def digest(self) -> bytes:
        """:func:`content_digest` of :attr:`data`, computed once per version."""
        memo = self.__dict__.get("_digest")
        if memo is None or memo[0] != self.version:
            memo = self.__dict__["_digest"] = (self.version, content_digest(self.data))
        return memo[1]


class Module:
    """Base class for all network modules.

    Subclasses assign :class:`Parameter`, :class:`Module` or buffer
    (plain ndarray registered via :meth:`register_buffer`) attributes; the
    base class tracks them for iteration, state saving and mode switching.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_buffers_version", 0)
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, "_buffers_version", self._buffers_version + 1)
        object.__setattr__(self, name, value)

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a previously registered buffer in place of the attribute.

        Bumps :attr:`buffers_version` so cached activations that depended on
        the old buffer state (e.g. batch-norm running statistics) are
        invalidated by the evaluation engine.
        """
        if name not in self._buffers:
            raise KeyError(f"buffer {name!r} was never registered")
        self._buffers[name] = value
        object.__setattr__(self, "_buffers_version", self._buffers_version + 1)
        object.__setattr__(self, name, value)

    @property
    def buffers_version(self) -> int:
        """Write counter over this module's own buffers (not submodules)."""
        return self._buffers_version

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (f"{prefix}{name}", getattr(self, name))
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mod_name}.")

    # ------------------------------------------------------------------
    # Modes and gradients
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        object.__setattr__(self, "training", True)
        for module in self._modules.values():
            module.train()
        return self

    def eval(self) -> "Module":
        object.__setattr__(self, "training", False)
        for module in self._modules.values():
            module.eval()
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # State dict
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat name -> array copy of parameters and buffers."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({name: np.array(buf, copy=True) for name, buf in self.named_buffers()})
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters and buffers from :meth:`state_dict` output."""
        params = dict(self.named_parameters())
        buffer_owners = self._buffer_owners()
        for name, value in state.items():
            if name in params:
                target = params[name]
                value = np.asarray(value, dtype=target.data.dtype)
                if value.shape != target.data.shape:
                    raise ValueError(
                        f"shape mismatch for {name!r}: "
                        f"{value.shape} vs {target.data.shape}"
                    )
                target.data = value.copy()
            elif name in buffer_owners:
                owner, attr = buffer_owners[name]
                owner._set_buffer(attr, np.array(value, copy=True))
            else:
                raise KeyError(f"unexpected key {name!r} in state dict")

    def _buffer_owners(self, prefix: str = "") -> Dict[str, Tuple["Module", str]]:
        owners: Dict[str, Tuple[Module, str]] = {}
        for name in self._buffers:
            owners[f"{prefix}{name}"] = (self, name)
        for mod_name, module in self._modules.items():
            owners.update(module._buffer_owners(prefix=f"{prefix}{mod_name}."))
        return owners

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args: Any, **kwargs: Any) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args: Any, **kwargs: Any) -> Tensor:
        return self.forward(*args, **kwargs)

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(p.size for p in self.parameters())
