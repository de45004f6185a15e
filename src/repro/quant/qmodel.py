"""Quantized model wrapper: the deployed artifact the attack targets.

A :class:`QuantizedModel` snapshots a float model's parameters into int8
(per-tensor symmetric scales, Section IV-C), defines the canonical flat
weight-file layout (parameters concatenated in ``named_parameters`` order,
one byte per weight), and keeps the float model's parameters in sync with
the integer weights so inference always reflects the deployed bytes.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import QuantizationError
from repro.nn.module import Module
from repro.quant.bits import flip_bit, hamming_distance
from repro.quant.quantizer import QuantizationParams, dequantize, quantize


class QuantizedModel:
    """An int8-quantized view over a float model.

    Parameters
    ----------
    module:
        The float model whose parameters are quantized.  The module is
        mutated in place whenever :meth:`sync_to_module` runs (which all
        integer-mutating methods call automatically).
    num_bits:
        Quantization width; the paper uses 8 everywhere.
    """

    def __init__(self, module: Module, num_bits: int = 8) -> None:
        if num_bits != 8:
            raise QuantizationError(
                f"the weight-file layout assumes 8-bit weights, got {num_bits}"
            )
        self.module = module
        self.num_bits = num_bits
        self._names: List[str] = []
        self._shapes: Dict[str, Tuple[int, ...]] = {}
        self._offsets: Dict[str, int] = {}
        self._qparams: Dict[str, QuantizationParams] = {}
        self._qweights: Dict[str, np.ndarray] = {}
        # Names whose integer weights changed since the last sync, and the
        # parameter version recorded at that sync: together they let
        # sync_to_module skip parameters whose dequantized value the module
        # already holds, so a single committed flip dirties a single layer
        # (the evaluation engine's prefix cache depends on this sparsity).
        self._dirty: Set[str] = set()
        self._synced_versions: Dict[str, int] = {}

        offset = 0
        for name, param in module.named_parameters():
            q, params = quantize(param.data, num_bits=num_bits)
            self._names.append(name)
            self._shapes[name] = param.data.shape
            self._offsets[name] = offset
            self._qparams[name] = params
            self._qweights[name] = q
            self._dirty.add(name)
            offset += param.size
        self._total = offset
        # Cumulative start offsets in layout order, for O(log L) locate().
        self._starts: List[int] = [self._offsets[name] for name in self._names]
        self.sync_to_module()

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def parameter_names(self) -> List[str]:
        return list(self._names)

    @property
    def total_params(self) -> int:
        """Number of weights == number of bytes in the weight file."""
        return self._total

    @property
    def total_bits(self) -> int:
        return self._total * 8

    def offset_of(self, name: str) -> int:
        return self._offsets[name]

    def scale_of(self, name: str) -> float:
        return self._qparams[name].scale

    def locate(self, flat_index: int) -> Tuple[str, int]:
        """Map a flat weight-file byte index to (parameter name, local index).

        Binary-searches the precomputed cumulative offsets, so the per-flip
        cost is O(log L) in the number of layers rather than a linear scan
        (this runs for every committed flip event).
        """
        if not 0 <= flat_index < self._total:
            raise QuantizationError(
                f"flat index {flat_index} out of range [0, {self._total})"
            )
        position = bisect.bisect_right(self._starts, flat_index) - 1
        name = self._names[position]
        return name, flat_index - self._starts[position]

    # ------------------------------------------------------------------
    # Integer weight access
    # ------------------------------------------------------------------
    def quantized(self, name: str) -> np.ndarray:
        """Return the int8 tensor for one parameter (copy)."""
        return self._qweights[name].copy()

    def flat_int8(self) -> np.ndarray:
        """Concatenate all int8 weights in weight-file order."""
        return np.concatenate([self._qweights[n].reshape(-1) for n in self._names])

    def load_flat_int8(self, flat: np.ndarray) -> None:
        """Replace all integer weights from a flat int8 vector.

        Layers whose bytes are unchanged are left untouched (and not
        re-synced), so a flip-sparse load dirties only the affected layers.
        """
        flat = np.asarray(flat, dtype=np.int8)
        if flat.size != self._total:
            raise QuantizationError(
                f"flat vector has {flat.size} entries, layout needs {self._total}"
            )
        for name in self._names:
            start = self._offsets[name]
            size = int(np.prod(self._shapes[name]))
            chunk = flat[start : start + size].reshape(self._shapes[name])
            if not np.array_equal(chunk, self._qweights[name]):
                self._qweights[name] = chunk.copy()
                self._dirty.add(name)
        self.sync_to_module()

    def set_quantized(self, name: str, values: np.ndarray) -> None:
        """Overwrite one parameter's integer weights."""
        values = np.asarray(values, dtype=np.int8)
        if values.shape != self._shapes[name]:
            raise QuantizationError(
                f"shape mismatch for {name!r}: {values.shape} vs {self._shapes[name]}"
            )
        if not np.array_equal(values, self._qweights[name]):
            self._qweights[name] = values.copy()
            self._dirty.add(name)
        self.sync_to_module()

    def write_byte(self, flat_index: int, value) -> np.int8:
        """Set one weight byte in place; returns the byte it held before.

        Like :meth:`set_quantized`, an unchanged byte marks nothing dirty.
        """
        name, local = self.locate(flat_index)
        flat = self._qweights[name].reshape(-1)
        previous = flat[local]
        if previous != np.int8(value):
            flat[local] = value
            self._dirty.add(name)
        self.sync_to_module()
        return previous

    def apply_bit_flip(self, flat_index: int, bit_index: int) -> None:
        """Flip one bit of one weight byte, as Rowhammer would in DRAM."""
        name, local = self.locate(flat_index)
        q = self._qweights[name].reshape(-1)
        q[local] = flip_bit(q[local : local + 1], bit_index)[0]
        self._dirty.add(name)
        self.sync_to_module()

    # ------------------------------------------------------------------
    # Float <-> int synchronization
    # ------------------------------------------------------------------
    def sync_to_module(self) -> None:
        """Write dequantized weights into the float module's parameters.

        A parameter is rewritten only when its integer weights changed since
        the last sync **or** its float tensor was rebound by someone else in
        the meantime (tracked via :attr:`~repro.nn.module.Parameter.version`).
        Skipped parameters already hold exactly the bytes a rewrite would
        produce, so behavior is identical to an unconditional sync while
        leaving untouched layers' versions -- and therefore the evaluation
        engine's cached activation prefixes -- intact.
        """
        params = dict(self.module.named_parameters())
        for name in self._names:
            param = params[name]
            if name not in self._dirty and self._synced_versions.get(name) == param.version:
                continue
            param.data = dequantize(self._qweights[name], self._qparams[name])
            self._synced_versions[name] = param.version
        self._dirty.clear()

    def requantize_from_module(self, names: Optional[List[str]] = None) -> None:
        """Pull float parameters back into the integer domain.

        Uses the *original* per-tensor scales (the deployed file's scales are
        fixed at deployment time), clipping to the representable range.  This
        is the projection CFT performs after each fine-tuning step.
        """
        params = dict(self.module.named_parameters())
        for name in names if names is not None else self._names:
            qp = self._qparams[name]
            q = np.clip(np.round(params[name].data / qp.scale), qp.qmin, qp.qmax)
            q = q.astype(np.int8)
            if not np.array_equal(q, self._qweights[name]):
                self._qweights[name] = q
                self._dirty.add(name)

    def clone(self) -> "QuantizedModel":
        """Deep-copy the integer state onto a snapshot sharing the module.

        The clone records the same module reference but independent integer
        weights; call :meth:`sync_to_module` on whichever copy should drive
        inference.
        """
        import copy

        twin = object.__new__(QuantizedModel)
        twin.module = self.module
        twin.num_bits = self.num_bits
        twin._names = list(self._names)
        twin._shapes = dict(self._shapes)
        twin._offsets = dict(self._offsets)
        twin._qparams = dict(self._qparams)
        twin._qweights = {k: v.copy() for k, v in self._qweights.items()}
        twin._total = self._total
        twin._starts = list(self._starts)
        # The twin has never synced: its first sync_to_module must write
        # every parameter, exactly as a freshly built QuantizedModel would.
        twin._dirty = set(twin._names)
        twin._synced_versions = {}
        return twin

    def nflip_against(self, other: "QuantizedModel") -> int:
        """Hamming distance in bits between two quantized states (N_flip)."""
        return hamming_distance(self.flat_int8(), other.flat_int8())
