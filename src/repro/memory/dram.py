"""The DRAM array simulator: data storage plus vulnerable-cell physics.

Vulnerable cells are the core physical fact the paper's constraints derive
from: only ~0.036 % of cells are flippable at all, each cell flips in exactly
one direction, and flips are sparse and uniformly scattered (Fig. 2).  Each
simulated device draws its cells deterministically from a seed, with density
set by the device's measured flips-per-page average (Table I).

A cell also carries a *strength* in [0, 1): hammering with more aggressor
rows reaches weaker cells (higher strength threshold), which reproduces the
n-sided yield curve of Fig. 5 and the 15- vs 7-sided trade-off of Fig. 6.

A row's cells are drawn, cached and hammered as a columnar :class:`CellMap`.
The draw follows a fixed contract (DESIGN.md, "The fault-map draw
contract"): a per-row ``SeedSequence([device_seed, bank, row])``, a Poisson
cell count, then three raw 64-bit words per cell (one for a repeated
``(column, bit)``).  Changing any part of it changes every device's fault
map and regenerates the golden rows.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import MemoryModelError
from repro.memory.geometry import DRAMGeometry, PAGE_FRAME_SIZE
from repro.utils.rng import SeedLike, new_rng


@dataclasses.dataclass(frozen=True, eq=False)
class CellMap:
    """The Rowhammer-flippable cells of one DRAM row, as parallel arrays.

    Entry ``i`` of every array describes one cell, in draw order.

    Attributes
    ----------
    column:
        Byte offset within the row.
    bit:
        Bit within the byte (0 = LSB).
    direction:
        +1: the cell can only flip 0 -> 1; -1: only 1 -> 0.
    strength:
        Hammer intensity in [0, 1) needed to flip the cell; stronger
        (more-sided) hammer patterns reach higher-strength cells.
    """

    column: np.ndarray  # int64
    bit: np.ndarray  # uint8
    direction: np.ndarray  # int8
    strength: np.ndarray  # float64

    def __len__(self) -> int:
        return int(self.column.size)


def _first_repeat(keys: np.ndarray) -> int:
    """Index of the first key equal to an earlier one (``len(keys)`` if none)."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    # A stable sort keeps equal keys in draw order: all but the first repeat.
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    return int(repeats.min()) if repeats.size else keys.size


def _decode_cells(raw: np.ndarray, count: int, row_size_bytes: int) -> CellMap:
    """Decode ``count`` cell draws from a row's raw 64-bit word stream.

    Reproduces, bit for bit, the scalar loop ``column = integers(0, row)``,
    ``bit = integers(0, 8)``, then -- unless ``(column, bit)`` repeats an
    earlier cell -- ``direction = +1 if random() < 0.5 else -1`` and
    ``strength = uniform(0, 1)``.  The two bounded draws share one word:
    its low and high 32 bits, mapped by Lemire's multiply-shift, which is
    exact (never rejects) for a power-of-two range.  ``random`` and
    ``uniform`` take one word each as ``(word >> 11) * 2**-53``, so
    ``random() < 0.5`` means "the top bit is clear".  A repeated cell uses
    one word instead of three, so the loop below runs once per repeat, not
    once per cell.
    """
    shift = 32 - (row_size_bytes.bit_length() - 1)
    column_shift = np.uint64(shift)
    # The bits of a draw's first word that fix its (column, bit): the top
    # bits of the low half and the top three bits of the high half.
    key_mask = np.uint64(0xFFFF_FFFF >> shift << shift | 7 << 61)
    kept = np.empty(0, dtype=np.intp)  # first word of each cell kept so far
    pending = np.arange(0, 3 * count, 3)  # first word of each later draw
    while pending.size:
        starts = np.concatenate([kept, pending])
        repeat = _first_repeat(raw[starts] & key_mask)
        kept = starts[:repeat]
        # The repeated draw used one word, so every later draw moves up by two.
        pending = starts[repeat + 1 :] - 2
    word = raw[kept]
    return CellMap(
        column=((word & np.uint64(0xFFFF_FFFF)) >> column_shift).astype(np.int64),
        bit=(word >> np.uint64(61)).astype(np.uint8),
        direction=np.where(raw[kept + 1] >> np.uint64(63), -1, 1).astype(np.int8),
        strength=(raw[kept + 2] >> np.uint64(11)) * 2.0**-53,
    )


class DRAMArray:
    """A simulated DRAM device with lazily materialized rows and faults.

    Parameters
    ----------
    geometry:
        Bank/row shape of the device.
    flips_per_page_mean:
        Average number of vulnerable cells per 4 KB page (Table I column).
    seed:
        Seed fixing the device's fault map; two arrays with the same seed
        and parameters have identical vulnerable cells (it is a *device*
        property, stable across profiling and attack runs).
    """

    def __init__(
        self,
        geometry: DRAMGeometry,
        flips_per_page_mean: float,
        seed: SeedLike = 0,
    ) -> None:
        if flips_per_page_mean < 0:
            raise MemoryModelError(
                f"flips_per_page_mean must be non-negative, got {flips_per_page_mean}"
            )
        self.geometry = geometry
        self.flips_per_page_mean = float(flips_per_page_mean)
        root = new_rng(seed)
        self._device_seed = int(root.integers(0, 2**63))
        self._rows: Dict[Tuple[int, int], np.ndarray] = {}
        self._cells: Dict[Tuple[int, int], CellMap] = {}

    # ------------------------------------------------------------------
    # Data storage
    # ------------------------------------------------------------------
    def row_buffer(self, bank: int, row: int) -> np.ndarray:
        """The live, writable bytes of one row (materialized as zeros)."""
        key = (bank, row)
        data = self._rows.get(key)
        if data is None:
            data = np.zeros(self.geometry.row_size_bytes, dtype=np.uint8)
            self._rows[key] = data
        return data

    def write_bytes(self, phys_addr: int, payload: np.ndarray) -> None:
        """Write raw bytes starting at a physical address (may span rows)."""
        payload = np.asarray(payload, dtype=np.uint8)
        cursor = 0
        while cursor < payload.size:
            address = self.geometry.address_of(phys_addr + cursor)
            row = self.row_buffer(address.bank, address.row)
            room = self.geometry.row_size_bytes - address.column
            take = min(room, payload.size - cursor)
            row[address.column : address.column + take] = payload[cursor : cursor + take]
            cursor += take

    def read_bytes(self, phys_addr: int, count: int) -> np.ndarray:
        """Read raw bytes starting at a physical address (may span rows)."""
        out = np.empty(count, dtype=np.uint8)
        cursor = 0
        while cursor < count:
            address = self.geometry.address_of(phys_addr + cursor)
            row = self.row_buffer(address.bank, address.row)
            room = self.geometry.row_size_bytes - address.column
            take = min(room, count - cursor)
            out[cursor : cursor + take] = row[address.column : address.column + take]
            cursor += take
        return out

    def write_frame(self, frame: int, payload: np.ndarray) -> None:
        """Write a full 4 KB page frame."""
        payload = np.asarray(payload, dtype=np.uint8)
        if payload.size != PAGE_FRAME_SIZE:
            raise MemoryModelError(
                f"frame payload must be {PAGE_FRAME_SIZE} bytes, got {payload.size}"
            )
        self.write_bytes(frame * PAGE_FRAME_SIZE, payload)

    def read_frame(self, frame: int) -> np.ndarray:
        """Read a full 4 KB page frame."""
        return self.read_bytes(frame * PAGE_FRAME_SIZE, PAGE_FRAME_SIZE)

    # ------------------------------------------------------------------
    # Fault map
    # ------------------------------------------------------------------
    def vulnerable_cells(self, bank: int, row: int) -> CellMap:
        """Deterministic vulnerable cells of one row (lazily drawn, cached)."""
        key = (bank, row)
        cells = self._cells.get(key)
        if cells is None:
            rng = new_rng(np.random.SeedSequence([self._device_seed, bank, row]))
            expected = self.flips_per_page_mean * self.geometry.pages_per_row
            count = int(rng.poisson(expected))
            raw = rng.bit_generator.random_raw(3 * count)
            cells = _decode_cells(raw, count, self.geometry.row_size_bytes)
            self._cells[key] = cells
        return cells

    def hammer_row(self, bank: int, row: int, intensity: float) -> List[Tuple[int, int, int]]:
        """Disturb one victim row with the given hammer intensity.

        Every vulnerable cell with ``strength <= intensity`` whose stored bit
        currently opposes its flip direction is flipped in place.  Returns
        the flips as (column, bit, direction) tuples, in draw order.
        """
        if intensity <= 0:
            return []
        data = self.row_buffer(bank, row)
        cells = self.vulnerable_cells(bank, row)
        stored = data[cells.column] >> cells.bit & 1
        fire = (cells.strength <= intensity) & (stored != (cells.direction > 0))
        column, bit = cells.column[fire], cells.bit[fire]
        # A firing cell's stored bit opposes its direction, so flipping it is
        # a toggle; one byte can hold several firing cells, hence ``at``.
        np.bitwise_xor.at(data, column, np.left_shift(1, bit, dtype=np.uint8))
        return list(zip(column.tolist(), bit.tolist(), cells.direction[fire].tolist()))
