"""The DRAM array simulator: data storage plus vulnerable-cell physics.

Vulnerable cells are the core physical fact the paper's constraints derive
from: only ~0.036 % of cells are flippable at all, each cell flips in exactly
one direction, and flips are sparse and uniformly scattered (Fig. 2).  Each
simulated device draws its cells deterministically from a seed, with density
set by the device's measured flips-per-page average (Table I).

A cell also carries a *strength* in [0, 1): hammering with more aggressor
rows reaches weaker cells (higher strength threshold), which reproduces the
n-sided yield curve of Fig. 5 and the 15- vs 7-sided trade-off of Fig. 6.

A row's cells are drawn, cached and hammered as a columnar :class:`CellMap`;
many rows can be drawn and decoded in one batch.  The draw follows a fixed
contract (DESIGN.md, "The fault-map draw contract"): a per-row
``SeedSequence([device_seed, bank, row])``, a Poisson cell count, then
three raw 64-bit words per cell (one for a repeated ``(column, bit)``).
Changing any part of it changes every device's fault map and regenerates
the golden rows.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Iterator, List, Sequence, Tuple

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


# Expected vulnerable cells per decode pass (and per profiler batch).  A
# pass's arrays then stay a few KB (12 KB of raw draw words), about what a
# one-row draw allocates.  Larger passes are faster but leave the heap
# fragmented in a way that later phases pay for: with 1024 cells or more
# per pass, attack-resnet20's peak RSS rose from 315 MB to 320-380 MB, with
# the same traced allocations, as glibc served the offline attack's large
# arrays from fresh mmaps instead of the heap.
CELLS_PER_BATCH = 512

# Below this many rows, numpy's own SeedSequence seeds each row faster than
# the array version of its hash below (whose fixed cost is ~170 array ops).
_ARRAY_SEEDING_MIN_ROWS = 32

# numpy's SeedSequence hash and PCG64 seeding constants; NumPy keeps both
# streams fixed across versions.
_MASK32 = 0xFFFF_FFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0_D7E5, 0x931E_8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_PCG64_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_MASK128 = (1 << 128) - 1


def _seed_words(value: int) -> List[int]:
    """``value`` as SeedSequence reads an entropy int: 32-bit words, low first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _pcg64_states(device_seed: int, keys: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence([device_seed, bank, row]))`` per key.

    Runs SeedSequence's hash (``mix_entropy``, then ``generate_state(4,
    uint64)``) for all keys at once: its hash constants do not depend on the
    data, so every step is one array operation over the keys.  PCG64 then
    takes the first two 64-bit words as its initial state and the last two
    as its stream, and steps its LCG twice.
    """
    columns = np.array(keys, dtype=np.uint32).reshape(-1, 2).T  # a word each
    entropy = [np.full(len(keys), word, np.uint32) for word in _seed_words(device_seed)]
    entropy += list(columns)
    hash_const = _HASH_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> np.uint32(16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ result >> np.uint32(16)

    zero = np.zeros(len(keys), np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(entropy)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    hash_const = _HASH_INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ value >> np.uint32(16)).astype(np.uint64))
    # generate_state pairs the 32-bit words little-endian into 64-bit words.
    high_state, low_state, high_seq, low_seq = (
        (state[2 * i] | state[2 * i + 1] << np.uint64(32)).tolist() for i in range(4)
    )
    states = []
    for a, b, c, d in zip(high_state, low_state, high_seq, low_seq):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        states.append((((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _kept_draws(raw: np.ndarray, counts: np.ndarray, key_mask: np.uint64) -> np.ndarray:
    """First word of every kept cell draw in many rows' concatenated streams.

    Row ``r`` owns ``3 * counts[r]`` consecutive words of ``raw``.  A draw
    whose ``(column, bit)`` repeats an earlier draw of its row is skipped and
    uses one word instead of three, so every later draw of that row moves up
    by two.  The loop below resolves the first repeat of every row at once:
    it runs once per repeat of the most repetitive row, and only rows that
    had a repeat in the previous pass are checked again.  Tagging each key
    with its row index in bits 32-60 (which ``key_mask`` never sets) keeps
    the rows apart in one sort.
    """
    if counts.size >= 1 << 29:
        raise MemoryModelError(f"cannot decode {counts.size} rows in one batch")
    row = np.repeat(np.arange(counts.size), counts)  # row of each draw
    tag = row.astype(np.uint64) << np.uint64(32)
    start = np.arange(0, 3 * row.size, 3)  # first word of each draw
    kept = np.ones(row.size, dtype=bool)
    active = np.arange(row.size)  # draws of rows that may still repeat
    while active.size:
        keys = raw[start[active]] & key_mask | tag[active]
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        # A stable sort keeps equal keys in draw order: all but the first
        # of each group repeat an earlier draw.  Draws are numbered in
        # stream order, so the first repeat of a row is its smallest number.
        repeats = np.sort(active[order[1:][ordered[1:] == ordered[:-1]]])
        hit_rows = row[repeats]  # nondecreasing, as draws are numbered by row
        new_row = np.ones(repeats.size, dtype=bool)
        new_row[1:] = hit_rows[1:] != hit_rows[:-1]
        first = repeats[new_row]
        cut = np.full(counts.size, row.size)  # a row's first repeat, if any
        cut[row[first]] = first
        cut = cut[row[active]]
        kept[first] = False
        start[active[active > cut]] -= 2
        active = active[(cut < row.size) & (active != cut)]
    return start[kept]


def _decode_rows(raw: np.ndarray, counts: np.ndarray, row_size_bytes: int) -> List[CellMap]:
    """Decode many rows' cell draws from their concatenated raw word streams.

    Reproduces, bit for bit, each row's scalar loop ``column =
    integers(0, row)``, ``bit = integers(0, 8)``, then -- unless ``(column,
    bit)`` repeats an earlier cell of the row -- ``direction = +1 if
    random() < 0.5 else -1`` and ``strength = uniform(0, 1)``.  The two
    bounded draws share one word: its low and high 32 bits, mapped by
    Lemire's multiply-shift, which is exact (never rejects) for a
    power-of-two range.  ``random`` and ``uniform`` take one word each as
    ``(word >> 11) * 2**-53``, so ``random() < 0.5`` means "the top bit is
    clear".
    """
    shift = 32 - (row_size_bytes.bit_length() - 1)
    column_shift = np.uint64(shift)
    # The bits of a draw's first word that fix its (column, bit): the top
    # bits of the low half and the top three bits of the high half.
    key_mask = np.uint64(0xFFFF_FFFF >> shift << shift | 7 << 61)
    kept = _kept_draws(raw, counts, key_mask)
    word = raw[kept]
    column = ((word & np.uint64(0xFFFF_FFFF)) >> column_shift).astype(np.int64)
    bit = (word >> np.uint64(61)).astype(np.uint8)
    direction = np.where(raw[kept + 1] >> np.uint64(63), -1, 1).astype(np.int8)
    strength = (raw[kept + 2] >> np.uint64(11)) * 2.0**-53
    # Every row's words lie below the next row's, so its cells are one run.
    bounds = np.searchsorted(kept, 3 * np.cumsum(counts)).tolist()
    return [
        CellMap(column[lo:hi], bit[lo:hi], direction[lo:hi], strength[lo:hi])
        for lo, hi in zip([0] + bounds[:-1], bounds)
    ]


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
    def vulnerable_cells(
        self, bank: int, row: int, prefetch: Sequence[Tuple[int, int]] = ()
    ) -> CellMap:
        """Deterministic vulnerable cells of one row (lazily drawn, cached).

        A row that must be drawn is drawn in one batch with every row of
        ``prefetch`` not cached yet.  Each row gets its own generator (in
        the state ``default_rng(SeedSequence([device_seed, bank, row]))``
        starts in), Poisson count and raw word block, exactly as a one-row
        draw would; the blocks are then decoded together.
        """
        cells = self._cells.get((bank, row))
        if cells is None:
            keys = dict.fromkeys([(bank, row), *prefetch])
            self._draw([key for key in keys if key not in self._cells])
            cells = self._cells[(bank, row)]
        return cells

    def _draw(self, keys: List[Tuple[int, int]]) -> None:
        """Draw and cache the cells of ``keys``, ``CELLS_PER_BATCH`` cells per decode pass."""
        expected = self.flips_per_page_mean * self.geometry.pages_per_row
        generators = self._row_generators(keys)
        per_batch = max(1, int(CELLS_PER_BATCH // max(expected, 1.0)))
        for lo in range(0, len(keys), per_batch):
            batch = keys[lo : lo + per_batch]
            counts, blocks = [], []
            for rng in itertools.islice(generators, len(batch)):
                count = int(rng.poisson(expected))
                counts.append(count)
                blocks.append(rng.bit_generator.random_raw(3 * count))
            drawn = _decode_rows(
                np.concatenate(blocks), np.array(counts), self.geometry.row_size_bytes
            )
            self._cells.update(zip(batch, drawn))

    def _row_generators(self, keys: List[Tuple[int, int]]) -> Iterator[np.random.Generator]:
        """Each key's ``default_rng(SeedSequence([device_seed, bank, row]))``, in turn.

        For many keys one generator is re-seeded per key with the state
        :func:`_pcg64_states` computes; use each before taking the next.
        """
        if len(keys) < _ARRAY_SEEDING_MIN_ROWS:
            for key in keys:
                yield new_rng(np.random.SeedSequence([self._device_seed, *key]))
            return
        bit_generator = np.random.PCG64(0)  # re-seeded for every key below
        rng = np.random.Generator(bit_generator)
        for state, inc in _pcg64_states(self._device_seed, keys):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng

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
