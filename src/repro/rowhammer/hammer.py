"""The n-sided Rowhammer engine.

Hammer *intensity* abstracts how hard a pattern disturbs a victim row; a
vulnerable cell flips when the intensity reaches its strength (see
:class:`~repro.memory.dram.CellMap`).  The model captures the two
facts the paper's methodology rests on:

- **TRR (DDR4)**: double-sided hammering is fully mitigated (intensity 0);
  n-sided patterns with 3+ aggressors bypass the tracker (TRRespass), with
  yield growing in the number of sides (Fig. 5).
- **Diminishing precision**: 15 sides maximizes flips (used for profiling)
  but also maximizes accidental flips per page; 7 sides reaches roughly half
  the cells, cutting accidental flips to ~4 per target page (Fig. 6) -- which
  is why the online attack uses 7 sides.

Hammering one row takes 800 ms with a 15-sided pattern and 400 ms with a
7-sided pattern (Section VII); the engine tracks simulated wall-clock cost.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.errors import MemoryModelError, RowhammerError
from repro.memory.dram import DRAMArray
from repro.rowhammer.device_profiles import DeviceProfile

# Paper-reported per-row hammer times (seconds).
HAMMER_SECONDS_15_SIDED = 0.8
HAMMER_SECONDS_7_SIDED = 0.4


@dataclasses.dataclass(frozen=True, eq=False)
class HammerResult:
    """Flips of one hammer call, one attempt per (row, fill), as columns.

    Attempt ``i`` hammered ``(bank[i], row[i])`` and made ``counts[i]``
    flips: the next ``counts[i]`` entries of ``column``, ``bit`` and
    ``direction`` (all int64), in the row's cell-draw order.
    """

    bank: np.ndarray  # per attempt
    row: np.ndarray
    counts: np.ndarray
    column: np.ndarray  # per flip: byte offset within the row
    bit: np.ndarray
    direction: np.ndarray  # +1: 0->1, -1: 1->0
    n_sides: int
    seconds: float  # simulated time of each attempt


class HammerEngine:
    """Drives n-sided hammer patterns against a simulated DRAM device."""

    MAX_SIDES = 15

    def __init__(self, dram: DRAMArray, profile: DeviceProfile) -> None:
        self.dram = dram
        self.profile = profile
        self.total_seconds = 0.0

    # ------------------------------------------------------------------
    # Physics model
    # ------------------------------------------------------------------
    def intensity(self, n_sides: int) -> float:
        """Hammer intensity in [0, 1] for an n-sided pattern on this device."""
        if n_sides < 1:
            raise RowhammerError(f"n_sides must be at least 1, got {n_sides}")
        n_sides = min(n_sides, self.MAX_SIDES)
        if self.profile.trr_protected:
            # TRR tracks and refreshes the victims of 1- and 2-sided patterns.
            if n_sides <= 2:
                return 0.0
            return ((n_sides - 2) / (self.MAX_SIDES - 2)) ** 0.65
        # DDR3: Table I's values were measured with double-sided patterns,
        # so double-sided reaches (essentially) every vulnerable cell;
        # single-sided is markedly weaker.
        if n_sides < 2:
            return 0.45
        return 1.0

    def seconds_per_row(self, n_sides: int) -> float:
        """Simulated wall-clock cost of hammering one victim row."""
        # Linear in the number of aggressor activations, anchored to the
        # paper's measured 7-sided (400 ms) and 15-sided (800 ms) times.
        return HAMMER_SECONDS_7_SIDED * n_sides / 7.0

    # ------------------------------------------------------------------
    # Hammering
    # ------------------------------------------------------------------
    def hammer_victim(
        self,
        rows: Sequence[Tuple[int, int]],
        n_sides: int,
        fills: Optional[Sequence[int]] = None,
    ) -> HammerResult:
        """Hammer each ``(bank, row)`` victim with an n-sided aggressor pattern.

        The caller is responsible for owning the aggressor rows around each
        victim (the placement machinery in :mod:`repro.memory.mmap` ensures
        this); the engine models the disturbance physics.  Every row is
        checked before any is hammered.

        Without ``fills`` each row is hammered once, on the bytes it holds
        (:meth:`DRAMArray.hammer_row`).  With ``fills`` (distinct bytes,
        each 0x00 or 0xFF) each row is hammered once per fill, in the order
        given, as if it held that byte everywhere: the profiler's fills.  A
        reached cell then fires exactly when its direction opposes the fill,
        so the flips come from the rows' cell maps alone, decided for all
        rows in one array pass, and no row's bytes are read or written.
        """
        pairs = np.array(rows, dtype=np.int64).reshape(-1, 2)
        geometry = self.dram.geometry
        for bank, row in pairs.tolist():
            if not 0 <= bank < geometry.num_banks:
                raise RowhammerError(f"victim bank {bank} out of range")
            if not 0 <= row < geometry.rows_per_bank:
                raise RowhammerError(f"victim row {row} out of range")
        intensity = self.intensity(n_sides)
        if fills is None:
            per_row = [self.dram.hammer_row(bank, row, intensity) for bank, row in pairs.tolist()]
            counts = np.array([len(flips) for flips in per_row], dtype=np.int64)
            flat = np.fromiter(
                itertools.chain.from_iterable(itertools.chain.from_iterable(per_row)),
                np.int64,
                3 * int(counts.sum()),
            )
            column, bit, direction = flat.reshape(-1, 3).T
        else:
            counts, column, bit, direction = self._filled_flips(pairs, intensity, list(fills))
            pairs = np.repeat(pairs, len(fills), axis=0)

        seconds = self.seconds_per_row(n_sides)
        metrics, events = telemetry.enabled(), telemetry.events_enabled()
        for bank, row, flips in zip(pairs[:, 0].tolist(), pairs[:, 1].tolist(), counts.tolist()):
            self.total_seconds += seconds
            if metrics:
                telemetry.counter_add("hammer.attempts")
                telemetry.counter_add("hammer.flips", flips)
                telemetry.counter_add("hammer.simulated_seconds", seconds)
                telemetry.histogram_observe("hammer.flips_per_attempt", flips)
            if events:
                telemetry.event(
                    "hammer.attempt",
                    bank=bank,
                    row=row,
                    n_sides=n_sides,
                    flips=flips,
                    seconds=seconds,
                )
        return HammerResult(
            bank=pairs[:, 0], row=pairs[:, 1], counts=counts,
            column=column, bit=bit, direction=direction,
            n_sides=n_sides, seconds=seconds,
        )

    def _filled_flips(
        self, pairs: np.ndarray, intensity: float, fills: List[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flip counts of every (row, fill) attempt, and the flips as columns."""
        if any(fill not in (0x00, 0xFF) for fill in fills) or len(set(fills)) < len(fills):
            raise MemoryModelError(f"fills must be distinct bytes 0x00 or 0xFF, got {fills!r}")
        attempts = len(pairs) * len(fills)
        if intensity <= 0 or not attempts:  # no cell is reached, so none is drawn
            empty = np.empty(0, dtype=np.int64)
            return np.zeros(attempts, dtype=np.int64), empty, empty, empty
        cells = [self.dram.vulnerable_cells(bank, row) for bank, row in pairs.tolist()]
        direction = np.concatenate([row.direction for row in cells])
        # A 0->1 cell fires under the 0x00 fill, a 1->0 cell under 0xFF.
        fill_slot = [fills.index(fill) if fill in fills else -1 for fill in (0x00, 0xFF)]
        slot = np.where(direction > 0, *fill_slot)
        fire = (np.concatenate([row.strength for row in cells]) <= intensity) & (slot >= 0)
        first_attempt = np.arange(0, attempts, len(fills))
        attempt = (np.repeat(first_attempt, [len(row) for row in cells]) + slot)[fire]
        # Stable: each attempt's flips keep their row's draw order.
        picked = np.flatnonzero(fire)[np.argsort(attempt, kind="stable")]
        column = np.concatenate([row.column for row in cells])[picked]
        bit = np.concatenate([row.bit for row in cells])[picked].astype(np.int64)
        return (
            np.bincount(attempt, minlength=attempts),
            column,
            bit,
            direction[picked].astype(np.int64),
        )

    def double_sided_effective(self) -> bool:
        """Whether the classic double-sided pattern works on this device."""
        return self.intensity(2) > 0.0
