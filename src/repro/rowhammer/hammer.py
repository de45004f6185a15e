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
from typing import List, Optional, Tuple

from repro import telemetry
from repro.errors import RowhammerError
from repro.memory.dram import DRAMArray
from repro.rowhammer.device_profiles import DeviceProfile

# Paper-reported per-row hammer times (seconds).
HAMMER_SECONDS_15_SIDED = 0.8
HAMMER_SECONDS_7_SIDED = 0.4


@dataclasses.dataclass
class HammerResult:
    """Flips produced by one hammer invocation on one victim row."""

    bank: int
    row: int
    flips: List[Tuple[int, int, int]]  # (column, bit, direction)
    n_sides: int
    seconds: float


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
        self, bank: int, row: int, n_sides: int, fill: Optional[int] = None
    ) -> HammerResult:
        """Hammer one victim row with an n-sided aggressor pattern.

        The caller is responsible for owning the aggressor rows around the
        victim (the placement machinery in :mod:`repro.memory.mmap` ensures
        this); the engine models the disturbance physics.

        With a ``fill`` byte (0x00 or 0xFF) the row is hammered as if it
        held that byte everywhere, and its bytes are neither read nor
        written (:meth:`DRAMArray.filled_row_flips`): the profiler's fills.
        """
        geometry = self.dram.geometry
        if not 0 <= bank < geometry.num_banks:
            raise RowhammerError(f"victim bank {bank} out of range")
        if not 0 <= row < geometry.rows_per_bank:
            raise RowhammerError(f"victim row {row} out of range")
        if fill is None:
            flips = self.dram.hammer_row(bank, row, self.intensity(n_sides))
        else:
            flips = self.dram.filled_row_flips(bank, row, self.intensity(n_sides), fill)
        seconds = self.seconds_per_row(n_sides)
        self.total_seconds += seconds
        if telemetry.enabled():
            telemetry.counter_add("hammer.attempts")
            telemetry.counter_add("hammer.flips", len(flips))
            telemetry.counter_add("hammer.simulated_seconds", seconds)
            telemetry.histogram_observe("hammer.flips_per_attempt", len(flips))
        if telemetry.events_enabled():
            telemetry.event(
                "hammer.attempt",
                bank=bank,
                row=row,
                n_sides=n_sides,
                flips=len(flips),
                seconds=seconds,
            )
        return HammerResult(bank=bank, row=row, flips=flips, n_sides=n_sides, seconds=seconds)

    def double_sided_effective(self) -> bool:
        """Whether the classic double-sided pattern works on this device."""
        return self.intensity(2) > 0.0
