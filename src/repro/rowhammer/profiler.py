"""Memory profiling for faults (Section IV-A2).

Profiling scans attacker-owned memory for flippable cells before the victim
runs: victim rows are filled with all-zeros to expose 0->1 flips, hammered,
read back, then filled with all-ones for the 1->0 direction.  The result is
a :class:`FlipProfile`: the device's usable fault map in page coordinates,
which the templating step matches against the weight file's needed flips.

The row is the unit of work.  Each profiled row's buffer is snapshotted,
filled, hammered once per fill through :meth:`HammerEngine.hammer_victim`
(so every attempt is counted and flight-recorded) and restored in place.
The profile itself is columnar -- one array per field, one entry per flip;
:attr:`FlipProfile.records` builds :class:`FlipRecord` objects on demand.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.errors import RowhammerError
from repro.memory.geometry import PAGE_FRAME_SIZE
from repro.memory.mmap import MappedFile, OSMemoryModel
from repro.rowhammer.hammer import HammerEngine

# Paper: profiling 128 MB takes 94 minutes (Section IV-A2).
PROFILE_MINUTES_PER_128MB = 94.0


@dataclasses.dataclass(frozen=True)
class FlipRecord:
    """One repeatable bit flip found during profiling."""

    frame: int  # physical page frame number
    byte_offset: int  # offset within the 4 KB page
    bit: int  # 0 = LSB .. 7 = MSB
    direction: int  # +1: 0->1, -1: 1->0
    n_sides: int  # hammer pattern that produced it

    @property
    def key(self) -> Tuple[int, int, int]:
        """Page-relative identity: (byte_offset, bit, direction)."""
        return (self.byte_offset, self.bit, self.direction)


@dataclasses.dataclass(eq=False)
class FlipProfile:
    """The fault map of a profiled buffer, one array entry per flip.

    ``frame``, ``byte_offset``, ``bit`` and ``direction`` are parallel
    arrays in discovery order (row by row; within a row the 0->1 pass, then
    the 1->0 pass, each in the row's cell-draw order).  ``n_sides`` is the
    hammer pattern used (the weakest one, after :meth:`merge`).
    """

    frame: np.ndarray  # physical page frame number
    byte_offset: np.ndarray  # offset within the 4 KB page
    bit: np.ndarray  # 0 = LSB .. 7 = MSB
    direction: np.ndarray  # +1: 0->1, -1: 1->0
    profiled_frames: List[int]
    n_sides: int

    @classmethod
    def from_records(
        cls, records: Sequence[FlipRecord], profiled_frames: Sequence[int], n_sides: int
    ) -> "FlipProfile":
        """Build a profile from explicit :class:`FlipRecord` entries."""
        return cls(
            frame=np.array([r.frame for r in records], dtype=np.int64),
            byte_offset=np.array([r.byte_offset for r in records], dtype=np.int64),
            bit=np.array([r.bit for r in records], dtype=np.int64),
            direction=np.array([r.direction for r in records], dtype=np.int64),
            profiled_frames=list(profiled_frames),
            n_sides=n_sides,
        )

    @functools.cached_property
    def records(self) -> List[FlipRecord]:
        """The flips as :class:`FlipRecord` objects (built on first use)."""
        return [
            FlipRecord(frame=f, byte_offset=o, bit=b, direction=d, n_sides=self.n_sides)
            for f, o, b, d in zip(
                self.frame.tolist(),
                self.byte_offset.tolist(),
                self.bit.tolist(),
                self.direction.tolist(),
            )
        ]

    @property
    def num_flips(self) -> int:
        return int(self.frame.size)

    @property
    def num_frames(self) -> int:
        return len(self.profiled_frames)

    def flips_per_page(self) -> np.ndarray:
        """Flip count for every profiled frame (zeros included)."""
        wanted = np.asarray(self.profiled_frames, dtype=np.int64)
        # Count each profiled frame once more than it flips, so every
        # lookup hits.
        frames, counts = np.unique(
            np.concatenate([np.unique(wanted), self.frame]), return_counts=True
        )
        return counts[np.searchsorted(frames, wanted)] - 1

    @property
    def avg_flips_per_page(self) -> float:
        if not self.profiled_frames:
            return 0.0
        return self.num_flips / self.num_frames

    @property
    def flip_fraction(self) -> float:
        """Fraction of profiled cells that flipped (Fig. 2's 0.036 %)."""
        total_bits = self.num_frames * PAGE_FRAME_SIZE * 8
        return self.num_flips / total_bits if total_bits else 0.0

    def direction_counts(self) -> Tuple[int, int]:
        """(num 0->1, num 1->0); the paper observes these nearly equal."""
        up = int(np.count_nonzero(self.direction == 1))
        return up, self.num_flips - up

    def estimated_minutes(self) -> float:
        """Profiling wall-clock estimate from the paper's 94 min / 128 MB."""
        profiled_bytes = self.num_frames * PAGE_FRAME_SIZE
        return PROFILE_MINUTES_PER_128MB * profiled_bytes / (128 * 1024 * 1024)

    def merge(self, other: "FlipProfile") -> "FlipProfile":
        """Combine profiles of disjoint buffers (multiple 128 MB passes)."""
        overlap = set(self.profiled_frames) & set(other.profiled_frames)
        if overlap:
            raise RowhammerError(f"profiles overlap on frames {sorted(overlap)[:5]}...")
        return FlipProfile(
            frame=np.concatenate([self.frame, other.frame]),
            byte_offset=np.concatenate([self.byte_offset, other.byte_offset]),
            bit=np.concatenate([self.bit, other.bit]),
            direction=np.concatenate([self.direction, other.direction]),
            profiled_frames=self.profiled_frames + other.profiled_frames,
            n_sides=min(self.n_sides, other.n_sides),
        )


class MemoryProfiler:
    """Profiles attacker-owned frames for repeatable bit flips."""

    def __init__(self, os_model: OSMemoryModel, engine: HammerEngine) -> None:
        self.os = os_model
        self.engine = engine

    def profile_mapping(self, mapping: MappedFile, n_sides: int) -> FlipProfile:
        """Profile every frame of an (anonymous) attacker mapping."""
        frames = [mapping.frames[page] for page in sorted(mapping.frames)]
        return self.profile_frames(frames, n_sides)

    def profile_frames(self, frames: Sequence[int], n_sides: int) -> FlipProfile:
        """Profile explicit physical frames for both flip directions."""
        geometry = self.os.dram.geometry
        # Group frames by the DRAM row that contains them; rows are the
        # hammering granularity, pages the reporting granularity.
        rows = dict.fromkeys(
            (address.bank, address.row) for address in map(geometry.frame_address, frames)
        )

        frame_set = set(frames)
        with telemetry.span("profiler.sweep", frames=len(frames), n_sides=n_sides):
            found = [self._profile_row(bank, row, frame_set, n_sides) for bank, row in rows]
        # Columns of (frame, byte_offset, bit, direction), rows concatenated.
        columns = (
            [np.concatenate(column) for column in zip(*found)]
            if found
            else [np.empty(0, dtype=np.int64)] * 4
        )
        profile = FlipProfile(*columns, profiled_frames=list(frames), n_sides=n_sides)
        if telemetry.enabled():
            telemetry.counter_add("profiler.rows_hammered", len(rows))
            telemetry.counter_add("profiler.flips_found", profile.num_flips)
            if frames:
                telemetry.gauge_set(
                    "profiler.flip_yield_per_page", profile.num_flips / len(frames)
                )
        if telemetry.events_enabled():
            telemetry.event(
                "profiler.summary",
                frames=len(frames),
                rows=len(rows),
                flips=profile.num_flips,
                n_sides=n_sides,
            )
        return profile

    def _profile_row(
        self, bank: int, row: int, frame_set: set, n_sides: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Hammer one row under 0x00 and 0xFF fills; flips in ``frame_set``."""
        dram = self.os.dram
        row_frames = dram.geometry.frames_in_row(bank, row)
        data = dram.row_buffer(bank, row)
        original = data.copy()
        found = []
        for fill, direction in ((0x00, 1), (0xFF, -1)):
            data.fill(fill)
            flips = self.engine.hammer_victim(bank, row, n_sides).flips
            flips = np.array(flips, dtype=np.int64).reshape(-1, 3)
            found.append(flips[flips[:, 2] == direction])
        # Restore whatever the row held before profiling.
        data[:] = original
        column, bit, direction = np.concatenate(found).T
        page = column // PAGE_FRAME_SIZE
        keep = np.array([frame in frame_set for frame in row_frames])[page]
        return row_frames[0] + page[keep], column[keep] % PAGE_FRAME_SIZE, bit[keep], direction[keep]
