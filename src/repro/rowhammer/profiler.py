"""Memory profiling for faults (Section IV-A2).

Profiling scans attacker-owned memory for flippable cells before the victim
runs: victim rows are filled with all-zeros to expose 0->1 flips, hammered,
read back, then filled with all-ones for the 1->0 direction.  The result is
a :class:`FlipProfile`: the device's usable fault map in page coordinates,
which the templating step matches against the weight file's needed flips.

Under a uniform fill the outcome of hammering does not depend on what the
row held, so the fills are virtual: each batch of rows is one
:meth:`HammerEngine.hammer_victim` call with both fills, which reads the
rows' cell maps and never touches their bytes; each (row, fill) is still
one attempt, counted and flight-recorded as such.  Fault maps are drawn a
few batches ahead.
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
from repro.memory.dram import CELLS_PER_BATCH
from repro.memory.geometry import PAGE_FRAME_SIZE
from repro.memory.mmap import MappedFile, OSMemoryModel
from repro.rowhammer.hammer import HammerEngine

# Paper: profiling 128 MB takes 94 minutes (Section IV-A2).
PROFILE_MINUTES_PER_128MB = 94.0

# Rows whose fault maps are drawn together, just before they are hammered.
# Enough rows to amortize the array seeding of a batch draw (DRAMArray);
# drawing a whole 1024-row buffer first instead raised attack-resnet20's
# peak RSS from 315 MB to 347-359 MB (heap fragmentation, as with large
# decode passes), while 32 to 512 rows at a time kept it at 315 MB.
DRAW_AHEAD_ROWS = 256


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
        listed = np.asarray(frames, dtype=np.int64)
        wanted = np.sort(listed)
        if np.any(wanted[1:] == wanted[:-1]):
            raise RowhammerError("profiled frames must be distinct")
        outside = (listed < 0) | (listed >= geometry.total_frames)
        if outside.any():  # the first such frame raises MemoryModelError
            geometry.frame_address(int(listed[outside.argmax()]))
        # Group frames by the DRAM row that contains them; rows are the
        # hammering granularity, pages the reporting granularity.  A row's
        # frames are one chunk of ``pages_per_row`` frames (the bank count
        # is a power of two), so the chunk number names the row.
        chunk = listed // geometry.pages_per_row
        chunks = chunk[np.sort(np.unique(chunk, return_index=True)[1])]  # first-seen order
        banks, row_numbers = geometry.chunk_location(chunks)
        rows = list(zip(banks.tolist(), row_numbers.tolist()))

        dram = self.os.dram
        cells_per_row = dram.flips_per_page_mean * geometry.pages_per_row
        batch = max(1, int(CELLS_PER_BATCH // max(cells_per_row, 1.0)))
        ahead = batch * -(-DRAW_AHEAD_ROWS // batch)  # whole batches
        reaches_cells = self.engine.intensity(n_sides) > 0  # else nothing is drawn
        found = []
        with telemetry.span("profiler.sweep", frames=len(frames), n_sides=n_sides):
            for lo in range(0, len(rows), batch):
                if reaches_cells and lo % ahead == 0:
                    dram.vulnerable_cells(*rows[lo], prefetch=rows[lo + 1 : lo + ahead])
                batch_rows = rows[lo : lo + batch]
                hit = self.engine.hammer_victim(batch_rows, n_sides, fills=(0x00, 0xFF))
                owner = np.repeat(np.repeat(chunks[lo : lo + len(batch_rows)], 2), hit.counts)
                frame = owner * geometry.pages_per_row + hit.column // PAGE_FRAME_SIZE
                slot = np.searchsorted(wanted, frame)  # wanted is sorted
                keep = wanted[np.minimum(slot, wanted.size - 1)] == frame
                offset = hit.column[keep] % PAGE_FRAME_SIZE
                found.append((frame[keep], offset, hit.bit[keep], hit.direction[keep]))
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
