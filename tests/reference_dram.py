"""Scalar reference loops that define the fault map, hammering, profiling and templating.

They live only in the tests, so the library keeps a single (vectorized)
code path; the oracle tests check the library against them bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro import telemetry
from repro.memory.geometry import PAGE_FRAME_SIZE
from repro.quant.weightfile import BitLocation
from repro.rowhammer.profiler import FlipProfile
from repro.rowhammer.templating import TemplateMatch


def reference_cells(dram, bank, row):
    """(column, bit, direction, strength) per cell, and the skipped repeats."""
    geometry = dram.geometry
    rng = np.random.default_rng(np.random.SeedSequence([dram._device_seed, bank, row]))
    count = int(rng.poisson(dram.flips_per_page_mean * geometry.pages_per_row))
    cells, seen, repeats = [], set(), 0
    for _ in range(count):
        column = int(rng.integers(0, geometry.row_size_bytes))
        bit = int(rng.integers(0, 8))
        if (column, bit) in seen:
            repeats += 1
            continue
        seen.add((column, bit))
        direction = 1 if rng.random() < 0.5 else -1
        cells.append((column, bit, direction, float(rng.uniform(0.0, 1.0))))
    return cells, repeats


def reference_hammer(data, cells, intensity):
    """Flip cells one at a time; returns (column, bit, direction) flips."""
    flipped = []
    if intensity <= 0:
        return flipped
    for column, bit, direction, strength in cells:
        if strength > intensity:
            continue
        mask = 1 << bit
        current = bool(data[column] & mask)
        if direction == 1 and not current:
            data[column] |= mask
            flipped.append((column, bit, 1))
        elif direction == -1 and current:
            data[column] &= ~mask & 0xFF
            flipped.append((column, bit, -1))
    return flipped


def reference_profile(dram, frames, intensity):
    """Profile ``frames`` one row at a time: fill, hammer, read back.

    The fills run on a scratch copy of each row, which stands for the
    snapshot-and-restore of the device's row.  Returns the flips as
    (frame, byte_offset, bit, direction) tuples in discovery order, and one
    (bank, row, flips) entry per hammer attempt.
    """
    geometry = dram.geometry
    rows = dict.fromkeys(
        (address.bank, address.row) for address in map(geometry.frame_address, frames)
    )
    wanted = set(frames)
    found, attempts = [], []
    for bank, row in rows:
        row_frames = geometry.frames_in_row(bank, row)
        cells, _ = reference_cells(dram, bank, row)
        data = bytearray(geometry.row_size_bytes)
        for fill, direction in ((0x00, 1), (0xFF, -1)):
            data[:] = bytes([fill]) * len(data)
            flips = reference_hammer(data, cells, intensity)
            attempts.append((bank, row, len(flips)))
            for column, bit, flipped in flips:
                frame = row_frames[column // PAGE_FRAME_SIZE]
                if flipped == direction and frame in wanted:
                    found.append((frame, column % PAGE_FRAME_SIZE, bit, flipped))
    return found, attempts


class ReferencePageTemplater:
    """The dict-of-sets templater: each frame's flips as a set of keys."""

    def __init__(self, profile: FlipProfile) -> None:
        self.profile = profile
        self._frame_flips: Dict[int, Set[Tuple[int, int, int]]] = {}
        for frame, offset, bit, direction in zip(
            profile.frame.tolist(),
            profile.byte_offset.tolist(),
            profile.bit.tolist(),
            profile.direction.tolist(),
        ):
            self._frame_flips.setdefault(frame, set()).add((offset, bit, direction))

    def frames_covering(self, requirements: Sequence[Tuple[int, int, int]]) -> List[int]:
        """All frames whose profiled flips include every requirement."""
        needed = set(requirements)
        return [
            frame
            for frame, flips in self._frame_flips.items()
            if needed <= flips
        ]

    def match(self, targets_by_page: Dict[int, List[BitLocation]]) -> TemplateMatch:
        """Assign each target page a distinct compatible frame.

        Pages needing the most flips are matched first (they have the fewest
        candidate frames); each frame is used at most once.
        """
        assignments: Dict[int, int] = {}
        matched: List[int] = []
        unmatched: List[int] = []
        accidental: Dict[int, int] = {}
        used_frames: Set[int] = set()

        pages = sorted(targets_by_page, key=lambda p: -len(targets_by_page[p]))
        for page in pages:
            locations = targets_by_page[page]
            requirements = [(loc.byte_offset, loc.bit_index, loc.direction) for loc in locations]
            candidates = [f for f in self.frames_covering(requirements) if f not in used_frames]
            if not candidates:
                unmatched.append(page)
                if telemetry.events_enabled():
                    telemetry.event(
                        "template.page",
                        page=int(page),
                        required=len(requirements),
                        matched=False,
                    )
                continue
            # Prefer the cleanest frame: fewest flips beyond the targets.
            best = min(candidates, key=lambda f: len(self._frame_flips[f]))
            used_frames.add(best)
            assignments[page] = best
            matched.append(page)
            accidental[best] = len(self._frame_flips[best]) - len(set(requirements))
            if telemetry.events_enabled():
                telemetry.event(
                    "template.page",
                    page=int(page),
                    required=len(requirements),
                    matched=True,
                    frame=int(best),
                    candidates=len(candidates),
                    accidental=accidental[best],
                )
        return TemplateMatch(
            assignments=assignments,
            matched_pages=sorted(matched),
            unmatched_pages=sorted(unmatched),
            expected_accidental_flips=accidental,
        )


class ReferenceRestrictedTemplater:
    """Templater view that refuses frames already claimed by the main match."""

    def __init__(self, base: ReferencePageTemplater, used_frames: set) -> None:
        self._base = base
        self._used = set(used_frames)

    def match(self, targets_by_page: Dict[int, List[BitLocation]]):
        # Temporarily hide used frames from the base templater's index.
        hidden = {
            frame: self._base._frame_flips.pop(frame)
            for frame in list(self._base._frame_flips)
            if frame in self._used
        }
        try:
            return self._base.match(targets_by_page)
        finally:
            self._base._frame_flips.update(hidden)
