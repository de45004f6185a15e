"""Matching required weight-file flips to profiled flippy pages.

Given the offline phase's required bit flips (grouped by weight-file page)
and a :class:`~repro.rowhammer.profiler.FlipProfile`, the templater finds a
physical frame whose profiled flips cover *all* of a page's requirements:
same in-page byte offset, same bit index, same direction.  This implements
the paper's empirical finding: a match essentially always exists when a page
needs one flip, and essentially never when it needs two or more (Eq. 2),
which is what destroys the BadNet/FT/TBT baselines online.

When several candidate frames match, the templater prefers the frame with
the fewest *other* profiled flips, minimizing accidental corruption.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Set, Tuple

from repro import telemetry
from repro.quant.weightfile import BitLocation
from repro.rowhammer.profiler import FlipProfile


@dataclasses.dataclass
class TemplateMatch:
    """Outcome of matching target pages to flippy frames.

    Attributes
    ----------
    assignments:
        weight-file page index -> physical frame chosen for it.
    matched_pages / unmatched_pages:
        Target pages that did / did not find a compatible frame.
    expected_accidental_flips:
        frame -> number of profiled flips in that frame beyond the targets.
    """

    assignments: Dict[int, int]
    matched_pages: List[int]
    unmatched_pages: List[int]
    expected_accidental_flips: Dict[int, int]

    @property
    def match_fraction(self) -> float:
        total = len(self.matched_pages) + len(self.unmatched_pages)
        return len(self.matched_pages) / total if total else 1.0


class PageTemplater:
    """Assigns weight-file target pages to compatible flippy frames."""

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


def group_targets_by_page(locations: Sequence[BitLocation]) -> Dict[int, List[BitLocation]]:
    """Bucket required bit flips by their weight-file page."""
    grouped: Dict[int, List[BitLocation]] = {}
    for location in locations:
        grouped.setdefault(location.page, []).append(location)
    return grouped
