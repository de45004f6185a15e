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
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

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


def _flip_code(byte_offset, bit, direction):
    """One integer per (byte_offset, bit, direction) key; arrays or scalars."""
    return (byte_offset * 8 + bit) * 2 + (direction < 0)


class PageTemplater:
    """Assigns weight-file target pages to compatible flippy frames.

    The profile is indexed once, by flip key: the profile's frames in
    first-seen order (a frame's *rank* is its position there), and every
    distinct (key code, rank) pair, sorted, so the frames holding one key are
    a contiguous, rank-ordered run.  ``_flips`` counts each frame's distinct
    keys.
    """

    def __init__(self, profile: FlipProfile) -> None:
        self.profile = profile
        frames, first, inverse = np.unique(
            profile.frame, return_index=True, return_inverse=True
        )
        by_first = np.argsort(first)
        self._frames = frames[by_first]  # first-seen order
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(by_first.size)
        n_frames = max(by_first.size, 1)
        code = _flip_code(profile.byte_offset, profile.bit, profile.direction)
        pairs = np.unique(code * n_frames + rank[inverse.reshape(-1)])
        self._codes, self._ranks = np.divmod(pairs, n_frames)
        self._flips = np.bincount(self._ranks, minlength=by_first.size)

    def _covering(self, requirements: Sequence[Tuple[int, int, int]]) -> np.ndarray:
        """Ranks (ascending) of the frames that hold every requirement."""
        codes = np.unique([_flip_code(*requirement) for requirement in requirements])
        starts = np.searchsorted(self._codes, codes, side="left").tolist()
        stops = np.searchsorted(self._codes, codes, side="right").tolist()
        runs = [self._ranks[lo:hi] for lo, hi in zip(starts, stops)]
        ranks = runs[0] if runs else np.arange(self._frames.size)
        for run in runs[1:]:
            ranks = np.intersect1d(ranks, run, assume_unique=True)
        return ranks

    def frames_covering(self, requirements: Sequence[Tuple[int, int, int]]) -> List[int]:
        """All frames whose profiled flips include every requirement, in first-seen order."""
        return self._frames[self._covering(requirements)].tolist()

    def match(
        self, targets_by_page: Dict[int, List[BitLocation]], exclude: Iterable[int] = ()
    ) -> TemplateMatch:
        """Assign each target page a distinct compatible frame.

        Pages needing the most flips are matched first (they have the fewest
        candidate frames); each frame is used at most once, and frames in
        ``exclude`` not at all.
        """
        assignments: Dict[int, int] = {}
        matched: List[int] = []
        unmatched: List[int] = []
        accidental: Dict[int, int] = {}
        usable = ~np.isin(self._frames, np.fromiter(exclude, dtype=np.int64))

        pages = sorted(targets_by_page, key=lambda p: -len(targets_by_page[p]))
        for page in pages:
            locations = targets_by_page[page]
            requirements = [(loc.byte_offset, loc.bit_index, loc.direction) for loc in locations]
            candidates = self._covering(requirements)
            candidates = candidates[usable[candidates]]
            if not candidates.size:
                unmatched.append(page)
                if telemetry.events_enabled():
                    telemetry.event(
                        "template.page",
                        page=int(page),
                        required=len(requirements),
                        matched=False,
                    )
                continue
            # Prefer the cleanest frame: fewest flips beyond the targets
            # (the first such frame in first-seen order).
            rank = int(candidates[np.argmin(self._flips[candidates])])
            usable[rank] = False
            best = int(self._frames[rank])
            assignments[page] = best
            matched.append(page)
            accidental[best] = int(self._flips[rank]) - len(set(requirements))
            if telemetry.events_enabled():
                telemetry.event(
                    "template.page",
                    page=int(page),
                    required=len(requirements),
                    matched=True,
                    frame=best,
                    candidates=int(candidates.size),
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
