"""The online attack phase: placing pages and flipping bits with Rowhammer.

Implements Section IV-B end-to-end against the simulated OS/DRAM:

1. **Templating**: match every weight-file page that needs flips to a
   profiled flippy frame with compatible (offset, bit, direction) cells.
2. **Releasing the flippy rows** (Listing 1): unmap the attacker's frames in
   reverse file order so the per-CPU FILO frame cache hands the victim's
   file pages exactly the planned frames (Figure 4's reversed mapping).
3. **Mapping**: mmap the weight file; verify the placement.
4. **Hammering**: run the n-sided pattern on each target frame's row; read
   the corrupted file back through the page cache.

Baseline attacks whose pages need several flips get the paper's relaxation:
the single flip with the highest priority (largest weight change) in the
page is attempted alone, and the rest are abandoned -- this is how Table II's
online columns are produced for BadNet/FT/TBT/CFT.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from repro import telemetry
from repro.attacks.base import OfflineAttackResult
from repro.errors import AttackError
from repro.log import get_logger
from repro.memory.mmap import MappedFile, OSMemoryModel
from repro.quant.weightfile import PAGE_SIZE_BITS, BitLocation, WeightFile
from repro.rowhammer.hammer import HammerEngine
from repro.rowhammer.profiler import FlipProfile
from repro.rowhammer.templating import PageTemplater, group_targets_by_page

log = get_logger(__name__)


@dataclasses.dataclass
class OnlineInjectionResult:
    """Outcome of one end-to-end Rowhammer injection.

    Attributes
    ----------
    corrupted_weights:
        The weight file as the victim now reads it from the page cache.
    n_flip_required / n_flip_achieved:
        Planned vs actually realized target flips.
    accidental_flips_targeted / accidental_flips_elsewhere:
        Extra flips inside targeted pages (the r_match ``delta``) and in
        other weight-file pages.
    r_match:
        The paper's DRAM match-rate percentage.
    hammer_seconds:
        Simulated wall-clock spent hammering.
    """

    corrupted_weights: np.ndarray
    n_flip_required: int
    n_flip_achieved: int
    accidental_flips_targeted: int
    accidental_flips_elsewhere: int
    r_match: float
    matched_pages: List[int]
    unmatched_pages: List[int]
    hammer_seconds: float
    placement_verified: bool


class OnlineInjector:
    """Runs the online phase against a simulated OS + DRAM."""

    def __init__(
        self,
        os_model: OSMemoryModel,
        engine: HammerEngine,
        profile: FlipProfile,
        attacker_buffer: MappedFile,
        n_sides: int = 7,
    ) -> None:
        self.os = os_model
        self.engine = engine
        self.profile = profile
        self.attacker_buffer = attacker_buffer
        self.n_sides = n_sides

    # ------------------------------------------------------------------
    def inject(
        self,
        offline: OfflineAttackResult,
        file_id: str,
        fallback_single_bit: bool = True,
    ) -> OnlineInjectionResult:
        """Inject the offline phase's flips into the deployed weight file."""
        original = WeightFile(offline.original_weights)
        desired = WeightFile(offline.backdoored_weights)
        locations = original.bit_locations_against(desired)
        n_required = len(locations)
        targets = group_targets_by_page(locations)

        templater = PageTemplater(self.profile)
        match = templater.match(targets)
        if telemetry.events_enabled():
            telemetry.event(
                "online.plan",
                required=n_required,
                pages=len(targets),
                matched=len(match.matched_pages),
                unmatched=len(match.unmatched_pages),
            )

        # Paper relaxation for dense baselines: pages that cannot be fully
        # matched retry with only their highest-priority single flip.
        if fallback_single_bit and match.unmatched_pages:
            log.info(
                "%d page(s) have no fully-matching frame; retrying each with "
                "its single highest-priority flip",
                len(match.unmatched_pages),
            )
            extra_targets: Dict[int, List[BitLocation]] = {}
            for page in match.unmatched_pages:
                best = max(
                    targets[page],
                    key=lambda loc: self._flip_priority(original, desired, loc),
                )
                extra_targets[page] = [best]
            fallback_match = templater.match(
                extra_targets, exclude=match.assignments.values()
            )
            match.assignments.update(fallback_match.assignments)
            match.matched_pages = sorted(
                set(match.matched_pages) | set(fallback_match.matched_pages)
            )
            match.unmatched_pages = sorted(
                set(match.unmatched_pages) - set(fallback_match.matched_pages)
            )
            # Only the single chosen flip per fallback page is still planned.
            for page in fallback_match.matched_pages:
                targets[page] = extra_targets[page]
            if telemetry.events_enabled():
                for page, kept in sorted(extra_targets.items()):
                    telemetry.event(
                        "online.fallback",
                        page=int(page),
                        kept_bit=kept[0].bit_index,
                        kept_offset=kept[0].byte_offset,
                        rescued=page in fallback_match.matched_pages,
                    )

        with telemetry.span("online.massage", pages=original.num_pages):
            mapping = self._place_file(file_id, original, match.assignments)
        placement_hits = sum(
            1 for page, frame in match.assignments.items() if mapping.frame_of(page) == frame
        )
        placement_ok = placement_hits == len(match.assignments)
        if telemetry.events_enabled():
            for page in sorted(match.assignments):
                planned_frame = match.assignments[page]
                actual_frame = mapping.frame_of(page)
                telemetry.event(
                    "massage.place",
                    page=int(page),
                    planned_frame=int(planned_frame),
                    actual_frame=int(actual_frame),
                    hit=actual_frame == planned_frame,
                )
        if telemetry.enabled():
            telemetry.counter_add("massage.rounds")
            telemetry.gauge_set(
                "massage.placement_hit_rate",
                placement_hits / len(match.assignments) if match.assignments else 1.0,
            )

        with telemetry.span("online.hammer", targets=len(match.assignments)):
            hammer_seconds = self._hammer_targets(match.assignments)
        corrupted = np.frombuffer(
            self.os.read_mapping(mapping), dtype=np.int8
        )[: len(original)].copy()

        return self._score(
            original, desired, corrupted, targets, match, n_required, hammer_seconds, placement_ok
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _flip_priority(original: WeightFile, desired: WeightFile, loc: BitLocation) -> float:
        """Priority of one flip: magnitude of its byte's integer change."""
        index = loc.flat_byte_index
        return abs(int(desired.read(index)) - int(original.read(index)))

    def _place_file(
        self, file_id: str, original: WeightFile, assignments: Dict[int, int]
    ) -> MappedFile:
        """Listing 1: release attacker frames so the file lands as planned."""
        num_pages = original.num_pages
        owned = dict(self.attacker_buffer.frames)  # virtual page -> frame
        frame_to_virtual = {frame: page for page, frame in owned.items()}

        target_frames = set(assignments.values())
        missing = [f for f in target_frames if f not in frame_to_virtual]
        if missing:
            raise AttackError(
                f"attacker does not own matched flippy frames {missing[:5]}"
            )
        bait_frames = [
            frame for frame in owned.values() if frame not in target_frames
        ]
        if len(bait_frames) < num_pages - len(assignments):
            raise AttackError(
                "attacker buffer too small: "
                f"{len(bait_frames)} bait frames for {num_pages - len(assignments)} pages"
            )

        # Decide which physical frame each file page should receive.
        plan: Dict[int, int] = dict(assignments)
        bait_iter = iter(bait_frames)
        for page in range(num_pages):
            if page not in plan:
                plan[page] = next(bait_iter)

        # Release in reverse file order: the FILO frame cache then hands
        # file page 0 the last-released frame, page 1 the one before, ...
        if telemetry.events_enabled():
            telemetry.event(
                "massage.release",
                pages=num_pages,
                target_frames=sorted(int(f) for f in target_frames),
            )
        for page in sorted(plan, reverse=True):
            frame = plan[page]
            self.os.munmap_page(self.attacker_buffer, frame_to_virtual[frame])
        telemetry.counter_add("massage.released_frames", len(plan))

        self.os.register_file(file_id, original.to_bytes())
        return self.os.mmap_file(file_id)

    def _hammer_targets(self, assignments: Dict[int, int]) -> float:
        """Hammer the row of every target frame, once each, with the online pattern."""
        start = self.engine.total_seconds
        addresses = map(self.os.dram.geometry.frame_address, assignments.values())
        rows = dict.fromkeys((address.bank, address.row) for address in addresses)
        self.engine.hammer_victim(list(rows), self.n_sides)
        return self.engine.total_seconds - start

    def _score(
        self,
        original: WeightFile,
        desired: WeightFile,
        corrupted: np.ndarray,
        targets: Dict[int, List[BitLocation]],
        match,
        n_required: int,
        hammer_seconds: float,
        placement_ok: bool,
    ) -> OnlineInjectionResult:
        corrupted_file = WeightFile(corrupted)
        achieved_locations = original.bit_locations_against(corrupted_file)
        achieved_keys = {
            (loc.page, loc.byte_offset, loc.bit_index, loc.direction)
            for loc in achieved_locations
        }

        planned_keys = set()
        for page, locations in targets.items():
            for loc in locations:
                planned_keys.add((loc.page, loc.byte_offset, loc.bit_index, loc.direction))
        n_achieved = len(planned_keys & achieved_keys)

        if telemetry.events_enabled():
            unmatched = set(match.unmatched_pages)
            assigned = dict(match.assignments)
            for key in sorted(planned_keys):
                achieved = key in achieved_keys
                if achieved:
                    cause = ""
                elif key[0] in unmatched:
                    cause = "unmatched_page"
                elif key[0] in assigned:
                    cause = "cell_not_flipped" if placement_ok else "placement_miss"
                else:
                    cause = "not_attempted"
                telemetry.event(
                    "verify.flip",
                    page=key[0], byte_offset=key[1], bit=key[2], direction=key[3],
                    achieved=achieved, cause=cause,
                )

        targeted_pages = set(match.assignments)
        accidental_targeted = sum(
            1
            for loc in achieved_locations
            if loc.page in targeted_pages
            and (loc.page, loc.byte_offset, loc.bit_index, loc.direction) not in planned_keys
        )
        accidental_elsewhere = sum(
            1 for loc in achieved_locations if loc.page not in targeted_pages
        )
        from repro.analysis.metrics import dram_match_rate

        r_match = dram_match_rate(
            n_match=n_achieved,
            total_flips=n_required,
            accidental_flips_in_pages=accidental_targeted,
            page_bits=PAGE_SIZE_BITS,
        )
        if telemetry.events_enabled():
            telemetry.event(
                "verify.summary",
                required=n_required,
                achieved=n_achieved,
                accidental_targeted=accidental_targeted,
                accidental_elsewhere=accidental_elsewhere,
                r_match=r_match,
                placement_verified=placement_ok,
            )
        return OnlineInjectionResult(
            corrupted_weights=corrupted,
            n_flip_required=n_required,
            n_flip_achieved=n_achieved,
            accidental_flips_targeted=accidental_targeted,
            accidental_flips_elsewhere=accidental_elsewhere,
            r_match=r_match,
            matched_pages=match.matched_pages,
            unmatched_pages=match.unmatched_pages,
            hammer_seconds=hammer_seconds,
            placement_verified=placement_ok,
        )

