"""Hammer engine, device profiles, fault profiler and templating."""

import numpy as np
import pytest

from repro.errors import RowhammerError
from repro.memory.dram import DRAMArray
from repro.memory.geometry import DRAMGeometry
from repro.memory.mmap import OSMemoryModel
from repro.quant.weightfile import BitLocation
from repro.rowhammer import (
    DDR3_PROFILES,
    DDR4_PROFILES,
    DEVICE_PROFILES,
    HammerEngine,
    MemoryProfiler,
    PageTemplater,
    get_profile,
)
from repro.rowhammer.profiler import FlipProfile, FlipRecord
from repro.rowhammer.templating import group_targets_by_page


class TestDeviceProfiles:
    def test_table1_counts(self):
        assert len(DDR3_PROFILES) == 14
        assert len(DDR4_PROFILES) == 6
        assert len(DEVICE_PROFILES) == 20

    def test_table1_sample_values(self):
        assert get_profile("K1").flips_per_page == pytest.approx(100.68)
        assert get_profile("F1").flips_per_page == pytest.approx(28.77)
        assert get_profile("B1").flips_per_page == pytest.approx(1.05)

    def test_trr_only_on_ddr4(self):
        assert all(not p.trr_protected for p in DDR3_PROFILES.values())
        assert all(p.trr_protected for p in DDR4_PROFILES.values())

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            get_profile("Z9")


class TestHammerEngine:
    @pytest.fixture
    def engines(self, small_dram):
        return (
            HammerEngine(small_dram, get_profile("K1")),  # DDR4 + TRR
            HammerEngine(small_dram, get_profile("A1")),  # DDR3
        )

    def test_trr_defeats_double_sided_on_ddr4(self, engines):
        ddr4, ddr3 = engines
        assert ddr4.intensity(2) == 0.0
        assert not ddr4.double_sided_effective()
        assert ddr3.intensity(2) > 0.0
        assert ddr3.double_sided_effective()

    def test_intensity_monotone_in_sides(self, engines):
        ddr4, _ = engines
        intensities = [ddr4.intensity(n) for n in range(3, 16)]
        assert all(a <= b for a, b in zip(intensities, intensities[1:]))
        assert ddr4.intensity(15) == pytest.approx(1.0)

    def test_intensity_capped_at_max_sides(self, engines):
        ddr4, _ = engines
        assert ddr4.intensity(30) == ddr4.intensity(15)

    def test_invalid_sides_raise(self, engines):
        ddr4, _ = engines
        with pytest.raises(RowhammerError):
            ddr4.intensity(0)

    def test_timing_matches_paper_anchors(self, engines):
        ddr4, _ = engines
        assert ddr4.seconds_per_row(7) == pytest.approx(0.4)
        assert ddr4.seconds_per_row(15) == pytest.approx(0.8, rel=0.1)

    def test_hammer_accumulates_time(self, engines):
        ddr4, _ = engines
        before = ddr4.total_seconds
        ddr4.hammer_victim([(0, 1)], 7)
        assert ddr4.total_seconds == pytest.approx(before + 0.4)

    @pytest.mark.parametrize("fills", [None, (0x00, 0xFF)])
    def test_out_of_range_row_raises(self, engines, fills):
        ddr4, _ = engines
        with pytest.raises(RowhammerError, match="row"):
            ddr4.hammer_victim([(0, 1), (0, 10_000)], 7, fills)
        assert ddr4.total_seconds == 0.0  # no attempt of the batch is charged
        assert (0, 1) not in ddr4.dram._rows and not ddr4.dram._cells

    @pytest.mark.parametrize("fills", [None, (0x00, 0xFF)])
    @pytest.mark.parametrize("bank", [-1, 10_000])
    def test_out_of_range_bank_raises(self, engines, bank, fills):
        ddr4, _ = engines
        with pytest.raises(RowhammerError, match="bank"):
            ddr4.hammer_victim([(0, 1), (bank, 1)], 7, fills)
        assert ddr4.total_seconds == 0.0
        assert (bank, 1) not in ddr4.dram._rows  # no phantom row materialized
        assert (0, 1) not in ddr4.dram._rows and not ddr4.dram._cells

    def test_one_call_hammers_each_row_once_on_its_bytes(self, engines):
        ddr4, _ = engines
        dram = ddr4.dram
        for key in [(0, 1), (2, 5)]:
            dram.row_buffer(*key)[::2] = 0xFF  # both flip directions can fire
        expected = DRAMArray(dram.geometry, dram.flips_per_page_mean, seed=7)  # small_dram's
        for key in [(0, 1), (2, 5)]:
            expected.row_buffer(*key)[:] = dram.row_buffer(*key)
        hit = ddr4.hammer_victim([(0, 1), (2, 5)], 15)
        flips = [expected.hammer_row(*key, ddr4.intensity(15)) for key in [(0, 1), (2, 5)]]
        assert hit.bank.tolist() == [0, 2] and hit.row.tolist() == [1, 5]
        assert hit.counts.tolist() == [len(f) for f in flips] and min(hit.counts) > 0
        assert list(zip(hit.column.tolist(), hit.bit.tolist(), hit.direction.tolist())) == (
            flips[0] + flips[1]
        )
        assert all(np.array_equal(dram.row_buffer(*key), expected.row_buffer(*key))
                   for key in [(0, 1), (2, 5)])
        assert ddr4.total_seconds == pytest.approx(2 * 0.8, rel=0.1)


class TestProfiler:
    @pytest.fixture
    def setup(self):
        geometry = DRAMGeometry(num_banks=4, rows_per_bank=128, row_size_bytes=8192)
        dram = DRAMArray(geometry, flips_per_page_mean=25.0, seed=9)
        os_model = OSMemoryModel(dram, rng=1)
        engine = HammerEngine(dram, get_profile("K1"))
        return os_model, engine

    def test_profile_counts_and_density(self, setup):
        os_model, engine = setup
        mapping = os_model.mmap_anonymous(128)
        profile = MemoryProfiler(os_model, engine).profile_mapping(mapping, n_sides=15)
        assert profile.num_frames == 128
        # Full intensity reaches every cell: expect ~25/page on average.
        assert profile.avg_flips_per_page == pytest.approx(25.0, rel=0.25)

    def test_directions_roughly_balanced(self, setup):
        os_model, engine = setup
        mapping = os_model.mmap_anonymous(128)
        profile = MemoryProfiler(os_model, engine).profile_mapping(mapping, n_sides=15)
        up, down = profile.direction_counts()
        assert up + down == profile.num_flips
        assert 0.35 < up / profile.num_flips < 0.65

    def test_lower_sides_find_fewer_flips(self, setup):
        os_model, engine = setup
        mapping = os_model.mmap_anonymous(64)
        frames = [mapping.frames[p] for p in sorted(mapping.frames)]
        profiler = MemoryProfiler(os_model, engine)
        few = profiler.profile_frames(frames, n_sides=7).num_flips
        many = profiler.profile_frames(frames, n_sides=15).num_flips
        assert few < many

    def test_profiling_restores_memory_content(self, setup):
        os_model, engine = setup
        mapping = os_model.mmap_anonymous(8)
        payload = np.full(4096, 0x3C, dtype=np.uint8)
        os_model.write_page(mapping, 0, payload)
        MemoryProfiler(os_model, engine).profile_mapping(mapping, n_sides=15)
        np.testing.assert_array_equal(os_model.read_page(mapping, 0), payload)

    def test_profile_is_repeatable(self, setup):
        os_model, engine = setup
        mapping = os_model.mmap_anonymous(32)
        frames = [mapping.frames[p] for p in sorted(mapping.frames)]
        profiler = MemoryProfiler(os_model, engine)
        first = profiler.profile_frames(frames, n_sides=15)
        second = profiler.profile_frames(frames, n_sides=15)
        assert {r.key for r in first.records} == {r.key for r in second.records}

    def test_estimated_minutes_scales_with_size(self, setup):
        os_model, engine = setup
        mapping = os_model.mmap_anonymous(32)
        profile = MemoryProfiler(os_model, engine).profile_mapping(mapping, n_sides=15)
        # 32 pages = 128 KB; paper rate is 94 min per 128 MB.
        assert profile.estimated_minutes() == pytest.approx(94.0 / 1024, rel=1e-3)

    def test_merge_rejects_overlap(self, setup):
        os_model, engine = setup
        mapping = os_model.mmap_anonymous(8)
        profiler = MemoryProfiler(os_model, engine)
        profile = profiler.profile_mapping(mapping, n_sides=15)
        with pytest.raises(RowhammerError):
            profile.merge(profile)


class TestFlipProfileColumns:
    def _record(self, frame, offset, bit, direction):
        return FlipRecord(frame=frame, byte_offset=offset, bit=bit, direction=direction, n_sides=7)

    def test_per_page_counts_and_record_round_trip(self):
        records = [
            self._record(12, 5, 0, -1),
            self._record(10, 7, 3, 1),
            self._record(99, 1, 1, 1),  # outside the profiled frames
            self._record(10, 9, 6, -1),
        ]
        profile = FlipProfile.from_records(records, [12, 11, 10], n_sides=7)
        assert profile.flips_per_page().tolist() == [1, 0, 2]
        assert profile.direction_counts() == (2, 2)
        assert profile.records == records

    def test_merge_concatenates_columns(self):
        first = FlipProfile.from_records([self._record(1, 2, 3, 1)], [1], n_sides=15)
        second = FlipProfile.from_records([self._record(4, 5, 6, -1)], [4, 5], n_sides=7)
        merged = first.merge(second)
        assert merged.profiled_frames == [1, 4, 5] and merged.n_sides == 7
        assert [r.key for r in merged.records] == [(2, 3, 1), (5, 6, -1)]
        assert merged.flips_per_page().tolist() == [1, 1, 0]

    def test_empty_profile(self):
        profile = FlipProfile.from_records([], [3, 4], n_sides=7)
        assert profile.num_flips == 0 and profile.records == []
        assert profile.flips_per_page().tolist() == [0, 0]


class TestTemplating:
    def _profile(self, records, frames):
        return FlipProfile.from_records(records, frames, n_sides=7)

    def _record(self, frame, offset, bit, direction):
        return FlipRecord(frame=frame, byte_offset=offset, bit=bit, direction=direction, n_sides=7)

    def test_single_bit_target_matches(self):
        profile = self._profile([self._record(10, 100, 3, 1)], [10, 11])
        templater = PageTemplater(profile)
        targets = {0: [BitLocation(page=0, byte_offset=100, bit_index=3, direction=1)]}
        match = templater.match(targets)
        assert match.assignments == {0: 10}
        assert match.match_fraction == 1.0

    def test_direction_mismatch_fails(self):
        profile = self._profile([self._record(10, 100, 3, -1)], [10])
        targets = {0: [BitLocation(page=0, byte_offset=100, bit_index=3, direction=1)]}
        match = PageTemplater(profile).match(targets)
        assert match.unmatched_pages == [0]

    def test_multi_bit_page_requires_single_frame_covering_all(self):
        records = [self._record(10, 100, 3, 1), self._record(10, 200, 2, -1)]
        profile = self._profile(records, [10])
        targets = {
            0: [
                BitLocation(page=0, byte_offset=100, bit_index=3, direction=1),
                BitLocation(page=0, byte_offset=200, bit_index=2, direction=-1),
            ]
        }
        match = PageTemplater(profile).match(targets)
        assert match.assignments == {0: 10}

    def test_frames_are_not_reused(self):
        records = [self._record(10, 100, 3, 1)]
        profile = self._profile(records, [10])
        targets = {
            0: [BitLocation(page=0, byte_offset=100, bit_index=3, direction=1)],
            1: [BitLocation(page=1, byte_offset=100, bit_index=3, direction=1)],
        }
        match = PageTemplater(profile).match(targets)
        assert len(match.assignments) == 1
        assert len(match.unmatched_pages) == 1

    def test_prefers_cleanest_frame(self):
        records = [
            self._record(10, 100, 3, 1),
            self._record(11, 100, 3, 1),
            self._record(11, 500, 2, 1),  # frame 11 has an extra flip
        ]
        profile = self._profile(records, [10, 11])
        targets = {0: [BitLocation(page=0, byte_offset=100, bit_index=3, direction=1)]}
        match = PageTemplater(profile).match(targets)
        assert match.assignments == {0: 10}
        assert match.expected_accidental_flips[10] == 0

    def test_group_targets_by_page(self):
        locations = [
            BitLocation(page=2, byte_offset=0, bit_index=0, direction=1),
            BitLocation(page=2, byte_offset=1, bit_index=0, direction=1),
            BitLocation(page=5, byte_offset=9, bit_index=1, direction=-1),
        ]
        grouped = group_targets_by_page(locations)
        assert set(grouped) == {2, 5}
        assert len(grouped[2]) == 2
