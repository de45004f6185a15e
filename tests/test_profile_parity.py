"""The batched profiler equals the per-row fill/hammer/restore loop.

``MemoryProfiler.profile_frames`` hammers many rows per call and never
touches their bytes.  These tests hold it to the scalar reference in
``tests/reference_dram.py``: the same flips in the same order and dtype,
the same simulated hammer time, and the same per-attempt counters,
histogram and flight-record events.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import MemoryModelError, RowhammerError
from repro.memory.dram import CELLS_PER_BATCH, CellMap, DRAMArray
from repro.memory.geometry import DRAMGeometry
from repro.memory.mmap import OSMemoryModel
from repro.rowhammer import DEVICE_PROFILES, HammerEngine, MemoryProfiler, get_profile
from repro.rowhammer.profiler import DRAW_AHEAD_ROWS
from tests.reference_dram import reference_profile


def _device(name, row_size, seed, pages, rows_per_bank=64):
    geometry = DRAMGeometry(num_banks=4, rows_per_bank=rows_per_bank, row_size_bytes=row_size)
    device = get_profile(name)
    dram = DRAMArray(geometry, flips_per_page_mean=device.flips_per_page, seed=seed)
    os_model = OSMemoryModel(dram, rng=seed + 1)
    mapping = os_model.mmap_anonymous(pages)
    return dram, os_model, HammerEngine(dram, device), mapping


def _check_parity(dram, os_model, engine, frames, n_sides):
    """Profile ``frames`` with telemetry on; compare everything to the reference."""
    telemetry.reset()
    telemetry.enable()
    telemetry.enable_events()
    rows_before = {key: data.copy() for key, data in dram._rows.items()}
    seconds_before = engine.total_seconds

    profile = MemoryProfiler(os_model, engine).profile_frames(frames, n_sides)

    expected, attempts = reference_profile(dram, frames, engine.intensity(n_sides))
    columns = (profile.frame, profile.byte_offset, profile.bit, profile.direction)
    assert all(column.dtype == np.int64 for column in columns)
    assert list(zip(*(column.tolist() for column in columns))) == expected

    seconds = engine.seconds_per_row(n_sides)
    total = seconds_before
    for _ in attempts:  # accumulated one attempt at a time, in order
        total += seconds
    assert engine.total_seconds == total

    counters = telemetry.get_registry().snapshot()["counters"]
    assert counters.get("hammer.attempts", 0) == len(attempts)
    assert counters.get("hammer.flips", 0) == sum(flips for _, _, flips in attempts)
    assert counters.get("hammer.simulated_seconds", 0.0) == total - seconds_before
    histograms = telemetry.get_registry().histogram_values()
    observed = histograms.get("hammer.flips_per_attempt", [])
    assert observed == [flips for _, _, flips in attempts]
    events = [e for e in telemetry.get_recorder().to_dicts() if e["kind"] == "hammer.attempt"]
    assert [e["data"] for e in events] == [
        {"bank": bank, "row": row, "n_sides": n_sides, "flips": flips, "seconds": seconds}
        for bank, row, flips in attempts
    ]
    assert all(e["span"] == "profiler.sweep" for e in events)

    # No row is read, written or materialized.
    assert dram._rows.keys() == rows_before.keys()
    assert all(np.array_equal(dram._rows[key], data) for key, data in rows_before.items())
    return profile


def _flips(hit):
    """Each attempt's flips of a ``HammerResult``, as (column, bit, direction) lists."""
    flips = list(zip(hit.column.tolist(), hit.bit.tolist(), hit.direction.tolist()))
    bounds = np.cumsum(hit.counts).tolist()
    return [flips[lo:hi] for lo, hi in zip([0] + bounds[:-1], bounds)]


class TestProfilerParity:
    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(DEVICE_PROFILES)),
        n_sides=st.sampled_from([1, 2, 3, 7, 15]),
        row_size=st.sampled_from([4096, 8192, 16384]),
        seed=st.integers(0, 2**16),
        keep=st.floats(0.2, 1.0),
    )
    def test_profile_equals_reference(self, name, n_sides, row_size, seed, keep):
        dram, os_model, engine, mapping = _device(name, row_size, seed, pages=48)
        rng = np.random.default_rng(seed)
        # Random row contents: the fills must not depend on them.
        for page in range(0, 48, 3):
            os_model.write_page(mapping, page, rng.integers(0, 256, 4096, dtype=np.uint8))
        frames = [mapping.frames[page] for page in sorted(mapping.frames)]
        frames = [frames[i] for i in rng.permutation(len(frames)) if rng.random() < keep]
        _check_parity(dram, os_model, engine, frames, n_sides)

    @pytest.mark.parametrize("row_size", [8192, 16384])
    def test_one_page_per_row(self, row_size):
        # Only the first frame of each row is profiled; the others' flips drop.
        dram, os_model, engine, mapping = _device("K1", row_size, 3, pages=64)
        geometry = dram.geometry
        frames = {}
        for frame in mapping.frames.values():
            address = geometry.frame_address(frame)
            frames.setdefault((address.bank, address.row), frame)
        profile = _check_parity(dram, os_model, engine, list(frames.values()), 15)
        assert profile.num_flips > 0

    @pytest.mark.parametrize("name, n_sides", [("K1", 2), ("A1", 2), ("K1", 1)])
    def test_weak_patterns_are_timed_even_without_flips(self, name, n_sides):
        dram, os_model, engine, mapping = _device(name, 8192, 4, pages=16)
        frames = list(mapping.frames.values())
        profile = _check_parity(dram, os_model, engine, frames, n_sides)
        assert (profile.num_flips == 0) == (engine.intensity(n_sides) == 0.0)

    def test_more_rows_than_one_batch(self):
        pages = 300  # one page per row, about 100 cells each on K1
        dram, os_model, engine, mapping = _device("K1", 4096, 8, pages, rows_per_bank=128)
        assert pages > 4 * CELLS_PER_BATCH / dram.flips_per_page_mean  # several batches
        assert pages > DRAW_AHEAD_ROWS  # and more than one batch draw
        frames = [mapping.frames[page] for page in sorted(mapping.frames)]
        assert len({dram.geometry.frame_address(frame) for frame in frames}) == pages  # rows
        profile = _check_parity(dram, os_model, engine, frames, 7)
        assert profile.num_flips > 0

    def test_empty_frame_list(self):
        dram, os_model, engine, _ = _device("K1", 8192, 0, pages=4)
        profile = _check_parity(dram, os_model, engine, [], 15)
        assert profile.num_flips == 0 and profile.profiled_frames == []


class TestProfilerInputs:
    @pytest.fixture
    def device(self):
        return _device("K1", 8192, 1, pages=8)

    def test_duplicate_frames_raise(self, device):
        _, os_model, engine, mapping = device
        frames = list(mapping.frames.values())
        profiler = MemoryProfiler(os_model, engine)
        assert profiler.profile_frames(frames, 15).avg_flips_per_page > 0
        with pytest.raises(RowhammerError, match="distinct"):
            profiler.profile_frames(frames + frames, 15)
        with pytest.raises(RowhammerError, match="distinct"):
            profiler.profile_frames(frames[:1] * 2, 15)

    @pytest.mark.parametrize("frame", [-1, "end"])
    def test_frame_outside_device_raises(self, device, frame):
        dram, os_model, engine, _ = device
        frame = dram.geometry.total_frames if frame == "end" else frame
        with pytest.raises(MemoryModelError, match="outside device"):
            MemoryProfiler(os_model, engine).profile_frames([0, frame], 15)

    def test_fill_must_be_uniform(self, device):
        dram, _, engine, _ = device
        for fills in [(0x0F,), (0x00, 0x0F), (0x00, 0x00)]:
            with pytest.raises(MemoryModelError, match="fill"):
                engine.hammer_victim([(0, 1), (1, 2)], 15, fills=fills)
        assert engine.total_seconds == 0.0
        assert dram._cells == {}

    def test_zero_intensity_reaches_no_cell_of_strength_zero(self, device):
        dram, _, engine, _ = device
        # Two cached cells of strength exactly 0, one per direction.
        dram._cells[(0, 1)] = CellMap(
            column=np.array([5, 9]), bit=np.array([1, 2], dtype=np.uint8),
            direction=np.array([1, -1], dtype=np.int8), strength=np.zeros(2),
        )
        assert engine.intensity(2) == 0.0  # K1 is TRR-protected
        rows = set(dram._rows)
        assert _flips(engine.hammer_victim([(0, 1)], 2, fills=(0x00,))) == [[]]
        assert _flips(engine.hammer_victim([(0, 1)], 2, fills=(0xFF,))) == [[]]
        assert _flips(engine.hammer_victim([(0, 1)], 2, fills=(0x00, 0xFF))) == [[], []]
        assert _flips(engine.hammer_victim([(0, 1)], 2)) == [[]]
        assert _flips(engine.hammer_victim([(0, 1)], 15, fills=(0x00,))) == [[(5, 1, 1)]]
        assert _flips(engine.hammer_victim([(0, 1)], 15, fills=(0xFF,))) == [[(9, 2, -1)]]
        assert _flips(engine.hammer_victim([(0, 1)], 15, fills=(0xFF, 0x00))) == [
            [(9, 2, -1)], [(5, 1, 1)]
        ]
        assert set(dram._rows) == rows  # no row is materialized

    def test_zero_intensity_draws_no_fault_map(self, device):
        dram, os_model, engine, mapping = device
        rows = set(dram._rows)
        profile = MemoryProfiler(os_model, engine).profile_frames(list(mapping.frames.values()), 2)
        assert profile.num_flips == 0
        assert engine.total_seconds > 0  # the attempts still take their time
        assert dram._cells == {} and set(dram._rows) == rows


def test_profiling_keeps_its_arrays_at_batch_size():
    # Table I's buffer on K1: 1,024 pages in 512 rows of 8 KB, about 200
    # cells per row.  ``tracemalloc`` counts NumPy's allocations, so the
    # bound does not depend on the heap's layout.  The transient peak (peak
    # minus what the call leaves held: the profile and the cached cell maps)
    # is 3.5 MB, mostly the final join of the profile's columns; hammering
    # the whole buffer in one pass raised it to 12.6 MB.
    geometry = DRAMGeometry(num_banks=8, rows_per_bank=1024, row_size_bytes=8192)
    device = get_profile("K1")
    dram = DRAMArray(geometry, flips_per_page_mean=device.flips_per_page, seed=0)
    os_model = OSMemoryModel(dram, rng=1)
    mapping = os_model.mmap_anonymous(1024)
    profiler = MemoryProfiler(os_model, HammerEngine(dram, device))
    gc.collect()
    tracemalloc.start()
    try:
        profile = profiler.profile_mapping(mapping, 15)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.num_flips > 0
    transient = (peak - held) / 2**20
    assert transient < 5.0, f"profiling transient peak {transient:.1f} MB over 5 MB"
