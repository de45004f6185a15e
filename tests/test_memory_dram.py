"""DRAM array data storage and vulnerable-cell physics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryModelError
from repro.memory.dram import _ARRAY_SEEDING_MIN_ROWS, DRAMArray, _pcg64_states
from repro.memory.geometry import DRAMGeometry, PAGE_FRAME_SIZE
from tests.reference_dram import reference_cells, reference_hammer


@pytest.fixture
def geometry():
    return DRAMGeometry(num_banks=4, rows_per_bank=32, row_size_bytes=8192)


class TestDataStorage:
    def test_read_back_what_was_written(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=0.0, seed=0)
        payload = np.arange(100, dtype=np.uint8)
        dram.write_bytes(12345, payload)
        np.testing.assert_array_equal(dram.read_bytes(12345, 100), payload)

    def test_write_spanning_rows(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=0.0, seed=0)
        start = 8192 - 50  # crosses a row boundary
        payload = np.full(100, 0xAB, dtype=np.uint8)
        dram.write_bytes(start, payload)
        np.testing.assert_array_equal(dram.read_bytes(start, 100), payload)

    def test_frame_io(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=0.0, seed=0)
        payload = np.random.default_rng(0).integers(0, 256, PAGE_FRAME_SIZE).astype(np.uint8)
        dram.write_frame(5, payload)
        np.testing.assert_array_equal(dram.read_frame(5), payload)

    def test_frame_payload_size_checked(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=0.0, seed=0)
        with pytest.raises(MemoryModelError):
            dram.write_frame(0, np.zeros(100, dtype=np.uint8))

    def test_negative_flip_mean_raises(self, geometry):
        with pytest.raises(MemoryModelError):
            DRAMArray(geometry, flips_per_page_mean=-1.0)


def same_cells(a, b):
    return all(
        np.array_equal(getattr(a, field), getattr(b, field))
        for field in ("column", "bit", "direction", "strength")
    )


class TestVulnerableCells:
    def test_cells_are_deterministic_per_device(self, geometry):
        a = DRAMArray(geometry, flips_per_page_mean=10.0, seed=3)
        b = DRAMArray(geometry, flips_per_page_mean=10.0, seed=3)
        assert same_cells(a.vulnerable_cells(1, 5), b.vulnerable_cells(1, 5))

    def test_different_seeds_differ(self, geometry):
        a = DRAMArray(geometry, flips_per_page_mean=10.0, seed=3)
        b = DRAMArray(geometry, flips_per_page_mean=10.0, seed=4)
        assert not same_cells(a.vulnerable_cells(1, 5), b.vulnerable_cells(1, 5))

    def test_density_matches_profile(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=12.0, seed=0)
        counts = [
            len(dram.vulnerable_cells(bank, row))
            for bank in range(geometry.num_banks)
            for row in range(geometry.rows_per_bank)
        ]
        mean_per_page = np.mean(counts) / geometry.pages_per_row
        assert mean_per_page == pytest.approx(12.0, rel=0.2)

    def test_zero_mean_has_no_cells(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=0.0, seed=0)
        assert len(dram.vulnerable_cells(0, 0)) == 0


class TestHammering:
    def test_full_intensity_flips_direction_compatible_cells(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=30.0, seed=1)
        cells = dram.vulnerable_cells(2, 3)
        # victim row all zeros: only 0->1 cells can fire
        flips = dram.hammer_row(2, 3, intensity=1.0)
        assert len(flips) == np.count_nonzero(cells.direction == 1)
        assert all(direction == 1 for _, _, direction in flips)

    def test_flips_actually_change_stored_data(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=30.0, seed=1)
        flips = dram.hammer_row(0, 1, intensity=1.0)
        row_bytes = dram.read_bytes(
            dram.geometry.frames_in_row(0, 1)[0] * PAGE_FRAME_SIZE, 8192
        )
        for column, bit, _ in flips:
            assert row_bytes[column] & (1 << bit)

    def test_hammering_is_idempotent_on_same_data(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=30.0, seed=1)
        first = dram.hammer_row(1, 1, intensity=1.0)
        second = dram.hammer_row(1, 1, intensity=1.0)
        assert first and not second  # already flipped cells cannot re-flip

    def test_one_to_zero_direction(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=30.0, seed=1)
        base = geometry.frames_in_row(3, 7)[0] * PAGE_FRAME_SIZE
        dram.write_bytes(base, np.full(8192, 0xFF, dtype=np.uint8))
        flips = dram.hammer_row(3, 7, intensity=1.0)
        assert flips and all(direction == -1 for _, _, direction in flips)

    def test_intensity_gates_cells_by_strength(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=40.0, seed=2)
        weak = len(dram.hammer_row(0, 9, intensity=0.4))
        dram2 = DRAMArray(geometry, flips_per_page_mean=40.0, seed=2)
        strong = len(dram2.hammer_row(0, 9, intensity=1.0))
        assert weak < strong

    def test_zero_intensity_never_flips(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=40.0, seed=2)
        assert dram.hammer_row(0, 0, intensity=0.0) == []


def cell_tuples(cells):
    return list(
        zip(
            cells.column.tolist(),
            cells.bit.tolist(),
            cells.direction.tolist(),
            cells.strength.tolist(),
        )
    )


devices = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**63 - 1),
        "bank": st.integers(0, 3),
        "row": st.integers(0, 31),
        "row_size": st.sampled_from([4096, 8192, 16384]),
        # Table I spans 1.05 to 109.48 flips/page; 400+ forces repeated draws.
        "density": st.one_of(
            st.sampled_from([0.0, 1.05, 12.48, 100.68, 400.0, 1500.0]),
            st.floats(0.0, 600.0),
        ),
    }
)


def device_for(params):
    geometry = DRAMGeometry(num_banks=4, rows_per_bank=32, row_size_bytes=params["row_size"])
    return DRAMArray(geometry, flips_per_page_mean=params["density"], seed=params["seed"])


class TestDrawStreamOracle:
    @settings(max_examples=60, deadline=None)
    @given(params=devices)
    def test_cells_equal_scalar_reference(self, params):
        dram = device_for(params)
        cells = dram.vulnerable_cells(params["bank"], params["row"])
        expected, _ = reference_cells(dram, params["bank"], params["row"])
        # Field by field and bit-exact: float equality on strength.
        assert cell_tuples(cells) == expected
        assert cells.column.dtype == np.int64 and cells.strength.dtype == np.float64

    @pytest.mark.parametrize("density", [400.0, 1500.0])
    def test_dense_rows_with_repeated_draws_match(self, density, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=density, seed=11)
        repeats = 0
        for row in range(8):
            expected, skipped = reference_cells(dram, 2, row)
            repeats += skipped
            assert cell_tuples(dram.vulnerable_cells(2, row)) == expected
        assert repeats > 0  # the repeat path really ran

    @settings(max_examples=40, deadline=None)
    @given(
        params=devices,
        content_seed=st.integers(0, 2**32 - 1),
        intensities=st.lists(
            st.one_of(st.sampled_from([0.0, 0.45, 1.0]), st.floats(-0.5, 1.5)),
            min_size=1,
            max_size=3,
        ),
        pick=st.integers(0, 2**16),
    )
    def test_hammer_equals_scalar_reference(self, params, content_seed, intensities, pick):
        dram = device_for(params)
        bank, row = params["bank"], params["row"]
        content = np.random.default_rng(content_seed).integers(
            0, 256, params["row_size"], dtype=np.uint8
        )
        dram.row_buffer(bank, row)[:] = content
        expected_data = bytearray(content.tobytes())
        cells, _ = reference_cells(dram, bank, row)
        if cells:  # an intensity exactly at a cell's strength reaches it
            intensities = [cells[pick % len(cells)][3]] + intensities
        for intensity in intensities:
            flips = dram.hammer_row(bank, row, intensity)
            assert flips == reference_hammer(expected_data, cells, intensity)
            assert dram.row_buffer(bank, row).tobytes() == bytes(expected_data)


row_keys = st.tuples(st.integers(0, 3), st.integers(0, 31))


def draw_batch(dram, keys):
    """Draw ``keys`` through one prefetching call; return each key's cells."""
    first_missing = keys[0] not in dram._cells
    dram.vulnerable_cells(*keys[0], prefetch=keys[1:])
    if first_missing:  # the whole batch was drawn by that one call
        assert all(key in dram._cells for key in keys)
    return [dram.vulnerable_cells(*key) for key in keys]


class TestBatchedDraw:
    """A prefetching ``vulnerable_cells`` equals one scalar draw per row."""

    @settings(max_examples=40, deadline=None)
    @given(
        params=devices,
        batch=st.lists(row_keys, min_size=1, max_size=12),
        cached=st.lists(row_keys, max_size=4),
    )
    def test_batch_equals_scalar_reference(self, params, batch, cached):
        dram = device_for(params)
        for bank, row in cached:  # some keys are cached before the batch
            dram.vulnerable_cells(bank, row)
        drawn = draw_batch(dram, batch)
        for (bank, row), cells in zip(batch, drawn):
            assert cell_tuples(cells) == reference_cells(dram, bank, row)[0]
            assert cells.column.dtype == np.int64 and cells.bit.dtype == np.uint8
            assert cells.direction.dtype == np.int8 and cells.strength.dtype == np.float64

    @pytest.mark.parametrize("row_size", [4096, 8192, 16384])
    @pytest.mark.parametrize("density", [400.0, 1500.0])
    def test_dense_rows_with_repeats(self, row_size, density):
        geometry = DRAMGeometry(num_banks=4, rows_per_bank=32, row_size_bytes=row_size)
        dram = DRAMArray(geometry, flips_per_page_mean=density, seed=5)
        batch = [(bank, row) for bank in range(4) for row in (0, 7, 31)]
        repeats = 0
        for (bank, row), cells in zip(batch, draw_batch(dram, batch)):
            expected, skipped = reference_cells(dram, bank, row)
            repeats += skipped
            assert cell_tuples(cells) == expected
        assert repeats > len(batch)  # the multi-pass repeat path really ran

    def test_duplicate_and_cached_keys_share_one_draw(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=30.0, seed=2)
        single = dram.vulnerable_cells(1, 4)
        first, again, other, cached = draw_batch(dram, [(1, 5), (1, 5), (2, 9), (1, 4)])
        assert first is again and cached is single
        assert sorted(dram._cells) == [(1, 4), (1, 5), (2, 9)]
        fresh = DRAMArray(geometry, flips_per_page_mean=30.0, seed=2)
        assert same_cells(first, fresh.vulnerable_cells(1, 5))
        assert same_cells(other, fresh.vulnerable_cells(2, 9))

    @settings(max_examples=40, deadline=None)
    @given(
        # One, two and (past the pool size) three words of device seed.
        device_seed=st.one_of(
            st.integers(0, 2**32 - 1), st.integers(0, 2**63 - 1), st.integers(2**64, 2**90)
        ),
        keys=st.lists(
            st.tuples(st.integers(0, 255), st.integers(0, 2**32 - 1)), min_size=1, max_size=8
        ),
    )
    def test_array_seeding_equals_seed_sequence(self, device_seed, keys):
        for key, (state, inc) in zip(keys, _pcg64_states(device_seed, keys)):
            seeded = np.random.PCG64(np.random.SeedSequence([device_seed, *key]))
            assert seeded.state["state"] == {"state": state, "inc": inc}

    @pytest.mark.parametrize("row_size", [4096, 16384])
    def test_many_rows_use_array_seeding(self, row_size):
        geometry = DRAMGeometry(num_banks=4, rows_per_bank=32, row_size_bytes=row_size)
        dram = DRAMArray(geometry, flips_per_page_mean=40.0, seed=9)
        batch = [(bank, row) for row in range(32) for bank in range(4)]
        assert len(batch) >= _ARRAY_SEEDING_MIN_ROWS
        for (bank, row), cells in zip(batch, draw_batch(dram, batch)):
            assert cell_tuples(cells) == reference_cells(dram, bank, row)[0]

    def test_cached_row_draws_no_prefetch(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=30.0, seed=2)
        cells = dram.vulnerable_cells(1, 4)
        assert dram.vulnerable_cells(1, 4, prefetch=[(2, 9)]) is cells
        assert sorted(dram._cells) == [(1, 4)]

    def test_batch_draw_touches_no_row_bytes(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=30.0, seed=2)
        dram.vulnerable_cells(0, 0, prefetch=[(3, 31)])
        assert dram._rows == {}


class TestFilledRowFlips:
    """``filled_row_flips`` equals hammering a row that holds the fill byte."""

    @settings(max_examples=30, deadline=None)
    @given(
        params=devices,
        key=row_keys,
        content=st.binary(min_size=1, max_size=64),
        intensity=st.sampled_from([0.0, 0.2, 0.45, 0.7, 1.0]),
    )
    def test_equals_hammer_row_on_a_filled_row(self, params, key, content, intensity):
        dram = device_for(params)
        size = dram.geometry.row_size_bytes
        data = dram.row_buffer(*key)
        data[:] = np.resize(np.frombuffer(content, dtype=np.uint8), size)
        before = data.copy()
        for fill in (0x00, 0xFF):
            flips = dram.filled_row_flips(*key, intensity, fill)
            assert np.array_equal(dram.row_buffer(*key), before)  # bytes untouched
            filled = DRAMArray(dram.geometry, dram.flips_per_page_mean, seed=params["seed"])
            filled.row_buffer(*key).fill(fill)
            assert flips == filled.hammer_row(*key, intensity)

    def test_rejects_a_fill_that_is_not_uniform(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=30.0, seed=2)
        with pytest.raises(MemoryModelError, match="fill"):
            dram.filled_row_flips(0, 0, 1.0, 0x01)
