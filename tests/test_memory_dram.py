"""DRAM array data storage and vulnerable-cell physics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryModelError
from repro.memory.dram import DRAMArray
from repro.memory.geometry import DRAMGeometry, PAGE_FRAME_SIZE


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


# ----------------------------------------------------------------------
# Draw-stream oracle: the scalar loops that define the fault map.  They
# live only here, so the library keeps a single (vectorized) code path.
# ----------------------------------------------------------------------
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
