"""DRAM geometry and physical-address mapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryModelError
from repro.memory.geometry import DRAMGeometry, PAGE_FRAME_SIZE


class TestGeometry:
    def test_totals(self):
        geo = DRAMGeometry(num_banks=4, rows_per_bank=8, row_size_bytes=8192)
        assert geo.total_bytes == 4 * 8 * 8192
        assert geo.total_frames == geo.total_bytes // PAGE_FRAME_SIZE
        assert geo.pages_per_row == 2

    def test_row_size_must_be_page_multiple(self):
        with pytest.raises(MemoryModelError):
            DRAMGeometry(row_size_bytes=5000)

    def test_row_size_must_be_power_of_two(self):
        # A multiple of the page size, but the fault-map draw needs 2**k.
        with pytest.raises(MemoryModelError, match="power of two"):
            DRAMGeometry(row_size_bytes=12288)
        assert DRAMGeometry(row_size_bytes=16384).pages_per_row == 4

    @pytest.mark.parametrize("banks", [3, 6, 12])
    def test_num_banks_must_be_power_of_two(self, banks):
        # At 3 banks, frames 6 and 8 would both map to (bank 2, row 1, column 0).
        with pytest.raises(MemoryModelError, match="power of two"):
            DRAMGeometry(num_banks=banks, rows_per_bank=4)

    @pytest.mark.parametrize("banks", [1, 2, 4, 8, 16, 64, 256])
    def test_each_row_owns_one_chunk(self, banks):
        geo = DRAMGeometry(num_banks=banks, rows_per_bank=4)
        seen = {}
        for frame in range(geo.total_frames):
            addr = geo.frame_address(frame)
            # A row's frames are one contiguous chunk, distinct per row.
            chunk = frame // geo.pages_per_row
            assert seen.setdefault((addr.bank, addr.row), chunk) == chunk
            assert geo.frames_in_row(addr.bank, addr.row)[0] == chunk * geo.pages_per_row
        assert len(seen) == banks * geo.rows_per_bank

    def test_non_positive_fields_raise(self):
        with pytest.raises(MemoryModelError):
            DRAMGeometry(num_banks=0)

    def test_address_out_of_range_raises(self):
        geo = DRAMGeometry(num_banks=2, rows_per_bank=2, row_size_bytes=8192)
        with pytest.raises(MemoryModelError):
            geo.address_of(geo.total_bytes)

    def test_column_is_byte_offset_in_row(self):
        geo = DRAMGeometry(num_banks=4, rows_per_bank=8)
        addr = geo.address_of(8192 + 17)
        assert addr.column == 17

    def test_consecutive_rows_spread_across_banks(self):
        geo = DRAMGeometry(num_banks=8, rows_per_bank=16)
        banks = {geo.address_of(chunk * 8192).bank for chunk in range(8)}
        assert len(banks) == 8  # a full rotation hits every bank

    def test_frames_in_row_inverts_frame_address(self):
        geo = DRAMGeometry(num_banks=4, rows_per_bank=8)
        for frame in range(0, geo.total_frames, 7):
            addr = geo.frame_address(frame)
            assert frame in geo.frames_in_row(addr.bank, addr.row)

    def test_frames_in_row_row_out_of_range(self):
        geo = DRAMGeometry(num_banks=2, rows_per_bank=4)
        with pytest.raises(MemoryModelError):
            geo.frames_in_row(0, 4)


@settings(max_examples=50, deadline=None)
@given(frame=st.integers(min_value=0, max_value=4 * 16 * 2 - 1))
def test_property_every_frame_has_exactly_one_row(frame):
    """Property: frame -> (bank, row) is a function and consistent."""
    geo = DRAMGeometry(num_banks=4, rows_per_bank=16, row_size_bytes=8192)
    addr = geo.frame_address(frame)
    frames = geo.frames_in_row(addr.bank, addr.row)
    assert frames.count(frame) == 1
    assert len(frames) == geo.pages_per_row
