"""DRAM geometry and physical-address mapping.

Physical memory is divided into 4 KB page frames; the DRAM array is divided
into banks of rows (8 KB rows by default, i.e. two page frames per row, as
discussed in the paper's Section VIII).  The memory controller interleaves
consecutive row-sized chunks across banks with an XOR-folded bank hash,
mirroring how real controllers spread adjacent physical addresses.
"""

from __future__ import annotations

import dataclasses

from repro.errors import MemoryModelError

PAGE_FRAME_SIZE = 4096


@dataclasses.dataclass(frozen=True)
class DRAMAddress:
    """Location of a byte inside the DRAM array."""

    bank: int
    row: int
    column: int  # byte offset within the row


@dataclasses.dataclass(frozen=True)
class DRAMGeometry:
    """Shape of a simulated DRAM device.

    Attributes
    ----------
    num_banks:
        Number of independent banks (row buffers).
    rows_per_bank:
        Rows in each bank.
    row_size_bytes:
        Bytes per row, a power of two; 8192 by default (two 4 KB page
        frames per row).
    """

    num_banks: int = 16
    rows_per_bank: int = 4096
    row_size_bytes: int = 8192

    def __post_init__(self) -> None:
        if self.row_size_bytes % PAGE_FRAME_SIZE != 0:
            raise MemoryModelError(
                f"row size {self.row_size_bytes} must be a multiple of {PAGE_FRAME_SIZE}"
            )
        for field in ("num_banks", "rows_per_bank", "row_size_bytes"):
            if getattr(self, field) <= 0:
                raise MemoryModelError(f"{field} must be positive")
        if self.row_size_bytes & (self.row_size_bytes - 1):
            # Real DRAM rows are; the fault-map draw decodes columns with an
            # exact multiply-shift that needs a power-of-two range.
            raise MemoryModelError(f"row size {self.row_size_bytes} must be a power of two")
        if self.num_banks & (self.num_banks - 1):
            # The XOR-folded bank hash is a bijection on each row's chunk
            # window only for a power-of-two bank count; otherwise two
            # chunks share a (bank, row) and their frames alias.
            raise MemoryModelError(f"num_banks {self.num_banks} must be a power of two")

    @property
    def pages_per_row(self) -> int:
        return self.row_size_bytes // PAGE_FRAME_SIZE

    @property
    def total_bytes(self) -> int:
        return self.num_banks * self.rows_per_bank * self.row_size_bytes

    @property
    def total_frames(self) -> int:
        return self.total_bytes // PAGE_FRAME_SIZE

    # ------------------------------------------------------------------
    # Physical address <-> DRAM coordinates
    # ------------------------------------------------------------------
    def address_of(self, phys_addr: int) -> DRAMAddress:
        """Map a physical byte address to (bank, row, column).

        Consecutive row-sized chunks rotate across banks; the bank index is
        XOR-folded with low row bits, as real controllers do to spread row
        conflicts (this is what the row-conflict side channel reverses).
        """
        if not 0 <= phys_addr < self.total_bytes:
            raise MemoryModelError(
                f"physical address {phys_addr:#x} outside device ({self.total_bytes:#x} bytes)"
            )
        bank, row = self.chunk_location(phys_addr // self.row_size_bytes)
        return DRAMAddress(bank=bank, row=row, column=phys_addr % self.row_size_bytes)

    def chunk_location(self, chunk):
        """(bank, row) of a row-sized chunk of physical memory.

        ``chunk`` may be an int or an integer array (one entry per chunk).
        """
        row = chunk // self.num_banks
        return (chunk ^ row) % self.num_banks, row

    def frame_address(self, frame: int) -> DRAMAddress:
        """DRAM coordinates of the first byte of a page frame."""
        return self.address_of(frame * PAGE_FRAME_SIZE)

    def frames_in_row(self, bank: int, row: int) -> list:
        """All page-frame numbers whose bytes live in (bank, row)."""
        if not 0 <= row < self.rows_per_bank:
            raise MemoryModelError(f"row {row} out of range [0, {self.rows_per_bank})")
        frames = []
        # All chunks with this row index lie in one contiguous chunk window.
        for chunk in range(row * self.num_banks, (row + 1) * self.num_banks):
            if self.chunk_location(chunk)[0] == bank:
                base_frame = chunk * self.pages_per_row
                frames.extend(range(base_frame, base_frame + self.pages_per_row))
        return frames
