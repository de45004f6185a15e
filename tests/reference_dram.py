"""Scalar reference loops that define the fault map, hammering and profiling.

They live only in the tests, so the library keeps a single (vectorized)
code path; the oracle tests check the library against them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.memory.geometry import PAGE_FRAME_SIZE


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
