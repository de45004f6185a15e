"""Cross-module property-based tests of the core invariants.

These check reconstruction-style properties that hold for *any* input:
the bit-location diff is a faithful delta encoding, selection respects the
paper's constraints for any gradient field, and the OS model's mappings are
content-faithful under arbitrary operation sequences.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.attacks.cft import WEIGHTS_PER_PAGE, group_sort_select
from repro.memory.frame_cache import PageFrameCache
from repro.quant import WeightFile
from repro.quant.bits import (
    bit_reduce,
    bit_reduce_avoiding,
    flip_bit,
    hamming_distance,
    int8_to_uint8,
)


@settings(max_examples=40, deadline=None)
@given(
    data=hnp.arrays(np.int8, st.integers(1, 600), elements=st.integers(-128, 127)),
    seed=st.integers(0, 2**16),
)
def test_property_bit_locations_are_a_faithful_delta(data, seed):
    """Applying the diff's flips to the original reproduces the target."""
    rng = np.random.default_rng(seed)
    modified = data.copy()
    flip_count = int(rng.integers(0, min(16, data.size)))
    for _ in range(flip_count):
        index = int(rng.integers(0, data.size))
        bit = int(rng.integers(0, 8))
        modified[index] = flip_bit(modified[index : index + 1], bit)[0]

    original_file = WeightFile(data)
    modified_file = WeightFile(modified)
    locations = original_file.bit_locations_against(modified_file)

    rebuilt = data.copy()
    for loc in locations:
        index = loc.flat_byte_index
        rebuilt[index] = flip_bit(rebuilt[index : index + 1], loc.bit_index)[0]
        # Direction is consistent with the target's bit value.
        target_bit = bool(np.uint8(modified[index]) & np.uint8(1 << loc.bit_index))
        assert (loc.direction == 1) == target_bit
    np.testing.assert_array_equal(rebuilt, modified)


_INT8_ARRAYS = hnp.arrays(np.int8, st.integers(1, 256), elements=st.integers(-128, 127))


@settings(max_examples=60, deadline=None)
@given(original=_INT8_ARRAYS, seed=st.integers(0, 2**16))
def test_property_bit_reduce_keeps_msb_of_the_change(original, seed):
    """For any (original, modified) pair the reduction differs from the
    original in at most one bit per weight -- exactly one wherever the
    weight changed at all -- and that bit is the most significant changed
    bit, so the Hamming distance never grows."""
    rng = np.random.default_rng(seed)
    modified = rng.integers(-128, 128, size=original.shape).astype(np.int8)
    reduced = bit_reduce(original, modified)

    diff_full = int8_to_uint8(original) ^ int8_to_uint8(modified)
    diff_kept = int8_to_uint8(original) ^ int8_to_uint8(reduced)
    # At most one bit kept per byte; exactly one iff the weight changed.
    popcounts = np.unpackbits(diff_kept[..., None], axis=-1).sum(axis=-1)
    assert np.all(popcounts <= 1)
    assert np.array_equal(popcounts == 1, diff_full != 0)
    # The kept bit is the change mask's most significant bit: a subset of
    # the mask, with nothing of the mask above it.
    assert np.all(diff_kept & ~diff_full == 0)
    assert np.all(diff_full < 2 * np.maximum(diff_kept.astype(np.int32), 1))
    # Never increases N_flip, and reducing again changes nothing.
    assert hamming_distance(original, reduced) <= hamming_distance(original, modified)
    np.testing.assert_array_equal(bit_reduce(original, reduced), reduced)


@settings(max_examples=60, deadline=None)
@given(
    original=_INT8_ARRAYS,
    seed=st.integers(0, 2**16),
    forbidden=st.sets(st.integers(0, 7), max_size=7),
)
def test_property_bit_reduce_avoiding_never_touches_forbidden_bits(original, seed, forbidden):
    """The RADAR-evading variant keeps the invariants of plain reduction
    while never flipping a forbidden position."""
    rng = np.random.default_rng(seed)
    modified = rng.integers(-128, 128, size=original.shape).astype(np.int8)
    reduced = bit_reduce_avoiding(original, modified, forbidden_bits=tuple(forbidden))

    diff_kept = int8_to_uint8(original) ^ int8_to_uint8(reduced)
    popcounts = np.unpackbits(diff_kept[..., None], axis=-1).sum(axis=-1)
    assert np.all(popcounts <= 1)
    for bit in forbidden:
        assert not np.any(diff_kept & np.uint8(1 << bit))
    # A weight whose only changes were forbidden reverts to the original.
    mask = np.uint8(0xFF)
    for bit in forbidden:
        mask &= np.uint8(~np.uint8(1 << bit))
    allowed_diff = (int8_to_uint8(original) ^ int8_to_uint8(modified)) & mask
    np.testing.assert_array_equal(reduced[allowed_diff == 0], original[allowed_diff == 0])


@settings(max_examples=60, deadline=None)
@given(
    weights_per_page=st.integers(2, 64),
    n_pages=st.integers(1, 8),
    n_flip=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_property_group_sort_select_for_any_page_size(weights_per_page, n_pages, n_flip, seed):
    """C1/C2 hold for arbitrary page sizes: at most ``n_flip`` selections,
    never two from the same page, each its page group's argmax."""
    if n_flip > n_pages:
        n_flip = n_pages
    rng = np.random.default_rng(seed)
    n_w = n_pages * weights_per_page - int(rng.integers(0, weights_per_page // 2 + 1))
    grads = np.abs(rng.normal(size=n_w))
    selected = group_sort_select(grads, n_flip, weights_per_page=weights_per_page)

    assert 1 <= len(selected) <= n_flip  # C1: one weight per flip
    pages = [int(index) // weights_per_page for index in selected]
    assert len(set(pages)) == len(pages)  # C2: never two flips in one page
    pages_per_group = max(1, n_w // (weights_per_page * n_flip))
    span = weights_per_page * pages_per_group
    for index in selected:
        group = min(int(index) // span, n_flip - 1)
        lo = group * span
        hi = n_w if group == n_flip - 1 else (group + 1) * span
        assert grads[index] == grads[lo:hi].max()


@settings(max_examples=30, deadline=None)
@given(
    n_pages=st.integers(1, 6),
    n_flip=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_property_group_sort_select_constraints(n_pages, n_flip, seed):
    """For any gradient field: <= n_flip picks, one per page-aligned group,
    each the maximum-magnitude weight of its group."""
    if n_flip > n_pages:
        n_flip = n_pages
    rng = np.random.default_rng(seed)
    n_w = n_pages * WEIGHTS_PER_PAGE - int(rng.integers(0, WEIGHTS_PER_PAGE // 2))
    grads = rng.normal(size=n_w)
    selected = group_sort_select(np.abs(grads), n_flip)

    assert 1 <= len(selected) <= n_flip
    pages = set()
    pages_per_group = max(1, n_w // (WEIGHTS_PER_PAGE * n_flip))
    span = WEIGHTS_PER_PAGE * pages_per_group
    for index in selected:
        group = min(index // span, n_flip - 1)
        assert group not in pages
        pages.add(group)
        # The pick is its group's argmax.
        lo = group * span
        hi = n_w if group == n_flip - 1 else (group + 1) * span
        assert np.abs(grads[index]) == np.abs(grads[lo:hi]).max()


@settings(max_examples=30, deadline=None)
@given(operations=st.lists(st.integers(0, 49), min_size=1, max_size=60))
def test_property_frame_cache_is_lifo_under_any_sequence(operations):
    """Model-based: the frame cache behaves as a stack for any op sequence."""
    cache = PageFrameCache()
    model_stack = []
    for op in operations:
        if op % 2 == 0 and not cache.contains(op):
            cache.release(op)
            model_stack.append(op)
        elif len(cache):
            assert cache.allocate() == model_stack.pop()
    assert cache.peek_allocation_order() == list(reversed(model_stack))


@settings(max_examples=15, deadline=None)
@given(
    num_pages=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_property_file_mapping_is_content_faithful(num_pages, seed):
    """mmap of any registered file reads back exactly its content."""
    from repro.memory.dram import DRAMArray
    from repro.memory.geometry import DRAMGeometry
    from repro.memory.mmap import OSMemoryModel

    rng = np.random.default_rng(seed)
    geometry = DRAMGeometry(num_banks=4, rows_per_bank=32, row_size_bytes=8192)
    os_model = OSMemoryModel(DRAMArray(geometry, 0.0, seed=0), rng=seed)
    size = int(rng.integers(1, num_pages * 4096 + 1))
    content = rng.integers(0, 256, size=size).astype(np.uint8).tobytes()
    os_model.register_file("f", content)
    mapping = os_model.mmap_file("f")
    assert os_model.read_mapping(mapping)[: len(content)] == content


@settings(max_examples=20, deadline=None)
@given(
    requirements=st.lists(
        st.tuples(st.integers(0, 4095), st.integers(0, 7), st.sampled_from([1, -1])),
        min_size=1,
        max_size=4,
        unique=True,
    )
)
def test_property_templating_assignments_always_cover_requirements(requirements):
    """Any frame the templater assigns covers every required flip of its page."""
    from repro.quant.weightfile import BitLocation
    from repro.rowhammer.profiler import FlipProfile, FlipRecord
    from repro.rowhammer.templating import PageTemplater

    # Build a profile where frame 100 covers all requirements and frame 101
    # covers only the first.
    records = [
        FlipRecord(frame=100, byte_offset=o, bit=b, direction=d, n_sides=7)
        for o, b, d in requirements
    ]
    first = requirements[0]
    records.append(
        FlipRecord(frame=101, byte_offset=first[0], bit=first[1], direction=first[2], n_sides=7)
    )
    profile = FlipProfile.from_records(records, [100, 101], n_sides=7)
    templater = PageTemplater(profile)
    targets = {
        0: [BitLocation(page=0, byte_offset=o, bit_index=b, direction=d) for o, b, d in requirements]
    }
    match = templater.match(targets)
    assert match.matched_pages == [0]
    frame = match.assignments[0]
    mine = profile.frame == frame
    covered = set(
        zip(
            profile.byte_offset[mine].tolist(),
            profile.bit[mine].tolist(),
            profile.direction[mine].tolist(),
        )
    )
    for o, b, d in requirements:
        assert (o, b, d) in covered
