"""The columnar ``PageTemplater`` equals the dict-of-sets reference.

``tests/reference_dram.py`` keeps the templater that held each frame's
flips as a set, and the view that hid claimed frames for the online
fallback.  The library indexes the profile by flip key instead; on random
profiles (keys shared across frames, ties in flip count, frames without
flips, merged profiles) both must cover, assign and report alike, with
``match(..., exclude=...)`` standing in for the hiding view.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.quant.weightfile import BitLocation
from repro.rowhammer.profiler import FlipProfile, FlipRecord
from repro.rowhammer.templating import PageTemplater
from tests.reference_dram import ReferencePageTemplater, ReferenceRestrictedTemplater

# A small key pool, so frames share keys and tie on flip counts; byte
# offset 3 is never profiled, so requirements using it have no cover.
profiled_keys = st.tuples(st.integers(0, 2), st.integers(0, 1), st.sampled_from([1, -1]))
required_keys = st.tuples(st.integers(0, 3), st.integers(0, 1), st.sampled_from([1, -1]))


@st.composite
def cases(draw):
    frames = draw(st.lists(st.integers(0, 50_000), min_size=1, max_size=12, unique=True))

    def profile(owned):
        records = [
            FlipRecord(frame=frame, byte_offset=o, bit=b, direction=d, n_sides=7)
            for frame, (o, b, d) in draw(
                st.lists(st.tuples(st.sampled_from(owned), profiled_keys), max_size=40)
            )
        ]
        return FlipProfile.from_records(records, owned, n_sides=7)

    if len(frames) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(frames) - 1))
        built = profile(frames[:cut]).merge(profile(frames[cut:]))
    else:
        built = profile(frames)
    targets = draw(
        st.dictionaries(
            st.integers(0, 30), st.lists(required_keys, min_size=1, max_size=4), max_size=6
        )
    )
    exclude = draw(st.sets(st.sampled_from(frames + [50_001])))
    return built, targets, exclude


def _locations(targets):
    return {
        page: [BitLocation(page=page, byte_offset=o, bit_index=b, direction=d) for o, b, d in keys]
        for page, keys in targets.items()
    }


def _match_with_events(match):
    telemetry.reset()
    telemetry.enable_events()
    result = match()
    events = [e["data"] for e in telemetry.get_recorder().to_dicts()
              if e["kind"] == "template.page"]
    return result, events


def _same(a, b):
    assert a.assignments == b.assignments
    assert list(a.assignments) == list(b.assignments)  # pages in matching order
    assert a.matched_pages == b.matched_pages
    assert a.unmatched_pages == b.unmatched_pages
    assert a.expected_accidental_flips == b.expected_accidental_flips


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_templater_equals_dict_of_sets_reference(case):
    profile, targets, exclude = case
    library, reference = PageTemplater(profile), ReferencePageTemplater(profile)
    for keys in targets.values():
        assert library.frames_covering(keys) == reference.frames_covering(keys)
    assert library.frames_covering([]) == reference.frames_covering([])

    locations = _locations(targets)
    ours, our_events = _match_with_events(lambda: library.match(locations))
    theirs, their_events = _match_with_events(lambda: reference.match(locations))
    _same(ours, theirs)
    assert our_events == their_events

    # The online fallback: frames the main match claimed, and any others,
    # are excluded.
    claimed = exclude | set(ours.assignments.values())
    restricted = ReferenceRestrictedTemplater(reference, claimed)
    ours, our_events = _match_with_events(lambda: library.match(locations, exclude=claimed))
    theirs, their_events = _match_with_events(lambda: restricted.match(locations))
    _same(ours, theirs)
    assert our_events == their_events
    assert not claimed & set(ours.assignments.values())


@pytest.mark.parametrize("records", [[], [(9, 1, 2, 1)]])
def test_profiles_without_a_cover(records):
    profile = FlipProfile.from_records(
        [FlipRecord(*record, n_sides=7) for record in records], [9, 10], n_sides=7
    )
    match = PageTemplater(profile).match(
        {0: [BitLocation(page=0, byte_offset=1, bit_index=2, direction=-1)]}
    )
    assert match.unmatched_pages == [0] and match.assignments == {}
