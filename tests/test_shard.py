"""Shard partition contract: ``ShardSpec`` slices of the canonical grid order.

Property tests pin down the three invariants ``repro merge`` relies on --
shards of the canonical grid order are disjoint, jointly exhaustive and
order-preserving (concatenating them by index reproduces ``expand()``
exactly) -- plus the balance guarantee (sizes differ by at most one) and
the ``i/n`` parsing/validation surface of :class:`ShardSpec`.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SweepError
from repro.parallel import ShardSpec, SweepGrid, SweepJournal, run_sweep


def _grid(n_methods=2, n_models=1, n_seeds=1):
    return SweepGrid(
        methods=tuple(f"m{i}" for i in range(n_methods)),
        models=tuple(f"net{i}" for i in range(n_models)),
        devices=("K1",),
        seeds=tuple(range(n_seeds)),
    )


def _ok_runner(payload):
    return {
        "status": "ok",
        "row": {"task_id": "%(method)s|%(seed)s" % payload["task"]},
        "duration_seconds": 0.0,
    }


# ---------------------------------------------------------------------------
# Partition properties.
@settings(max_examples=60, deadline=None)
@given(
    n_methods=st.integers(1, 5),
    n_models=st.integers(1, 3),
    n_seeds=st.integers(1, 4),
    count=st.integers(1, 12),
)
def test_shards_partition_the_grid(n_methods, n_models, n_seeds, count):
    grid = _grid(n_methods, n_models, n_seeds)
    tasks = grid.expand()
    shards = [list(ShardSpec(index, count).slice(tasks)) for index in range(count)]

    # Order-preserving and jointly exhaustive: concatenation IS expand().
    assert [t for shard in shards for t in shard] == tasks
    # Disjoint: no task id appears in two shards.
    ids = [t.task_id for shard in shards for t in shard]
    assert len(set(ids)) == len(ids) == len(tasks)
    # Balanced: contiguous block sizes differ by at most one, larger first.
    sizes = [len(shard) for shard in shards]
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


@settings(max_examples=60, deadline=None)
@given(total=st.integers(0, 100), count=st.integers(1, 12))
def test_shard_bounds_tile_any_total(total, count):
    bounds = [ShardSpec(index, count).bounds(total) for index in range(count)]
    assert bounds[0][0] == 0 and bounds[-1][1] == total
    for (_, end), (start, _) in zip(bounds, bounds[1:]):
        assert end == start  # contiguous, no gap and no overlap


def test_shard_allows_more_shards_than_tasks():
    grid = _grid(n_methods=2)
    shards = [ShardSpec(index, 5).slice(grid.expand()) for index in range(5)]
    assert [len(s) for s in shards] == [1, 1, 0, 0, 0]


# ---------------------------------------------------------------------------
# ShardSpec parsing and validation.
def test_shard_spec_parse_and_str_round_trip():
    spec = ShardSpec.parse("2/5")
    assert (spec.index, spec.count) == (2, 5)
    assert str(spec) == "2/5"
    assert ShardSpec.parse(str(spec)) == spec


@pytest.mark.parametrize("text", ["", "2", "a/b", "1/2/3", "1.5/2"])
def test_shard_spec_parse_rejects_malformed(text):
    with pytest.raises(SweepError, match="shard spec"):
        ShardSpec.parse(text)


@pytest.mark.parametrize("index,count", [(-1, 2), (2, 2), (5, 2), (0, 0), (0, -1)])
def test_shard_spec_rejects_out_of_range(index, count):
    with pytest.raises(SweepError):
        ShardSpec(index, count)


def test_shard_spec_coerce_accepts_all_forms():
    spec = ShardSpec(1, 3)
    assert ShardSpec.coerce(spec) is spec
    assert ShardSpec.coerce("1/3") == spec
    assert ShardSpec.coerce((1, 3)) == spec
    with pytest.raises(SweepError, match="shard spec"):
        ShardSpec.coerce(object())


# ---------------------------------------------------------------------------
# The runner's use of the spec: slice semantics and journal identity.
@settings(max_examples=20, deadline=None)
@given(count=st.integers(1, 6))
def test_sharded_runs_concatenate_to_the_unsharded_rows(count):
    grid = _grid(n_methods=3, n_seeds=2)
    reference = run_sweep(grid, workers=1, task_runner=_ok_runner)
    sharded = [
        run_sweep(grid, workers=1, task_runner=_ok_runner, shard=(index, count))
        for index in range(count)
    ]
    rows = [row for result in sharded for row in result.rows]
    assert json.dumps(rows, sort_keys=True) == json.dumps(reference.rows, sort_keys=True)
    for index, result in enumerate(sharded):
        assert result.grid_sha == reference.grid_sha  # always the FULL grid's sha
        assert result.total_tasks == len(grid.expand())
        assert (result.shard.index, result.shard.count) == (index, count)


def test_shard_journal_header_records_the_slice(tmp_path):
    grid = _grid(n_methods=3)
    journal = tmp_path / "s1.jsonl"
    run_sweep(grid, workers=1, task_runner=_ok_runner, shard="1/2",
              journal_path=str(journal))
    state = SweepJournal.load(journal)
    header = state.header
    assert header["grid_sha"] == grid.grid_sha()
    assert header["total_tasks"] == 3
    # A shard is a worker whose claims were one fixed contiguous slice: the
    # header pins the full grid, the owner names the slice, and the results
    # it committed are exactly that slice.
    assert header["worker"] == "shard-1-of-2"
    assert header["grid_task_ids"] == [t.task_id for t in grid.expand()]
    assert list(state.records) == [
        t.task_id for t in ShardSpec(1, 2).slice(grid.expand())
    ]


def test_unsharded_journal_header_is_the_trivial_shard(tmp_path):
    grid = _grid(n_methods=2)
    journal = tmp_path / "all.jsonl"
    run_sweep(grid, workers=1, task_runner=_ok_runner, journal_path=str(journal))
    header = SweepJournal.load(journal).header
    assert header["worker"] == "shard-0-of-1"
    assert header["grid_task_ids"] == [t.task_id for t in grid.expand()]
