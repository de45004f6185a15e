"""Sweep grid specification: the (method x model x device x seed) lattice.

Every Table II / Table III reproduction is an embarrassingly parallel grid
of independent :class:`~repro.core.pipeline.BackdoorPipeline` runs.  A
:class:`SweepGrid` names that grid declaratively; :meth:`SweepGrid.expand`
turns it into an ordered list of :class:`SweepTask` descriptors that are
plain JSON-able data, so they can be written to a queue manifest and
journaled to disk verbatim.

The expanded order is the **canonical grid order**: result rows, journal
headers, telemetry merges and the content SHA (:func:`grid_sha_of`) all
follow it.  Both multi-host modes split exactly this order --
:class:`ShardSpec` statically into contiguous slices, and the work-stealing
queue (:mod:`repro.parallel.scheduler`) dynamically task by task -- which
is why ``repro merge`` can always reassemble the byte-identical unsharded
result no matter who computed which row.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import SweepError
from repro.utils.rng import derive_seed


@dataclasses.dataclass(frozen=True)
class SweepTask:
    """One fully-determined experiment: everything a worker needs to run it.

    ``scale`` holds the :class:`~repro.core.experiment.ExperimentScale`
    fields as a plain dict (``None`` means "resolve from the environment in
    the worker"), keeping the descriptor JSON-serializable end to end.
    """

    method: str
    model: str
    device: str
    seed: int
    dataset: str = "cifar10"
    target_class: int = 2
    scale: Optional[Dict[str, object]] = None

    @property
    def task_id(self) -> str:
        """Stable journal/checkpoint key (unique within a grid)."""
        return (
            f"{self.method}|{self.model}|{self.dataset}|{self.device}|seed={self.seed}"
        )

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "SweepTask":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - fields
        if unknown:
            raise SweepError(f"unknown SweepTask fields {sorted(unknown)}")
        return cls(**payload)  # type: ignore[arg-type]


@dataclasses.dataclass(frozen=True)
class SweepGrid:
    """A declarative (method x model x device x seed) sweep."""

    methods: Sequence[str]
    models: Sequence[str]
    devices: Sequence[str] = ("K1",)
    seeds: Sequence[int] = (0,)
    dataset: str = "cifar10"
    target_class: int = 2
    scale: Optional[Dict[str, object]] = None

    @classmethod
    def with_replicas(cls, base_seed: int, replicas: int, **kwargs: object) -> "SweepGrid":
        """Grid over ``replicas`` independent seeds derived from ``base_seed``.

        Seeds come from :func:`repro.utils.rng.derive_seed`, so the
        replica -> seed mapping is stable across processes and platforms.
        All tasks within a replica share the seed (every method attacks the
        same victim, as in the paper's tables).
        """
        if replicas < 1:
            raise SweepError(f"replicas must be positive, got {replicas}")
        seeds = tuple(derive_seed(base_seed, "replica", index) for index in range(replicas))
        return cls(seeds=seeds, **kwargs)  # type: ignore[arg-type]

    def expand(self) -> List[SweepTask]:
        """Ordered task list: model-major, then device, seed, and method.

        The order is the canonical "grid order" -- result rows, journal
        totals and telemetry merges all follow it, which is what keeps
        sweep output independent of worker scheduling.
        """
        if not self.methods or not self.models or not self.devices or not self.seeds:
            raise SweepError("grid has an empty axis (methods/models/devices/seeds)")
        tasks = [
            SweepTask(
                method=method,
                model=model,
                device=device,
                seed=int(seed),
                dataset=self.dataset,
                target_class=self.target_class,
                scale=dict(self.scale) if self.scale is not None else None,
            )
            for model, device, seed, method in itertools.product(
                self.models, self.devices, self.seeds, self.methods
            )
        ]
        seen: Dict[str, SweepTask] = {}
        for task in tasks:
            if task.task_id in seen:
                raise SweepError(f"duplicate task {task.task_id!r} in grid")
            seen[task.task_id] = task
        return tasks

    def grid_sha(self) -> str:
        """Content hash of the expanded grid (guards journal/grid mismatch)."""
        return grid_sha_of(self.expand())


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One host's slice of a sweep: shard ``index`` of ``count``.

    The partition is contiguous over the canonical grid order (the first
    ``total % count`` shards get one extra task), so every shard's tasks
    are consecutive in :meth:`SweepGrid.expand` order.  A shard's sweep is
    a worker (:attr:`owner`) whose claims were fixed upfront; ``repro
    merge`` treats its journal like any queue worker's.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SweepError(f"shard count must be positive, got {self.count}")
        if not 0 <= self.index < self.count:
            raise SweepError(
                f"shard index must satisfy 0 <= index < count, got {self.index}/{self.count}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI's ``i/n`` form (e.g. ``--shard 0/4``)."""
        parts = str(text).split("/")
        try:
            index, count = (int(part) for part in parts)
        except ValueError:
            raise SweepError(f"shard spec must look like 'i/n', got {text!r}") from None
        return cls(index, count)

    @classmethod
    def coerce(cls, value: "ShardLike") -> "ShardSpec":
        """Accept a ShardSpec, an ``'i/n'`` string, or an ``(i, n)`` pair."""
        if isinstance(value, ShardSpec):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        try:
            index, count = value
        except (TypeError, ValueError):
            raise SweepError(f"cannot interpret {value!r} as a shard spec") from None
        return cls(int(index), int(count))

    def bounds(self, total: int) -> Tuple[int, int]:
        """Half-open ``[start, end)`` slice of a ``total``-task grid."""
        base, extra = divmod(total, self.count)
        start = self.index * base + min(self.index, extra)
        return start, start + base + (1 if self.index < extra else 0)

    def slice(self, tasks: Sequence[SweepTask]) -> Tuple[SweepTask, ...]:
        """This shard's tasks (possibly empty when ``count > len(tasks)``)."""
        start, end = self.bounds(len(tasks))
        return tuple(tasks[start:end])

    @property
    def owner(self) -> str:
        """The journal owner (``worker``) of a sweep that runs this shard."""
        return f"shard-{self.index}-of-{self.count}"

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


ShardLike = Union["ShardSpec", str, Tuple[int, int], Iterable[int]]


def grid_sha_of(tasks: Sequence[SweepTask]) -> str:
    """SHA-256 over the canonical JSON of an ordered task list."""
    canonical = json.dumps([t.to_json() for t in tasks], sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def task_ids_of(tasks: Sequence[SweepTask]) -> List[str]:
    """Grid-ordered task ids (the journal/queue keys) of a task list."""
    return [task.task_id for task in tasks]


def ensure_unique(tasks: Sequence[SweepTask]) -> Tuple[SweepTask, ...]:
    """Validate that every task id is unique (journal keys require it)."""
    seen: Dict[str, SweepTask] = {}
    for task in tasks:
        if task.task_id in seen:
            raise SweepError(f"duplicate task {task.task_id!r}")
        seen[task.task_id] = task
    return tuple(tasks)
