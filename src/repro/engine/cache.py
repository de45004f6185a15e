"""LRU activation cache with a byte budget.

Keys are opaque hashable tuples built by the engine from (input
fingerprint, stage index, per-stage version-signature prefix); values are
the stage-output activations, stored read-only so a cache hit can be served
zero-copy into the recomputed suffix without risking aliased mutation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Optional, Tuple

import numpy as np


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    evicted_bytes: int = 0
    stored_bytes: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _Entry:
    array: np.ndarray
    nbytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.nbytes = int(self.array.nbytes)


class ActivationCache:
    """Byte-budgeted LRU over read-only activation arrays."""

    def __init__(self, byte_budget: int) -> None:
        if byte_budget <= 0:
            raise ValueError(f"byte budget must be positive, got {byte_budget}")
        self.byte_budget = int(byte_budget)
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._bytes = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def get(self, key: Hashable) -> Optional[np.ndarray]:
        """Return the cached activation for ``key``, or ``None``.

        A hit refreshes the entry's LRU position.  Misses are *not* counted
        here: the engine probes many prefix depths per forward and only the
        final outcome (served from some depth vs computed from scratch) is a
        meaningful hit/miss event.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry.array

    def put(self, key: Hashable, array: np.ndarray) -> None:
        """Insert an activation, evicting least-recently-used entries.

        The array is stored as-is and marked read-only; callers hand over
        ownership (the engine always passes freshly computed buffers).
        Arrays larger than the whole budget are silently not cached.
        """
        if array.nbytes > self.byte_budget:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        array.flags.writeable = False
        entry = _Entry(array)
        self._entries[key] = entry
        self._bytes += entry.nbytes
        self.stats.stored_bytes += entry.nbytes
        while self._bytes > self.byte_budget:
            _, victim = self._entries.popitem(last=False)
            self._bytes -= victim.nbytes
            self.stats.evictions += 1
            self.stats.evicted_bytes += victim.nbytes

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    def keys(self) -> Tuple[Hashable, ...]:
        return tuple(self._entries.keys())
