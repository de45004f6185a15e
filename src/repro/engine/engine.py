"""The evaluation engine: version-checked prefix-cached ``no_grad`` forwards."""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Optional, Union

import numpy as np

from repro import telemetry
from repro.autodiff.tensor import Tensor, no_grad
from repro.engine.cache import ActivationCache
from repro.engine.plan import LayerPlan, compile_plan
from repro.nn.module import Module

#: LRU byte budget of an engine's activation cache.
BYTE_BUDGET = 64 * 1024 * 1024


def _fingerprint(x: np.ndarray) -> bytes:
    """Content digest of a batch: dtype, shape and raw bytes.

    sha256 because CPython routes it through OpenSSL's hardware-accelerated
    implementation -- this runs on every engine forward, so digest throughput
    directly bounds the best-case cache-hit latency.
    """
    h = hashlib.sha256()
    h.update(str(x.dtype).encode())
    h.update(str(x.shape).encode())
    h.update(np.ascontiguousarray(x))
    return h.digest()


class _FingerprintMemo:
    """Identity-keyed memo of input digests.

    Evaluation loops pass the same batch objects over and over (the fixed
    attacker subset, a hoisted trigger-stamped copy), and content-hashing a
    batch costs as much as a small recomputed suffix -- so digests are
    memoized per array *object*.  The memo holds strong references, so a
    memoized id() can never be recycled by a new array while the entry
    lives; entries rotate out LRU.  The one contract: arrays handed to the
    engine must not be mutated in place afterwards (no evaluation path in
    this codebase does -- eval sets are fixed and stamped copies are
    freshly allocated).
    """

    def __init__(self, capacity: int = 8) -> None:
        self._entries: "OrderedDict[int, tuple]" = OrderedDict()
        self._capacity = capacity

    def fingerprint(self, x: np.ndarray) -> bytes:
        key = id(x)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is x:
            self._entries.move_to_end(key)
            return entry[1]
        digest = _fingerprint(x)
        self._entries[key] = (x, digest)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
        return digest


class EvalEngine:
    """Serve batched evaluation forwards from a layer-prefix cache.

    ``forward(x)`` is byte-identical to ``module(Tensor(x)).data`` under
    ``no_grad``: the compiled plan replays the model's op sequence exactly,
    and cached activations are the bit-for-bit outputs of earlier identical
    computations (guaranteed by keying every stage on the version-signature
    prefix of all stages up to and including it).

    Caching only engages in eval mode — a training-mode forward mutates
    batch-norm running statistics, so it is executed plainly and never
    cached (results still match the plain forward exactly).
    """

    def __init__(self, module: Module, byte_budget: int = BYTE_BUDGET) -> None:
        self.plan: LayerPlan = compile_plan(module)
        self.cache = ActivationCache(byte_budget)
        self._memo = _FingerprintMemo()
        # Round-ahead speculation: the last batched scoring round parks its
        # per-candidate perturbed stage outputs here (see
        # :mod:`repro.engine.batch`); committing a winner promotes the
        # matching buffer into the activation cache under the post-commit
        # signature, so the next round's shared-prefix restore starts hot.
        self._speculation: Optional[dict] = None
        self.spec_hits = 0
        self.spec_discards = 0

    @property
    def module(self) -> Module:
        return self.plan.module

    def forward(self, x: Union[np.ndarray, Tensor]) -> np.ndarray:
        """Run a batched forward, reusing the deepest valid cached prefix."""
        if isinstance(x, Tensor):
            x = x.data
        module = self.plan.module
        if module.training:
            with no_grad():
                return module(Tensor(x)).data

        sigs = self.plan.signatures()
        fp = self._memo.fingerprint(x)
        # The full forward is the degenerate prefix: the "input" of the
        # stage one past the end of the plan.
        return self.prefix_input(x, fp, sigs, len(self.plan.stages))

    def prefix_input(
        self,
        x: np.ndarray,
        fp: bytes,
        sigs: tuple,
        upto: int,
    ) -> np.ndarray:
        """The input activation of stage ``upto`` (output of stage ``upto-1``).

        Served from the deepest valid cached prefix below ``upto``; any
        missing stages are computed and written through the cache under the
        supplied version signatures.  ``upto == len(stages)`` yields the
        model output; ``upto == 0`` returns ``x`` untouched (no probe, no
        hit/miss accounting).
        """
        if upto == 0:
            return x
        stages = self.plan.stages

        # Probe from the deepest stage down: the first (deepest) key whose
        # version-signature prefix still matches gives the longest reusable
        # prefix of the forward pass.
        start = 0
        h = x
        for i in range(upto - 1, -1, -1):
            cached = self.cache.get((fp, i, sigs[: i + 1]))
            if cached is not None:
                start = i + 1
                h = cached
                break

        stats = self.cache.stats
        if start > 0:
            stats.hits += 1
        else:
            stats.misses += 1
        if telemetry.enabled():
            telemetry.counter_add(
                "engine.cache.hit" if start > 0 else "engine.cache.miss", 1
            )

        evicted_before = self.cache.stats.evicted_bytes
        with no_grad():
            for i in range(start, upto):
                h = stages[i].fn(Tensor(h)).data
                self.cache.put((fp, i, sigs[: i + 1]), h)
        if telemetry.enabled():
            # A zero add still registers the counter, so every bench report
            # exports the full engine.cache.* triple even when nothing was
            # evicted.
            telemetry.counter_add(
                "engine.cache.evicted_bytes",
                self.cache.stats.evicted_bytes - evicted_before,
            )
        return h

    def score_candidates(self, qmodel, proposals, images):
        """Batched round-level candidate scoring (see :mod:`repro.engine.batch`)."""
        from repro.engine.batch import score_candidates

        return score_candidates(self, qmodel, proposals, images)

    def promote_speculation(self, proposal) -> bool:
        """Promote a committed candidate's buffered stage output into the cache.

        ``proposal`` is the ``(flat_index, new_value)`` pair the caller just
        committed (after the scoring round that parked the speculation
        buffers).  If the buffers are still valid -- the committed byte is
        one of the scored candidates, no stage *before* the perturbed one
        changed since scoring, and the perturbed stage's signature actually
        moved -- the buffered perturbed-layer outputs are byte-identical to
        what a post-commit prefix restore would recompute, so they are
        inserted into the activation cache under the new signature prefix
        and the next round starts from a hot cache.  Any mismatch discards
        the speculation silently: correctness never depends on promotion
        (transparent fallback), only the recompute cost does.

        Returns ``True`` on promotion (``spec_hit``), ``False`` on discard.
        """
        spec, self._speculation = self._speculation, None
        promoted = False
        if spec is not None and proposal is not None:
            entry = spec["candidates"].get((int(proposal[0]), int(proposal[1])))
            if entry is not None:
                stage = entry["stage"]
                sigs2 = self.plan.signatures()
                old = spec["sigs"]
                if (
                    len(sigs2) == len(old)
                    and sigs2[:stage] == old[:stage]
                    and sigs2[stage] != old[stage]
                ):
                    for fp, out in zip(spec["fingerprints"], entry["outputs"]):
                        self.cache.put((fp, stage, sigs2[: stage + 1]), out)
                    promoted = True
        if promoted:
            self.spec_hits += 1
        else:
            self.spec_discards += 1
        if telemetry.enabled():
            telemetry.counter_add(
                "engine.batch.spec_hit" if promoted else "engine.batch.spec_discard"
            )
        if telemetry.events_enabled():
            # Deterministic (one event per commit, promoted-or-not is a pure
            # function of the seeded run), so the flight record stays
            # byte-identical and `repro report` can render speculation hits.
            telemetry.event("engine.spec", promoted=promoted)
        return promoted

    __call__ = forward

    def counters(self) -> Dict[str, int]:
        """Cache statistics under the exported telemetry counter names."""
        stats = self.cache.stats
        return {
            "engine.cache.hit": stats.hits,
            "engine.cache.miss": stats.misses,
            "engine.cache.evicted_bytes": stats.evicted_bytes,
            "engine.batch.spec_hit": self.spec_hits,
            "engine.batch.spec_discard": self.spec_discards,
        }
