"""The evaluation engine: signature-checked prefix-cached ``no_grad`` forwards."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import telemetry
from repro.autodiff import cone
from repro.autodiff.tensor import Tensor, no_grad
from repro.data.trigger import TriggerPattern
from repro.engine.cache import ActivationCache
from repro.engine.plan import LayerPlan, compile_plan
from repro.nn.module import Module, content_digest

#: LRU byte budget of an engine's activation cache.
BYTE_BUDGET = 64 * 1024 * 1024

# Content digest of a batch (dtype, shape and raw bytes).  It runs on every
# engine forward that misses the memo below, so digest throughput bounds the
# best-case cache-hit latency.
_fingerprint = content_digest

# A stamped twin: (stamped batch, its clean batch, the windows usable at its size).
Twin = Tuple[np.ndarray, np.ndarray, List[Optional[cone.StageWindow]]]


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
        self.capacity = capacity

    def fingerprint(self, x: np.ndarray) -> bytes:
        key = id(x)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is x:
            self._entries.move_to_end(key)
            return entry[1]
        digest = _fingerprint(x)
        self._entries[key] = (x, digest)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return digest


class EvalEngine:
    """Serve batched evaluation forwards from a layer-prefix cache.

    ``forward(x)`` is byte-identical to ``module(Tensor(x)).data`` under
    ``no_grad``: the compiled plan replays the model's op sequence exactly,
    and cached activations are the bit-for-bit outputs of earlier identical
    computations (guaranteed by keying every stage on the signature prefix
    of all stages up to and including it).  A stamped twin (:meth:`stamp`)
    computes its windowed stages on the trigger's cone, to the same bytes.

    Caching only engages in eval mode — a training-mode forward mutates
    batch-norm running statistics, so it is executed plainly and never
    cached (results still match the plain forward exactly).
    """

    def __init__(self, module: Module, byte_budget: int = BYTE_BUDGET) -> None:
        self.plan: LayerPlan = compile_plan(module)
        self.cache = ActivationCache(byte_budget)
        self._memo = _FingerprintMemo()
        # Stamped twins by id (see :meth:`stamp`), holding strong references
        # like the fingerprint memo, and the cone's windows per (trigger box,
        # image shape).
        self._twins: "OrderedDict[int, Twin]" = OrderedDict()
        self._windows: Dict[tuple, List[Optional[cone.StageWindow]]] = {}
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

    def stamp(self, trigger: TriggerPattern, clean: np.ndarray) -> np.ndarray:
        """``trigger.apply(clean)``, remembered as ``clean``'s stamped twin.

        A stamped image differs from its clean image only inside the
        trigger's cone (:mod:`repro.autodiff.cone`).  When the engine
        computes a stage of the returned batch whose window passes the
        byte check at this batch size, and holds ``clean``'s output of that
        stage at the current signatures, it runs the stage on a crop and
        pastes the window over a copy of the clean output; every other
        stage runs on the full map.  Each stamped stage output is a whole
        map and is cached as usual, so the logits stay byte-identical to
        the plain forward.  No twin is kept in train mode, when no window
        passes the byte check (a trigger covering the map has none), or
        when the stamp clips a pixel outside the trigger's box.  Neither
        batch may be mutated afterwards.
        """
        stamped = trigger.apply(clean)
        box = cone.bounding_box(trigger.mask)
        if (box is None or self.plan.module.training or stamped.ndim != 4
                or stamped.dtype != clean.dtype):
            return stamped
        windows = cone.usable(self.windows(box, stamped.shape[1:]), len(stamped))
        if any(windows) and cone.unclipped(clean, box, trigger.clip_range).all():
            self._twins[id(stamped)] = (stamped, clean, windows)
            while len(self._twins) > self._memo.capacity:
                self._twins.popitem(last=False)
        return stamped

    def windows(self, box: cone.Box, shape: Tuple[int, ...]) -> List[Optional[cone.StageWindow]]:
        """The cone's windows for images of ``shape`` stamped on ``box``.

        Planned once per (box, shape) by :func:`repro.autodiff.cone.plan`;
        call it in eval mode.
        """
        key = (box, tuple(shape))
        if key not in self._windows:
            self._windows[key] = cone.plan(self.plan.stages, shape, box)
        return self._windows[key]

    def output(self, x: np.ndarray, index: int) -> np.ndarray:
        """Stage ``index``'s output for batch ``x`` at the current signatures.

        Read from the cache when it holds it (not counted as a hit);
        otherwise (an evicted entry, new weights) the stages up to
        ``index`` are forwarded again as :meth:`forward` would, so call it
        in eval mode.  ``index == -1`` is ``x`` itself.
        """
        fp, sigs = self._memo.fingerprint(x), self.plan.signatures()
        out = self.cache.get((fp, index, sigs[: index + 1]))
        return out if out is not None else self.prefix_input(x, fp, sigs, index + 1)

    def twin_of(self, x: np.ndarray) -> Optional[Twin]:
        """The stamped twin ``x`` is (see :meth:`stamp`), or None."""
        twin = self._twins.get(id(x))
        return twin if twin is not None and twin[0] is x else None

    def run_stage(self, index: int, h: np.ndarray, base: Optional[np.ndarray] = None,
                  window: Optional[cone.StageWindow] = None) -> np.ndarray:
        """Stage ``index`` on ``h``; on ``window``'s crop over ``base`` when both are given.

        ``base`` is the stage's clean output for the clean twin of ``h``;
        it is copied, in its memory order, before the window is pasted.
        """
        stage = self.plan.stages[index]
        with no_grad():
            if window is None or base is None:
                return stage.fn(Tensor(h)).data
            return cone.run_window(stage, window, Tensor(h), base.copy(order="K")).data

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

        # A stamped twin runs its windowed stages over its clean batch's
        # cached outputs at the same signatures.
        twin = self.twin_of(x)
        clean_fp = None if twin is None else self._memo.fingerprint(twin[1])
        evicted_before = self.cache.stats.evicted_bytes
        for i in range(start, upto):
            window = None if twin is None or i >= len(twin[2]) else twin[2][i]
            base = None if window is None else self.cache.get((clean_fp, i, sigs[: i + 1]))
            h = self.run_stage(i, h, base, window)
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
            # Both counters are registered (one by a zero add), so a report
            # always exports the pair and the bench gate sees either move.
            telemetry.counter_add("engine.batch.spec_hit", int(promoted))
            telemetry.counter_add("engine.batch.spec_discard", int(not promoted))
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
