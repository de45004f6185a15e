"""Layer-prefix activation caching engine for ``no_grad`` evaluation.

The CFT+BR inner loop (Algorithm 1) spends almost all of its wall-clock
re-running full forward passes over a fixed evaluation subset, even though
each candidate flip it scores commits at most one byte change confined to a
single layer -- the paper's C1/C2 constraints *guarantee* this sparsity.
:class:`EvalEngine` exploits it the same way prefix/KV caches do in
production inference stacks:

- a model is compiled into an ordered :class:`~repro.engine.plan.LayerPlan`
  of stages (see ``forward_stages`` on the zoo models);
- every stage's weights carry version counters
  (:attr:`repro.nn.module.Parameter.version` plus per-module buffer
  versions), bumped by :class:`~repro.quant.qmodel.QuantizedModel` flip
  commits and by direct ``nn.Module`` parameter writes;
- a batched forward is served from the deepest cached activation whose key
  (input fingerprint, stage index, per-layer version prefix) still matches,
  and only the suffix of stages below the touched layer is recomputed;
- entries live in an LRU cache under a fixed byte budget
  (:data:`~repro.engine.engine.BYTE_BUDGET`, 64 MiB); cached activations
  are served zero-copy (marked read-only) into the recomputed suffix.

**Determinism contract**: the engine replays the exact op sequence of
``module(Tensor(x))``, and cached activations are the bit-for-bit arrays an
uncached pass produces, so cached and uncached logits are byte-identical to
the plain forward -- sweep rows, flight records and golden snapshots are
those of a plain ``no_grad`` forward.  The parity suite in
``tests/test_engine.py`` and its end-to-end reference oracle assert this.
"""

from __future__ import annotations

from repro.engine.batch import score_candidates
from repro.engine.cache import ActivationCache
from repro.engine.engine import EvalEngine
from repro.engine.plan import LayerPlan, Stage, compile_plan

__all__ = [
    "ActivationCache",
    "EvalEngine",
    "LayerPlan",
    "Stage",
    "compile_plan",
    "score_candidates",
]
