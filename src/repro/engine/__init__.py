"""Layer-prefix activation caching engine for ``no_grad`` evaluation.

The CFT+BR inner loop (Algorithm 1) spends almost all of its wall-clock
re-running full forward passes over a fixed evaluation subset, even though
each candidate flip it scores commits at most one byte change confined to a
single layer -- the paper's C1/C2 constraints *guarantee* this sparsity.
:class:`EvalEngine` exploits it the same way prefix/KV caches do in
production inference stacks:

- a model is compiled into an ordered :class:`~repro.engine.plan.LayerPlan`
  of stages (see ``forward_stages`` on the zoo models);
- every stage has a signature: the content digest of each parameter it
  reads (:meth:`repro.nn.module.Parameter.digest`, rehashed once per
  rebind by a :class:`~repro.quant.qmodel.QuantizedModel` flip commit or
  a direct ``nn.Module`` parameter write) plus per-module buffer versions,
  so weights that return to earlier bytes return to earlier signatures;
- a batched forward is served from the deepest cached activation whose key
  (input fingerprint, stage index, signature prefix) still matches, and
  only the suffix of stages below the touched layer is recomputed;
- a trigger-stamped batch made by :meth:`EvalEngine.stamp` is its clean
  batch's twin: its leading stages recompute only the trigger's cone
  (:mod:`repro.autodiff.cone`) over the clean batch's cached outputs;
- the engine is the one store of clean activations: CFT's trigger steps
  gather their rows' stage outputs from its cached attacker batches
  (:meth:`EvalEngine.output`) and plan the cone with its one planner
  (:meth:`EvalEngine.windows`);
- entries live in an LRU cache under a fixed byte budget
  (:data:`~repro.engine.engine.BYTE_BUDGET`, 64 MiB); cached activations
  are served zero-copy (marked read-only) into the recomputed suffix.

**Determinism contract**: the engine replays the exact op sequence of
``module(Tensor(x))``, cached activations are the bit-for-bit arrays an
uncached pass produces, and a stamped twin's windowed stages follow the
cone's byte rules (geometry, probed stacked GEMMs, layouts), so cached,
uncached and coned logits are byte-identical to the plain forward -- sweep
rows, flight records and golden snapshots are those of a plain ``no_grad``
forward.  The parity suites in ``tests/test_engine.py`` and
``tests/test_stamped_twin.py`` and the end-to-end reference oracle assert
this.
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
