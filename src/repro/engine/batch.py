"""Round-level batched candidate scoring for the CFT+BR inner loop.

Algorithm 1's C1/C2 constraints guarantee that every candidate flip scored
in one progressive round perturbs **at most one byte in one layer**, so all
candidates touching the same layer share the same baseline prefix of the
forward pass.  :func:`score_candidates` exploits the whole round at once
instead of per-forward:

1. the baseline prefix input of every touched stage is restored from the
   engine's activation cache once (computing and caching any missing
   stages, exactly as a plain engine forward would);
2. each candidate's perturbed-layer output is computed on that shared
   prefix (the only per-candidate work), then all outputs of a stage group
   are stacked along a new leading candidate axis, folded into the batch
   dimension;
3. one batched suffix forward per (stage group, image batch) replaces
   ``len(proposals)`` scalar suffix forwards.

**Determinism contract** (same as the engine itself): the returned logits
are byte-identical to the sequential ``apply flip -> engine.forward ->
revert`` loop.  Convolution and pooling stages
are per-sample computations (elementwise ops, per-sample im2col GEMMs),
so candidates ride folded into the batch axis through them unchanged;
dense stages multiply against a transposed weight *view*, for which BLAS
kernel selection -- and therefore rounding -- depends on the row count,
so once activations flatten to 2-D the candidates are lifted onto a
leading axis and each dense GEMM broadcasts per candidate slice with the
sequential path's exact shape.  The parity suite in
``tests/test_engine.py`` pins this.

A stamped twin among the batches (:meth:`EvalEngine.stamp`) computes its
windowed stages on the trigger's cone: the perturbed stage over the
candidate's clean output, and each following windowed stage per
candidate slice over the clean lane's matching rows, at the batch size
its windows were probed at; its slices are stacked after the last window.

**Round-ahead speculation**: the per-candidate perturbed-layer outputs
computed in step 2 are exactly what a prefix restore would recompute after
committing that candidate -- so the round parks them on the engine
(``engine._speculation``) keyed by proposal.  When the caller commits the
round's winner and calls ``engine.promote_speculation``, the winner's
buffers are promoted into the activation cache under the post-commit
signature prefix (after verifying no earlier stage changed), and round
``k+1``'s shared-prefix restore starts hot instead of recomputing through
the committed layer.  Promotion is purely a cache warm-up: any signature
mismatch discards the buffers (transparent fallback, counted as
``engine.batch.spec_discard``; promotions count as
``engine.batch.spec_hit``).

Exported telemetry (``engine.batch.*``): ``rounds`` (calls), ``candidates``
(proposals scored), ``groups`` (distinct perturbed stages per call),
``suffix_forwards`` (stacked suffix executions) and the
``spec_hit``/``spec_discard`` pair above.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.autodiff.tensor import Tensor

Proposal = Tuple[int, int]  # (flat weight-file index, new int8 byte value)


def _apply_byte(qmodel, name: str, local: int, value: np.int8) -> np.int8:
    """Set one byte of one quantized tensor; returns the previous value."""
    tensor = qmodel.quantized(name)
    flat = tensor.reshape(-1)
    previous = flat[local]
    flat[local] = value
    qmodel.set_quantized(name, flat.reshape(tensor.shape))
    return previous


def score_candidates(
    engine,
    qmodel,
    proposals: Sequence[Proposal],
    images: Union[np.ndarray, Sequence[np.ndarray]],
) -> Union[np.ndarray, List[np.ndarray]]:
    """Score every candidate single-byte flip with batched suffix forwards.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.engine.EvalEngine` wrapping the model the
        flips apply to (must be in eval mode).
    qmodel:
        The :class:`~repro.quant.qmodel.QuantizedModel` owning the weight
        file; it is returned to its exact entry state (all flips reverted).
    proposals:
        ``(flat_index, new_int8_value)`` candidate byte changes, at most one
        per candidate (Algorithm 1's C1 + bit reduction).
    images:
        One image batch, or a sequence of batches (e.g. clean and
        trigger-stamped) scored under a single apply/revert cycle per
        candidate.

    Returns
    -------
    A ``(K, N, C)`` logits array per input batch (a list when ``images``
    is a sequence), where row ``k`` is byte-identical to sequentially
    applying proposal ``k``, running ``engine.forward``, and reverting.
    """
    module = engine.plan.module
    if module.training:
        raise ValueError(
            "score_candidates requires eval mode: a training-mode forward "
            "mutates batch-norm running statistics per candidate"
        )
    single = isinstance(images, np.ndarray)
    arrays = [images] if single else [
        b.data if isinstance(b, Tensor) else b for b in images
    ]

    stages = engine.plan.stages
    last = len(stages) - 1
    params = dict(module.named_parameters())

    # Locate every proposal: (parameter name, local offset, stage index).
    located = []
    for index, value in proposals:
        name, local = qmodel.locate(int(index))
        located.append(
            (name, local, engine.plan.stage_index_of(params[name]), np.int8(value))
        )

    if not located:
        empty = [np.empty((0,), dtype=np.float32) for _ in arrays]
        return empty[0] if single else empty

    # Baseline signatures and prefix activations, captured before any flip
    # is applied so cache entries stay keyed on the unperturbed state.
    sigs = engine.plan.signatures()
    fingerprints = [engine._memo.fingerprint(a) for a in arrays]
    needed = sorted({stage for _, _, stage, _ in located})
    prefixes = {
        (bi, stage): engine.prefix_input(array, fp, sigs, stage)
        for bi, (array, fp) in enumerate(zip(arrays, fingerprints))
        for stage in needed
    }

    groups: dict = {}
    for position, (_, _, stage, _) in enumerate(located):
        groups.setdefault(stage, []).append(position)

    # A stamped twin of an earlier batch (EvalEngine.stamp) runs its
    # windowed stages on the trigger's cone over that batch's outputs, one
    # candidate slice at a time: batch index -> (clean batch index, windows).
    twins = {}
    for bi, array in enumerate(arrays):
        twin = engine.twin_of(array)
        src = None if twin is None else next(
            (j for j in range(bi) if arrays[j] is twin[1]), None
        )
        if src is not None:
            twins[bi] = (src, twin[2])

    def window(bi: int, index: int):
        windows = twins[bi][1] if bi in twins else ()
        return windows[index] if index < len(windows) else None

    engine._speculation = None
    spec_candidates: dict = {}
    results: List[List[np.ndarray]] = [[None] * len(located) for _ in arrays]
    suffix_forwards = 0
    for stage in needed:
        positions = groups[stage]
        # Per-candidate perturbed-layer outputs on the shared prefix -- one
        # apply/revert cycle covers every image batch.
        outputs: List[List[np.ndarray]] = [[] for _ in arrays]
        for position in positions:
            name, local, _, value = located[position]
            previous = _apply_byte(qmodel, name, local, value)
            for bi in range(len(arrays)):
                win = window(bi, stage)
                base = None if win is None else outputs[twins[bi][0]][-1]
                outputs[bi].append(
                    engine.run_stage(stage, prefixes[(bi, stage)], base, win)
                )
            _apply_byte(qmodel, name, local, previous)
            # Park this candidate's perturbed stage outputs for round-ahead
            # promotion: if the caller commits it, these arrays ARE the
            # post-commit input of stage+1 for each image batch.
            index, proposed = proposals[position]
            spec_candidates[(int(index), int(proposed))] = {
                "stage": stage,
                "outputs": [outputs[bi][-1] for bi in range(len(arrays))],
            }

        if stage == last:
            # The perturbed layer is the head: its output already is the
            # per-candidate logits; there is no suffix to batch.
            for bi in range(len(arrays)):
                for position, out in zip(positions, outputs[bi]):
                    results[bi][position] = out
            continue
        # Candidate axis folded into the batch dimension: one suffix
        # forward per image batch scores the whole group (baseline suffix
        # weights -- the flips above are all confined to ``stage`` and were
        # reverted).  A stamped twin's lane stays a list of candidate slices
        # while its stages run on the cone, each slice over the matching
        # rows of its clean lane, which every stage computes first.
        #
        # Representation switch for byte-identity: convolution and
        # pooling stages are per-sample computations, so folding
        # candidates into the batch axis cannot change their bytes.
        # Dense stages are ``x @ W.T`` against a transposed *view*, and
        # this BLAS picks M-dependent kernels for that operand layout --
        # a (K*N, F) GEMM rounds differently from K separate (N, F)
        # GEMMs.  So once activations flatten to 2-D the candidates are
        # lifted onto a leading axis instead: ``(K, N, F) @ (F, out)``
        # broadcasts to one GEMM per candidate slice with the exact M
        # the sequential path used, which is byte-identical.
        lanes = [
            outputs[bi] if window(bi, stage + 1) is not None
            else np.concatenate(outputs[bi], axis=0)
            for bi in range(len(arrays))
        ]
        grouped = [False] * len(arrays)
        for i in range(stage + 1, len(stages)):
            for bi, array in enumerate(arrays):
                h, n = lanes[bi], array.shape[0]
                if isinstance(h, list):
                    clean = lanes[twins[bi][0]]
                    if window(bi, i) is not None and isinstance(clean, np.ndarray):
                        lanes[bi] = [
                            engine.run_stage(i, part, clean[j * n:(j + 1) * n], window(bi, i))
                            for j, part in enumerate(h)
                        ]
                        continue
                    h = np.concatenate(h, axis=0)
                if not grouped[bi] and h.ndim == 2:
                    h = h.reshape((len(positions), n) + h.shape[1:])
                    grouped[bi] = True
                lanes[bi] = engine.run_stage(i, h)
        suffix_forwards += len(arrays)
        for bi, array in enumerate(arrays):
            h = lanes[bi]
            if isinstance(h, list):
                h = np.concatenate(h, axis=0)
            if not grouped[bi]:
                h = h.reshape((len(positions), array.shape[0]) + h.shape[1:])
            for j, position in enumerate(positions):
                results[bi][position] = h[j]

    if telemetry.enabled():
        telemetry.counter_add("engine.batch.rounds")
        telemetry.counter_add("engine.batch.candidates", len(located))
        telemetry.counter_add("engine.batch.groups", len(needed))
        telemetry.counter_add("engine.batch.suffix_forwards", suffix_forwards)

    engine._speculation = {
        "sigs": sigs,
        "fingerprints": fingerprints,
        "candidates": spec_candidates,
    }
    stacked = [np.stack(per_batch) for per_batch in results]
    return stacked[0] if single else stacked
