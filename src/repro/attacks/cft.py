"""Constrained Fine-Tuning with Bit Reduction (Algorithm 1) -- the paper's
primary contribution, plus its CFT ablation (no bit reduction).

Each iteration:

1. *Trigger step* (Eq. 4): an FGSM update of the trigger pattern toward the
   target class (only pixels inside the trigger mask move).
2. *Weight selection* (Eq. 5): ``group_sort_select`` divides the flat weight
   file into ``N_flip`` page-aligned groups and picks the top-|gradient|
   weight per group -- constraint C1 (one weight per flip) and C2 (no two
   flips in one memory page).
3. *Masked fine-tuning* (Eq. 6): a gradient step on the selected weights
   only.
4. *Bit reduction* (every ``bit_reduction_interval`` iterations): project the
   quantized weights so each differs from the original in at most one bit,
   ``theta* = BitReduce(theta, theta + dtheta)``, and at most one weight per
   page changes.  The projection causes the loss spikes of Fig. 7.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.attacks.base import AttackConfig, OfflineAttackResult
from repro.attacks.objective import attack_loss_and_grads, flatten_grads
from repro.autodiff import cone, cross_entropy, is_grad_enabled, no_grad
from repro.autodiff.tensor import Tensor
from repro.data.dataset import ArrayDataset
from repro.data.trigger import TriggerPattern
from repro.engine import EvalEngine
from repro.engine.plan import LayerPlan, Stage
from repro.errors import AttackError
from repro.nn.layers import Linear
from repro.quant.bits import (
    bit_reduce,
    bit_reduce_avoiding,
    hamming_distance,
    int8_to_uint8,
)
from repro.quant.qmodel import QuantizedModel
from repro.quant.weightfile import PAGE_SIZE_BYTES
from repro.utils.rng import new_rng

# With 8-bit weights, one 4 KB page holds exactly 4096 weights.
WEIGHTS_PER_PAGE = PAGE_SIZE_BYTES


def _flip_event_data(qmodel: QuantizedModel, index: int, old: int, new: int) -> Dict[str, object]:
    """Flight-recorder payload describing one committed byte change.

    ``bit``/``direction`` describe the most significant changed bit using the
    same encoding as :class:`~repro.quant.weightfile.BitLocation` (+1 for a
    0->1 flip), so ``repro report`` can join offline commits with online
    verification outcomes.
    """
    old_raw = int(old) & 0xFF
    new_raw = int(new) & 0xFF
    diff = old_raw ^ new_raw
    bit = diff.bit_length() - 1 if diff else -1
    layer, _ = qmodel.locate(int(index))
    return {
        "index": int(index),
        "layer": layer,
        "page": int(index) // WEIGHTS_PER_PAGE,
        "byte_offset": int(index) % WEIGHTS_PER_PAGE,
        "old": old_raw,
        "new": new_raw,
        "bit": bit,
        "direction": (1 if (new_raw >> bit) & 1 else -1) if diff else 0,
        "bits_changed": bin(diff).count("1"),
    }


def page_groups(
    n_w: int, n_flip: int, weights_per_page: int = WEIGHTS_PER_PAGE
) -> np.ndarray:
    """The C2 page-group id of each of ``n_w`` flat weights.

    The weights are divided into ``n_flip`` groups of
    ``N_group = N_w div (page * n_flip)`` pages each; trailing weights fold
    into the last group.
    """
    max_flips = max(1, (n_w + weights_per_page - 1) // weights_per_page)
    if n_flip > max_flips:
        raise AttackError(
            f"n_flip={n_flip} exceeds the {max_flips} pages the model occupies "
            "(constraint C2 requires at least one full page per group)"
        )
    pages_per_group = max(1, n_w // (weights_per_page * n_flip))
    group_span = weights_per_page * pages_per_group
    return np.minimum(np.arange(n_w) // group_span, n_flip - 1)


def group_sort_select(
    grad_magnitudes: np.ndarray, n_flip: int, weights_per_page: int = WEIGHTS_PER_PAGE
) -> np.ndarray:
    """``Group_Sort_Select`` (Eq. 5): top-1 weight per page-aligned group.

    The groups are :func:`page_groups`; the index with the largest gradient
    magnitude is selected from each.
    """
    group_ids = page_groups(int(grad_magnitudes.size), n_flip, weights_per_page)
    selected: List[int] = []
    for group in range(n_flip):
        members = np.nonzero(group_ids == group)[0]
        if members.size == 0:
            continue
        selected.append(int(members[np.argmax(grad_magnitudes[members])]))
    return np.asarray(selected, dtype=np.int64)


def _reads_linear(stage: Stage) -> bool:
    return any(isinstance(sub, Linear)
               for module in stage.modules for _, sub in module.named_modules())


def _training(module) -> bool:
    return any(sub.training for _, sub in module.named_modules())


class _CleanLogits:
    """Clean-term logits of attacker batches, reusing each image's features.

    CFT's trigger steps (Eq. 4) read only the clean term's loss value, and
    the weights do not change between them.  In eval mode the model's
    trunk -- every stage before the first ``Linear`` -- treats each row on
    its own, so an image's trunk features depend only on the image and the
    trunk's weights: they are kept per image and forwarded only for the
    rows a batch is missing at the trunk's current version signature (any
    change to a weight's bytes or a buffer starts a new version).  A GEMM
    over a different row count may pick a different BLAS kernel, so the
    ``Linear`` head runs on the gathered batch, in batch order, exactly as
    the clean forward would: the logits are byte-identical to
    ``model(images[idx])``.

    Given an ``engine`` over the same plan and ``shared``, a leading slice
    ``images[:k]`` that the engine forwards (CFT's evaluation subset), rows
    ``[0, k)`` are taken from the engine's cached stage outputs at the
    trunk's current signatures when it holds them all, instead of
    forwarded again: the trunk treats each row on its own, so they are the
    same bytes.

    Given the ``trigger``, it also serves the stamped pass
    (:meth:`stamped_forward`) on the trigger's cone
    (:mod:`repro.autodiff.cone`).  The first stamped pass runs in full,
    and each leading stage's window is read off the ops it ran; from then
    on the clean outputs of the windowed stages are kept per image
    alongside the features, in the full pass's memory order, and only the
    part the next crop reads.
    """

    def __init__(self, plan: LayerPlan, images: np.ndarray,
                 trigger: Optional[TriggerPattern] = None,
                 engine: Optional[EvalEngine] = None,
                 shared: Optional[np.ndarray] = None) -> None:
        stages = plan.stages
        cut = next((i for i, stage in enumerate(stages) if _reads_linear(stage)), len(stages))
        self.plan = plan
        self.trunk, self.head = stages[:cut], stages[cut:]
        self.images = images
        self._box = None if trigger is None else cone.bounding_box(trigger.mask)
        if self._box is not None:
            self._unclipped = cone.unclipped(images, self._box, trigger.clip_range)
        # Planned by the first stamped pass; until then every trunk output
        # of the forwarded rows waits in ``_pending``.
        self._windows: Optional[List[Optional[cone.StageWindow]]] = (
            None if self._box is not None else []
        )
        self._pending: List[tuple] = []  # (rows, trunk stage outputs)
        self._engine, self._shared = engine, shared
        self._outputs: Dict[int, tuple] = {}  # windowed stage -> (axis order, per-image rows)
        self._version: Optional[tuple] = None
        self._features: Optional[np.ndarray] = None
        self._have = np.zeros(len(images), dtype=bool)

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        """Clean logits of ``images[idx]``, in ``idx`` order."""
        self._ensure(idx)
        with no_grad():
            x = Tensor(self._features[idx])
            for stage in self.head:
                x = stage.fn(x)
        return x.data

    def _ensure(self, idx: np.ndarray) -> None:
        """Forward the rows of ``idx`` missing at the trunk's current version."""
        version = tuple(stage.version_signature() for stage in self.trunk)
        if version != self._version:
            self._version = version
            self._have[:] = False
            self._pending.clear()
        missing = np.unique(idx[~self._have[idx]])
        if missing.size and self._shared is not None and missing[0] < len(self._shared):
            self._adopt()
            missing = missing[~self._have[missing]]
        if not missing.size:
            return
        x = Tensor(self.images[missing])
        outputs = []
        with no_grad():
            for index, stage in enumerate(self.trunk):
                x = stage.fn(x)
                if self._windows is None:
                    outputs.append(x.data)
                elif index < len(self._windows) and self._windows[index] is not None:
                    self._store(index, missing, x.data)
        if self._windows is None:
            self._pending.append((missing, outputs))
        self._keep_features(missing, x.data)

    def _adopt(self) -> None:
        """Take the shared rows from the engine's cache, if it holds them all."""
        if _training(self.plan.module):
            return
        outputs = [self._engine.cached(self._shared, index) for index in range(len(self.trunk))]
        if any(out is None for out in outputs):
            return
        rows = np.arange(len(self._shared))
        if self._windows is None:
            self._pending.append((rows, outputs))
        else:
            for index, window in enumerate(self._windows):
                if window is not None:
                    self._store(index, rows, outputs[index])
        self._keep_features(rows, outputs[-1])

    def _keep_features(self, rows: np.ndarray, features: np.ndarray) -> None:
        if self._features is None:
            self._features = np.empty((len(self.images),) + features.shape[1:], features.dtype)
        self._features[rows] = features
        self._have[rows] = True

    def _store(self, index: int, rows: np.ndarray, out: np.ndarray) -> None:
        """Keep windowed stage ``index``'s output of ``rows`` on its kept box."""
        out = out[cone.region(self._windows[index].kept)]
        if index not in self._outputs:
            # Rows are kept in ``out``'s memory order (batch axis first), so
            # a gathered batch has the full pass's strides.
            order = [0] + [axis for axis in np.argsort([-s for s in out.strides], kind="stable")
                           if axis != 0]
            shape = (len(self.images),) + tuple(out.shape[axis] for axis in order[1:])
            self._outputs[index] = (order, np.empty(shape, out.dtype))
        order, store = self._outputs[index]
        store[rows] = out.transpose(order)

    def _clean_output(self, index: int, idx: np.ndarray) -> np.ndarray:
        order, store = self._outputs[index]
        return store[idx].transpose(np.argsort(order))

    def _plan(self, stamped: Tensor) -> Tensor:
        """The full stamped pass, reading each leading stage's window off its ops."""
        x, box, windows = stamped, self._box, []
        for index, stage in enumerate(self.plan.stages):
            out = stage.fn(x)
            if box is not None and index < len(self.trunk):
                window, box = cone.plan_stage(x, out, box)
                windows.append(window)
            x = out
        self._windows = cone.link(windows)
        for rows, outputs in self._pending:
            for index, window in enumerate(self._windows):
                if window is not None:
                    self._store(index, rows, outputs[index])
        self._pending.clear()
        return x

    def stamped_forward(self, idx: np.ndarray) -> Callable[[Tensor], Tensor]:
        """The model's forward for stamped ``images[idx]``, on the trigger's cone.

        Runs each windowed stage on a crop over the cached clean outputs
        when every cropped conv passes the byte check at this batch size.
        Falls back to ``model(x)`` when nothing is windowed (the trigger
        covers the map, or no check passes), the model is in train mode,
        or a stamped image differs from its clean one outside the
        trigger's box (the stamp clips every pixel).  The trigger's mask
        and clip range must not change; its pattern may.
        """
        def forward(stamped: Tensor) -> Tensor:
            self._ensure(idx)
            module = self.plan.module
            if _training(module):
                return module(stamped)
            if self._windows is None:
                if stamped.requires_grad and is_grad_enabled():
                    return self._plan(stamped)
                return module(stamped)
            windows = cone.usable(self._windows, len(idx))
            if not any(windows) or not self._unclipped[idx].all():
                return module(stamped)
            return cone.forward(self.plan.stages, windows, stamped,
                                lambda index: self._clean_output(index, idx))

        return forward


class CFTAttack:
    """CFT (+BR) offline attack on a quantized model.

    Parameters
    ----------
    config:
        Shared attack hyperparameters.
    bit_reduction:
        True for the full CFT+BR method; False for the CFT ablation that
        skips Step 4 (and therefore leaves multi-bit weight changes).
    strategy:
        ``"progressive"`` (default) commits one exact single-bit flip per
        round, chosen by evaluating the true objective for the top gradient
        candidates in each unfilled page group, with trigger PGD between
        rounds.  This is a search-accelerated solver for the same
        constrained problem (Eq. 3 + C1/C2 + one bit per weight) -- on a
        CPU/NumPy substrate the paper's plain SGD loop (``"sgd"``) needs
        thousands of iterations to converge, which is impractical here.
    """

    def __init__(
        self, config: AttackConfig, bit_reduction: bool = True, strategy: str = "progressive"
    ) -> None:
        if strategy not in ("progressive", "sgd"):
            raise AttackError(f"strategy must be 'progressive' or 'sgd', got {strategy!r}")
        self.config = config
        self.bit_reduction = bit_reduction
        self.strategy = strategy

    @property
    def name(self) -> str:
        return "CFT+BR" if self.bit_reduction else "CFT"

    # ------------------------------------------------------------------
    def run(self, qmodel: QuantizedModel, attacker_data: ArrayDataset) -> OfflineAttackResult:
        """Run the offline phase; the module inside ``qmodel`` is mutated."""
        if self.strategy == "progressive":
            return self._run_progressive(qmodel, attacker_data)
        return self._run_sgd(qmodel, attacker_data)

    def _run_sgd(self, qmodel: QuantizedModel, attacker_data: ArrayDataset) -> OfflineAttackResult:
        """The paper's Algorithm 1 as written: SGD with periodic projection."""
        config = self.config
        rng = new_rng(config.seed)
        model = qmodel.module
        model.eval()  # deployed batch-norm statistics stay frozen

        original_q = qmodel.flat_int8()
        names = qmodel.parameter_names
        image_shape = attacker_data.images.shape[1:]
        trigger = TriggerPattern.square(image_shape, config.trigger_size)

        loss_history: List[float] = []
        params = dict(model.named_parameters())
        for step in range(config.iterations):
            batch_idx = rng.choice(
                len(attacker_data),
                size=min(config.batch_size, len(attacker_data)),
                replace=False,
            )
            images = attacker_data.images[batch_idx]
            labels = attacker_data.labels[batch_idx]

            grads = attack_loss_and_grads(
                model,
                images,
                labels,
                trigger,
                config.target_class,
                config.alpha,
                need_trigger_grad=config.trigger_update,
            )
            loss_history.append(grads.loss)

            # Step 1 (Eq. 4): move the trigger down the target-class loss.
            if config.trigger_update and grads.trigger_grad is not None:
                trigger.fgsm_update(-grads.trigger_grad, config.epsilon)

            # Step 2 (Eq. 5): locate this iteration's vulnerable weights.
            flat_grad = flatten_grads(grads.param_grads, names)
            selected = group_sort_select(np.abs(flat_grad), config.n_flip_budget)
            if telemetry.enabled():
                telemetry.counter_add("cft.iterations")
                telemetry.gauge_set("cft.loss", grads.loss)
                telemetry.histogram_observe("cft.selected_weights", selected.size)
            if telemetry.events_enabled():
                telemetry.event(
                    "cft.select",
                    step=step,
                    loss=float(grads.loss),
                    selected=[int(i) for i in selected],
                    pages=[int(i) // WEIGHTS_PER_PAGE for i in selected],
                )

            # Step 3 (Eq. 6): masked update on the selected weights only.
            masked = np.zeros_like(flat_grad)
            masked[selected] = flat_grad[selected]
            self._apply_update(qmodel, params, names, masked)

            # Step 4: periodic bit-reduction projection.
            if self.bit_reduction and (step + 1) % config.bit_reduction_interval == 0:
                self._project(qmodel, original_q)

        if self.bit_reduction:
            self._project(qmodel, original_q)
        else:
            qmodel.requantize_from_module()
            qmodel.sync_to_module()

        backdoored_q = qmodel.flat_int8()
        n_flip = hamming_distance(original_q, backdoored_q)
        telemetry.counter_add("cft.bits_flipped", n_flip)
        if telemetry.events_enabled():
            # The SGD loop commits implicitly through projection; log the
            # surviving byte changes so the flip table has provenance rows.
            for index in np.nonzero(backdoored_q != original_q)[0]:
                telemetry.event(
                    "cft.flip_committed",
                    **_flip_event_data(
                        qmodel, int(index), int(original_q[index]), int(backdoored_q[index])
                    ),
                )
        return OfflineAttackResult(
            original_weights=original_q,
            backdoored_weights=backdoored_q,
            trigger=trigger,
            n_flip=n_flip,
            loss_history=loss_history,
            method=self.name,
        )

    # ------------------------------------------------------------------
    # Progressive solver
    # ------------------------------------------------------------------
    def _run_progressive(
        self, qmodel: QuantizedModel, attacker_data: ArrayDataset
    ) -> OfflineAttackResult:
        """Greedy exact search under the same constraints as Algorithm 1.

        Rounds alternate trigger PGD (Eq. 4) with committing the single-bit
        weight flip -- at most one per page group (C1/C2), at most one bit
        per weight (bit reduction) -- that minimizes the measured objective
        (Eq. 3) over the top gradient candidates of every unfilled group.
        """
        config = self.config
        rng = new_rng(config.seed)
        model = qmodel.module
        model.eval()

        original_q = qmodel.flat_int8()
        names = qmodel.parameter_names
        image_shape = attacker_data.images.shape[1:]
        trigger = TriggerPattern.square(image_shape, config.trigger_size)
        loss_history: List[float] = []

        group_of = page_groups(original_q.size, config.n_flip_budget)

        # Per-round budget: split the iteration budget between trigger PGD
        # steps and flip-candidate evaluations.
        trigger_steps = max(5, config.iterations // (config.n_flip_budget + 1) // 2)
        candidates_per_group = 3

        def batch() -> np.ndarray:
            return rng.choice(
                len(attacker_data),
                size=min(config.batch_size, len(attacker_data)),
                replace=False,
            )

        def refine_trigger(steps: int) -> None:
            nonlocal stamped_eval
            # The clean subset at the current weights: the next objective()
            # reads it, and the trigger steps take its rows' trunk outputs.
            engine.forward(eval_images)
            for _ in range(steps):
                idx = batch()
                # A trigger step reads only the loss and dF/dx: no weight
                # gradient is computed, the clean term reuses the rows
                # already forwarded at the current weights, and the stamped
                # pass recomputes only the trigger's cone.
                grads = attack_loss_and_grads(
                    model, attacker_data.images[idx], attacker_data.labels[idx], trigger,
                    config.target_class, config.alpha, param_names=(),
                    _clean_logits=clean_logits(idx),
                    _stamped_forward=clean_logits.stamped_forward(idx),
                )
                loss_history.append(grads.loss)
                if config.trigger_update and grads.trigger_grad is not None:
                    trigger.fgsm_update(-grads.trigger_grad, config.epsilon)
                    stamped_eval = None  # the hoisted stamped subset is stale
            if telemetry.events_enabled() and steps > 0:
                telemetry.event(
                    "cft.trigger_round", steps=steps, loss=float(loss_history[-1])
                )

        # Candidate flips are scored on a fixed subset (cheap, consistent);
        # the attacker's full set is used for the final pruning decisions.
        eval_count = min(64, len(attacker_data))
        eval_images = attacker_data.images[:eval_count]
        eval_labels = attacker_data.labels[:eval_count]
        eval_targets = np.full(eval_count, config.target_class, dtype=np.int64)

        # The objective is re-evaluated after every committed flip; the
        # engine reuses every layer prefix the flip left untouched, and
        # scores each round's proposals with one batched suffix forward per
        # touched layer.  Logits are byte-identical to the plain forward.
        engine = EvalEngine(model)
        clean_logits = _CleanLogits(engine.plan, attacker_data.images, trigger,
                                    engine=engine, shared=eval_images)

        # The trigger only moves between rounds (refine_trigger), while
        # objective() and the candidate scorer read the stamped subset
        # several times per round: stamp it once per trigger state so
        # repeated calls hand the engine the same batch object.  It is the
        # clean subset's stamped twin, so the engine recomputes only the
        # trigger's cone over the clean subset's cached stage outputs.
        stamped_eval: Optional[np.ndarray] = None

        def stamped_eval_images() -> np.ndarray:
            nonlocal stamped_eval
            if stamped_eval is None:
                stamped_eval = engine.stamp(trigger, eval_images)
            return stamped_eval

        def eval_asr() -> float:
            """ASR on the fixed evaluation subset (telemetry only)."""
            predictions = engine.forward(stamped_eval_images()).argmax(axis=1)
            return float((predictions == config.target_class).mean())

        def objective_from_logits(clean_logits: np.ndarray, trig_logits: np.ndarray) -> tuple:
            """(total, clean_loss, clean_accuracy): Eq. 3 on precomputed logits.

            Shared by objective() and the batched candidate scores, so
            identical logits bytes imply bit-identical objective floats --
            and therefore an identical selected flip sequence.
            """
            with no_grad():
                clean = cross_entropy(Tensor(clean_logits), eval_labels).item()
                trig_loss = cross_entropy(Tensor(trig_logits), eval_targets).item()
            clean_acc = float((clean_logits.argmax(axis=1) == eval_labels).mean())
            total = (1.0 - config.alpha) * clean + config.alpha * trig_loss
            return total, clean, clean_acc

        def objective() -> tuple:
            """(total, clean_loss, clean_accuracy) over the evaluation subset."""
            return objective_from_logits(
                engine.forward(eval_images), engine.forward(stamped_eval_images())
            )

        def apply_value(index: int, new_value: np.int8) -> np.int8:
            """Set one flat weight; returns the previous value."""
            name, local = qmodel.locate(int(index))
            tensor = qmodel.quantized(name)
            flat = tensor.reshape(-1)
            previous = flat[local]
            flat[local] = new_value
            qmodel.set_quantized(name, flat.reshape(tensor.shape))
            return previous

        refine_trigger(trigger_steps * 2)

        # Clean accuracy (on the attacker's set) may degrade at most this
        # much in total: the guard that keeps offline TA near the base
        # accuracy (the alpha trade-off serves this role in the SGD variant).
        # The bound scales with (1 - alpha): aggressive attackers accept
        # more degradation, mirroring the paper's alpha discussion.
        _, _, base_clean_acc = objective()
        min_clean_acc = base_clean_acc - 0.12 * config.alpha

        filled_groups: set = set()
        committed_flips: List[tuple] = []  # (index, old_value, new_value)
        current_q = original_q.copy()
        for round_index in range(config.n_flip_budget):
            idx = batch()
            grads = attack_loss_and_grads(
                model, attacker_data.images[idx], attacker_data.labels[idx], trigger,
                config.target_class, config.alpha, need_trigger_grad=False,
            )
            flat_grad = flatten_grads(grads.param_grads, names)
            baseline, _, _ = objective()
            loss_history.append(baseline)
            if telemetry.enabled():
                telemetry.counter_add("cft.rounds")
                telemetry.gauge_set("cft.loss", baseline)
                telemetry.histogram_observe("cft.round_asr", eval_asr())

            proposals = self._propose_flips(
                qmodel, current_q, flat_grad, group_of, filled_groups, candidates_per_group
            )
            # Cap the per-round evaluation budget: keep the proposals whose
            # weights carry the largest gradient magnitude.
            if len(proposals) > 16:
                proposals.sort(key=lambda p: -abs(float(flat_grad[p[0]])))
                proposals = proposals[:16]
            if telemetry.enabled():
                telemetry.counter_add("cft.candidates_evaluated", len(proposals))
            if telemetry.events_enabled():
                telemetry.event(
                    "cft.round",
                    round=round_index,
                    loss=float(baseline),
                    asr=eval_asr(),
                    candidates=len(proposals),
                )
            best: Optional[tuple] = None
            if proposals:
                # Round-level batched scoring: C1/C2 + bit reduction confine
                # every proposal to one byte in one layer, so the engine
                # restores each touched layer's shared prefix once and runs
                # one stacked suffix forward per layer group.  The logits --
                # and therefore the flip this round commits -- are
                # byte-identical to applying each proposal, running the
                # plain forward and reverting.
                clean_stack, trig_stack = engine.score_candidates(
                    qmodel, proposals, (eval_images, stamped_eval_images())
                )
                for k, (index, new_value) in enumerate(proposals):
                    score, _, clean_acc = objective_from_logits(
                        clean_stack[k], trig_stack[k]
                    )
                    if clean_acc < min_clean_acc:
                        continue
                    if best is None or score < best[0]:
                        best = (score, index, new_value)
            if best is None or best[0] >= baseline:
                # No admissible flip improves the objective this round.
                refine_trigger(trigger_steps)
                continue
            _, index, new_value = best
            old_value = apply_value(index, np.int8(new_value))
            # The scoring round buffered each candidate's perturbed-layer
            # output; promote the winner's into the activation cache so the
            # next round's prefix restore starts past this layer.
            engine.promote_speculation((index, new_value))
            committed_flips.append((index, old_value, np.int8(new_value)))
            current_q[index] = new_value
            filled_groups.add(int(group_of[index]))
            telemetry.counter_add("cft.flips_committed")
            if telemetry.events_enabled():
                telemetry.event(
                    "cft.flip_committed",
                    round=round_index,
                    group=int(group_of[index]),
                    score=float(best[0]),
                    **_flip_event_data(qmodel, index, int(old_value), int(new_value)),
                )
            refine_trigger(trigger_steps)

        refine_trigger(trigger_steps)

        # Pruning pass: drop any committed flip that no longer helps the
        # final objective (keeps N_flip minimal, mirroring the paper's goal).
        for index, old_value, new_value in list(committed_flips):
            with_flip, _, _ = objective()
            apply_value(index, old_value)
            without_flip, _, _ = objective()
            if without_flip <= with_flip:
                committed_flips.remove((index, old_value, new_value))
                current_q[index] = old_value
                if telemetry.events_enabled():
                    telemetry.event(
                        "cft.flip_pruned",
                        **_flip_event_data(qmodel, index, int(old_value), int(new_value)),
                    )
            else:
                apply_value(index, new_value)

        backdoored_q = qmodel.flat_int8()
        n_flip = hamming_distance(original_q, backdoored_q)
        if telemetry.enabled():
            telemetry.counter_add("cft.bits_flipped", n_flip)
            telemetry.gauge_set("cft.final_asr", eval_asr())
        return OfflineAttackResult(
            original_weights=original_q,
            backdoored_weights=backdoored_q,
            trigger=trigger,
            n_flip=n_flip,
            loss_history=loss_history,
            method=self.name,
        )

    def _propose_flips(
        self,
        qmodel: QuantizedModel,
        current_q: np.ndarray,
        flat_grad: np.ndarray,
        group_of: np.ndarray,
        filled_groups: set,
        per_group: int,
    ) -> List[tuple]:
        """Candidate (index, new_int8_value) single-bit flips.

        For each unfilled group, take the top-|gradient| weights and flip
        the most significant allowed bit that moves the weight against its
        gradient (the step Eq. 6 + bit reduction would take at convergence).
        """
        proposals: List[tuple] = []
        magnitudes = np.abs(flat_grad)
        forbidden = set(self.config.forbidden_bits)
        num_groups = int(group_of[-1]) + 1 if group_of.size else 0
        for group in range(num_groups):
            if group in filled_groups:
                continue
            members = np.nonzero(group_of == group)[0]
            if members.size == 0:
                continue
            order = members[np.argsort(magnitudes[members])[::-1][:per_group]]
            for index in order:
                grad = flat_grad[index]
                if grad == 0.0:
                    continue
                value = int(current_q[index])
                want_increase = grad < 0  # descend the objective
                if not self.bit_reduction:
                    # CFT ablation: move by a full step (typically flipping
                    # several bits of the byte -- its online downfall).
                    step = int(self.config.step_quanta) * (1 if want_increase else -1)
                    candidate = int(np.clip(value + step, -127, 127))
                    if candidate != value:
                        proposals.append((int(index), np.int8(candidate)))
                    continue
                raw = int(int8_to_uint8(np.array([value], dtype=np.int8))[0])
                # Propose every admissible single-bit flip in the wanted
                # direction (largest first); the caller evaluates each.
                for bit in range(7, 2, -1):
                    if bit in forbidden:
                        continue
                    candidate_raw = raw ^ (1 << bit)
                    candidate = int(np.uint8(candidate_raw).view(np.int8))
                    if (candidate > value) == want_increase and candidate != value:
                        proposals.append((int(index), np.int8(candidate)))
        return proposals

    # ------------------------------------------------------------------
    def _apply_update(
        self,
        qmodel: QuantizedModel,
        params: Dict[str, "object"],
        names: List[str],
        flat_grad_masked: np.ndarray,
    ) -> None:
        """Step the selected float weights against their gradient (Eq. 6)."""
        config = self.config
        for name in names:
            param = params[name]
            start = qmodel.offset_of(name)
            chunk = flat_grad_masked[start : start + param.size]
            if not np.any(chunk):
                continue
            if config.update_rule == "sign":
                # Move by a fixed number of quantization steps: the weight
                # crosses bit boundaries quickly and bit reduction projects
                # the result back to a single-bit change.
                step = config.step_quanta * qmodel.scale_of(name) * np.sign(chunk)
            else:
                step = config.learning_rate * chunk
            param.data = param.data - step.reshape(param.data.shape).astype(np.float32)

    def _project(self, qmodel: QuantizedModel, original_q: np.ndarray) -> None:
        """Bit reduction + one-change-per-page projection (constraints C2/C3).

        Quantizes the current float weights with the deployed scales, keeps
        only the most significant changed bit per weight, and if drift across
        iterations left several changed weights in one page, keeps the change
        with the largest integer magnitude and restores the rest.
        """
        qmodel.requantize_from_module()
        if self.config.forbidden_bits:
            q = bit_reduce_avoiding(
                original_q, qmodel.flat_int8(), self.config.forbidden_bits
            )
        else:
            q = bit_reduce(original_q, qmodel.flat_int8())

        changed = np.nonzero(q != original_q)[0]
        reverted = 0
        if changed.size:
            pages = changed // WEIGHTS_PER_PAGE
            for page in np.unique(pages):
                members = changed[pages == page]
                if members.size <= 1:
                    continue
                magnitudes = np.abs(
                    q[members].astype(np.int16) - original_q[members].astype(np.int16)
                )
                keep = members[int(np.argmax(magnitudes))]
                for member in members:
                    if member != keep:
                        q[member] = original_q[member]
                        reverted += 1
        if telemetry.events_enabled():
            kept = np.nonzero(q != original_q)[0]
            telemetry.event(
                "cft.bit_reduction",
                changed=int(changed.size),
                reverted=reverted,
                kept=[_flip_event_data(qmodel, int(i), int(original_q[i]), int(q[i]))
                      for i in kept],
            )
        qmodel.load_flat_int8(q)
