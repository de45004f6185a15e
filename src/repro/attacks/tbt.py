"""Targeted Bit Trojan (TBT, Rakin et al.) baseline.

TBT limits modifications to the classifier weights that connect a few
*significant neurons* to the target class:

1. rank the penultimate-layer neurons by the magnitude of their weight into
   the target class and keep the top ``num_neurons``;
2. generate a trigger that maximizes those neurons' activations;
3. fine-tune only the (target class, selected neuron) weights on the
   clean/triggered mixture.

The flip count stays small (tens to hundreds), but every flip lands in the
last layer's single memory page, which is why TBT's online r_match collapses
(Table II, Fig. 13).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.attacks.base import AttackConfig, OfflineAttackResult
from repro.attacks.objective import attack_loss_and_grads
from repro.autodiff.tensor import Tensor, frozen
from repro.data.dataset import ArrayDataset
from repro.data.trigger import TriggerPattern
from repro.errors import AttackError
from repro.quant.bits import hamming_distance
from repro.quant.qmodel import QuantizedModel
from repro.utils.rng import new_rng


class TBTAttack:
    """Targeted Bit Trojan with significant-neuron selection."""

    name = "TBT"

    def __init__(self, config: AttackConfig, num_neurons: int = 8, trigger_steps: int = 50) -> None:
        if num_neurons <= 0:
            raise AttackError(f"num_neurons must be positive, got {num_neurons}")
        self.config = config
        self.num_neurons = num_neurons
        self.trigger_steps = trigger_steps

    # ------------------------------------------------------------------
    def _significant_neurons(self, model) -> np.ndarray:
        """Top neurons by |weight| into the target class row."""
        row = np.abs(model.fc.weight.data[self.config.target_class])
        k = min(self.num_neurons, row.size)
        return np.argsort(row)[-k:]

    def _generate_trigger(
        self, model, attacker_data: ArrayDataset, neurons: np.ndarray, rng
    ) -> TriggerPattern:
        """Gradient-ascend the trigger to fire the selected neurons."""
        image_shape = attacker_data.images.shape[1:]
        trigger = TriggerPattern.square(image_shape, self.config.trigger_size)
        # The weights stay fixed here: only dF/dx is computed.
        with frozen(model.parameters()):
            for _ in range(self.trigger_steps):
                batch_idx = rng.choice(
                    len(attacker_data),
                    size=min(32, len(attacker_data)),
                    replace=False,
                )
                stamped = trigger.apply(attacker_data.images[batch_idx])
                x = Tensor(stamped, requires_grad=True)
                features = model.forward_penultimate(x)
                # Maximize the selected neurons' mean activation.
                objective = features[:, neurons].mean()
                objective.backward()
                # Ascent: epsilon-sign step inside the mask, like Eq. 4.
                trigger.fgsm_update(x.grad.sum(axis=0), self.config.epsilon * 10)
        return trigger

    # ------------------------------------------------------------------
    def run(self, qmodel: QuantizedModel, attacker_data: ArrayDataset) -> OfflineAttackResult:
        config = self.config
        rng = new_rng(config.seed)
        model = qmodel.module
        model.eval()
        if "fc.weight" not in qmodel.parameter_names or not hasattr(
            model, "forward_penultimate"
        ):
            raise AttackError(
                "TBT requires a model with a final linear layer named 'fc' and a "
                "forward_penultimate method"
            )

        original_q = qmodel.flat_int8()
        neurons = self._significant_neurons(model)
        trigger = self._generate_trigger(model, attacker_data, neurons, rng)

        # Only the (target row, selected neuron) weights may change.
        fc_weight = model.fc.weight
        original_fc = fc_weight.data.copy()
        loss_history: List[float] = []
        for _ in range(config.iterations):
            batch_idx = rng.choice(
                len(attacker_data),
                size=min(config.batch_size, len(attacker_data)),
                replace=False,
            )
            grads = attack_loss_and_grads(
                model,
                attacker_data.images[batch_idx],
                attacker_data.labels[batch_idx],
                trigger,
                config.target_class,
                config.alpha,
                need_trigger_grad=False,
                param_names={"fc.weight"},
            )
            loss_history.append(grads.loss)
            update = np.zeros_like(fc_weight.data)
            update[config.target_class, neurons] = grads.param_grads["fc.weight"][
                config.target_class, neurons
            ]
            fc_weight.data = fc_weight.data - config.learning_rate * update

        # Everything except the selected entries stays bit-identical.
        mask = np.zeros_like(original_fc, dtype=bool)
        mask[config.target_class, neurons] = True
        fc_weight.data = np.where(mask, fc_weight.data, original_fc)

        qmodel.requantize_from_module(names=["fc.weight"])
        qmodel.sync_to_module()
        backdoored_q = qmodel.flat_int8()
        return OfflineAttackResult(
            original_weights=original_q,
            backdoored_weights=backdoored_q,
            trigger=trigger,
            n_flip=hamming_distance(original_q, backdoored_q),
            loss_history=loss_history,
            method=self.name,
            extra={"num_neurons": float(len(neurons))},
        )
