"""Last-layer fine-tuning (FT) baseline.

FT fine-tunes only the final classifier layer on the clean/triggered
mixture.  Fewer bits change than BadNet, but because the last layer of a
small ResNet occupies a single memory page, all required flips co-occur in
one page and the attack is unrealizable with Rowhammer (Table II).
"""

from __future__ import annotations


from repro.attacks.base import AttackConfig, OfflineAttackResult
from repro.attacks.objective import attack_loss_and_grads
from repro.data.dataset import ArrayDataset
from repro.data.trigger import TriggerPattern
from repro.quant.bits import hamming_distance
from repro.quant.qmodel import QuantizedModel
from repro.utils.rng import new_rng


def last_layer_parameter_names(qmodel: QuantizedModel) -> list:
    """Names of the final linear layer's parameters (weight file tail)."""
    names = [n for n in qmodel.parameter_names if n.startswith("fc.")]
    if not names:
        # Fall back to whichever parameter sits last in the weight file.
        names = [qmodel.parameter_names[-1]]
    return names


class LastLayerFTAttack:
    """Fine-tune only the classifier head with a fixed trigger."""

    name = "FT"

    def __init__(self, config: AttackConfig) -> None:
        self.config = config

    def run(self, qmodel: QuantizedModel, attacker_data: ArrayDataset) -> OfflineAttackResult:
        config = self.config
        rng = new_rng(config.seed)
        model = qmodel.module
        model.eval()

        original_q = qmodel.flat_int8()
        image_shape = attacker_data.images.shape[1:]
        trigger = TriggerPattern.square(image_shape, config.trigger_size)

        tuned = set(last_layer_parameter_names(qmodel))
        named = dict(model.named_parameters())
        loss_history = []
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
                param_names=tuned,
            )
            loss_history.append(grads.loss)
            for name in tuned:
                named[name].data = named[name].data - config.learning_rate * grads.param_grads[name]

        qmodel.requantize_from_module(names=sorted(tuned))
        qmodel.sync_to_module()
        backdoored_q = qmodel.flat_int8()
        return OfflineAttackResult(
            original_weights=original_q,
            backdoored_weights=backdoored_q,
            trigger=trigger,
            n_flip=hamming_distance(original_q, backdoored_q),
            loss_history=loss_history,
            method=self.name,
        )
