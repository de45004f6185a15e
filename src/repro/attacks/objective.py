"""The joint attack objective (Equation 3) and its gradients.

``F(dtheta, dx) = (1 - alpha) * CE(f(x), y)  +  alpha * CE(f(x + dx), y~)``

balances clean-data fidelity against trigger effectiveness.  One evaluation
returns the loss, per-parameter gradients (for weight selection and the
masked fine-tuning step) and the input gradient on the trigger region (for
the FGSM trigger step, Eq. 4).

Callers name the parameters whose gradients they read (``param_names``);
every other parameter is frozen for the call, so the tape never computes
its gradient.  A trigger step reads none (``param_names=()``): with every
parameter frozen the clean term leaves nothing on the tape and only the
stamped branch is differentiated, so a caller that already holds the
batch's clean logits for the current weights may pass them instead of
paying for the clean forward.
The loss and every returned gradient are byte-identical to a full call.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.autodiff import cross_entropy, frozen
from repro.autodiff.tensor import Tensor
from repro.data.trigger import TriggerPattern
from repro.errors import AttackError
from repro.nn.module import Module


@dataclasses.dataclass
class ObjectiveGrads:
    """One evaluation of Eq. 3."""

    loss: float
    clean_loss: float
    trigger_loss: float
    param_grads: Dict[str, np.ndarray]
    # dF/d(input) summed over the batch.  From a trigger-cone forward it is
    # exact inside the trigger mask and 0 elsewhere.
    trigger_grad: Optional[np.ndarray]


def attack_loss_and_grads(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    trigger: TriggerPattern,
    target_class: int,
    alpha: float,
    need_trigger_grad: bool = True,
    param_names: Optional[Iterable[str]] = None,
    *,
    _clean_logits: Optional[np.ndarray] = None,
    _stamped_forward: Optional[Callable[[Tensor], Tensor]] = None,
) -> ObjectiveGrads:
    """Evaluate Eq. 3 on one batch and backpropagate both terms.

    The model must be in the mode the caller wants (attacks run it in eval
    mode so batch-norm uses deployed running statistics -- the attacker
    cannot retrain normalization on the victim's data).

    ``param_names`` selects the parameters whose gradients are computed and
    returned (``None``: all of them).  The others have ``requires_grad``
    off for the call and come back absent from ``param_grads``.

    ``_clean_logits`` (internal) are the model's eval-mode logits for
    ``images`` at the current weights; the clean term is then the cross
    entropy of those rows, with no clean forward.  Only valid when no
    parameter gradient is wanted, since the clean term's weight gradient
    needs its taped forward.

    ``_stamped_forward`` (internal) replaces ``model`` for the stamped
    forward; CFT passes one that recomputes only the trigger's cone
    (:mod:`repro.autodiff.cone`).  Its loss and the input gradient inside
    the trigger mask are byte-identical to ``model``'s, and the returned
    ``trigger_grad`` is 0 outside the mask.  It computes no weight
    gradient, so it too is refused when parameter gradients are wanted.
    """
    model.zero_grad()
    named = dict(model.named_parameters())
    if param_names is None:
        wanted = list(named)
    else:
        requested = set(param_names)
        unknown = sorted(requested - named.keys())
        if unknown:
            raise AttackError(f"unknown parameter names {unknown}")
        wanted = [name for name in named if name in requested]
    if _clean_logits is not None and wanted:
        raise AttackError("precomputed clean logits carry no weight gradient")
    if _stamped_forward is not None and wanted:
        raise AttackError("the trigger-cone forward carries no weight gradient")
    target_labels = np.full(len(images), target_class, dtype=np.int64)

    with frozen(param for name, param in named.items() if name not in wanted):
        # Clean term: keep behaving correctly on unmodified inputs.  With no
        # parameter gradient wanted every parameter is frozen, so this
        # forward records no tape node.
        if _clean_logits is None:
            clean_logits = model(Tensor(images))
        else:
            clean_logits = Tensor(_clean_logits)
        clean_loss_t = cross_entropy(clean_logits, labels)

        # Trigger term: stamped inputs must map to the target class.  The
        # input is a differentiable leaf so dF/d(input) yields the FGSM
        # direction.
        stamped = trigger.apply(images)
        stamped_t = Tensor(stamped, requires_grad=need_trigger_grad)
        forward = model if _stamped_forward is None else _stamped_forward
        trigger_loss_t = cross_entropy(forward(stamped_t), target_labels)

        total = clean_loss_t * (1.0 - alpha) + trigger_loss_t * alpha
        if total.requires_grad:
            total.backward()

    param_grads = {
        name: (named[name].grad.copy() if named[name].grad is not None
               else np.zeros_like(named[name].data))
        for name in wanted
    }
    trigger_grad = None
    if need_trigger_grad and stamped_t.grad is not None:
        # Sum over the batch: the FGSM step only uses the gradient's sign.
        trigger_grad = stamped_t.grad.sum(axis=0)
        if _stamped_forward is not None:
            # The cone's crops pass back exact gradients only around the
            # trigger; the FGSM step reads only the mask.
            trigger_grad = np.where(trigger.mask, trigger_grad, np.float32(0))
    return ObjectiveGrads(
        loss=float(total.item()),
        clean_loss=float(clean_loss_t.item()),
        trigger_loss=float(trigger_loss_t.item()),
        param_grads=param_grads,
        trigger_grad=trigger_grad,
    )


def flatten_grads(param_grads: Dict[str, np.ndarray], names: List[str]) -> np.ndarray:
    """Concatenate per-parameter gradients in weight-file order."""
    return np.concatenate([param_grads[name].reshape(-1) for name in names])
