"""Oracles for reusing clean-term work across CFT trigger steps.

CFT's trigger steps gather each attacker image's trunk features (every
stage before the first ``Linear``) from the evaluation engine's cached
attacker batches, and run only the ``Linear`` head on each batch.  Two
byte-identity contracts gate that:

- an eval-mode trunk forward of any row subset, in any order, equals the
  matching rows of the full forward, for every zoo architecture;
- an attack that reuses the features returns the same
  :class:`OfflineAttackResult` as one that runs every clean forward.

The full logits are *not* row-independent on every BLAS: a GEMM over a
different row count may pick a different kernel, which is why the head
always runs on the gathered batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import AttackConfig, CFTAttack
from repro.attacks import cft as cft_module
from repro.attacks.objective import attack_loss_and_grads
from repro.autodiff import no_grad
from repro.autodiff.conv import Conv2dFunction
from repro.autodiff.tensor import Tensor
from repro.core.training import _evaluation_splits
from repro.data.trigger import TriggerPattern
from repro.engine import EvalEngine
from repro.engine.plan import compile_plan
from repro.errors import AttackError
from repro.models import build_model
from repro.nn.layers import Linear
from repro.quant.qmodel import QuantizedModel


@pytest.fixture(scope="module")
def attacker_images():
    """The 128 CIFAR-like attacker images (Section V-A's attacker set)."""
    return _evaluation_splits("cifar10", 0)[1]


def _model(name, num_classes=10):
    model = build_model(name, num_classes=num_classes, width=0.25, rng=0)
    model.eval()
    return model


def _trunk(model, images):
    plan = compile_plan(model)
    with no_grad():
        x = Tensor(images)
        for stage in plan.stages[:plan.head_start]:
            x = stage.fn(x)
    return x.data


def _steps(model, images, trigger=None):
    """Trigger-step inputs over ``images`` as CFT batches them, forwarded."""
    trigger = TriggerPattern.square(images.shape[1:], 10) if trigger is None else trigger
    batches = [images[:64]] + ([images[64:]] if len(images) > 64 else [])
    steps = cft_module._TriggerSteps(EvalEngine(model), batches, trigger)
    steps.forward()
    return steps


@pytest.mark.parametrize("name", ["tinycnn", "resnet20", "vgg11"])
def test_trunk_rows_are_independent(name, attacker_images):
    model = _model(name)
    images = attacker_images.images
    full = _trunk(model, images)
    rng = np.random.default_rng(0)
    for size in (1, 7, 32, 128):
        idx = rng.permutation(len(images))[:size]
        for order in (np.sort(idx), idx):
            assert _trunk(model, images[order]).tobytes() == full[order].tobytes(), size


@pytest.mark.parametrize("name", ["tinycnn", "resnet20", "vgg11"])
def test_trunk_ends_at_first_linear(name, attacker_images):
    plan = compile_plan(_model(name))
    linear_stages = [
        index for index, stage in enumerate(plan.stages)
        if any(isinstance(sub, Linear)
               for module in stage.modules for _, sub in module.named_modules())
    ]
    assert plan.head_start > 0 and linear_stages and linear_stages[0] == plan.head_start


def test_logits_match_fresh_forward_across_weight_versions(attacker_images):
    model = _model("tinycnn")
    images = attacker_images.images
    steps = _steps(model, images)
    rng = np.random.default_rng(1)

    def check():
        for size in (1, 32, 32, 128):
            idx = rng.choice(len(images), size=size, replace=False)
            with no_grad():
                expected = model(Tensor(images[idx])).data
            assert steps.inputs(idx)[0].tobytes() == expected.tobytes()

    check()
    # A trunk weight rebind starts a new version: stale rows are never
    # served, the stale batches are forwarded again.
    model.conv1.weight.data = model.conv1.weight.data * np.float32(0.5)
    check()


def test_precomputed_logits_refused_when_weight_gradients_are_wanted(attacker_images):
    model = _model("tinycnn")
    images, labels = attacker_images.images[:4], attacker_images.labels[:4]
    trigger = TriggerPattern.square(images.shape[1:], 4)
    logits, _ = _steps(model, images, trigger).inputs(np.arange(4))
    with pytest.raises(AttackError):
        attack_loss_and_grads(model, images, labels, trigger, 1, 0.5, _clean_logits=logits)


def _run(name, num_classes, data, batch_size, bit_reduction, force_clean_forward, monkeypatch):
    calls = []
    original_forward = Conv2dFunction.forward

    def counting_forward(*args, **kwargs):
        calls.append(1)
        return original_forward(*args, **kwargs)

    original = cft_module.attack_loss_and_grads

    def clean_forward_always(*args, _clean_logits=None, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Conv2dFunction, "forward", counting_forward)
        if force_clean_forward:
            patch.setattr(cft_module, "attack_loss_and_grads", clean_forward_always)
        qmodel = QuantizedModel(_model(name, num_classes))
        config = AttackConfig(
            target_class=1, iterations=12, n_flip_budget=1, batch_size=batch_size,
            epsilon=0.01, seed=0,
        )
        result = CFTAttack(config, bit_reduction=bit_reduction).run(qmodel, data)
    return result, len(calls)


@pytest.mark.parametrize("bit_reduction", [False, True], ids=["CFT", "CFT+BR"])
@pytest.mark.parametrize(
    "name,batch_size",
    [("tinycnn", 128), ("resnet20", 32)],
)
def test_attack_result_byte_equal_to_clean_forward(
    name, batch_size, bit_reduction, attacker_images, tiny_dataset, monkeypatch
):
    # resnet20 runs on the 16x16 fixture task to keep the suite fast.
    data, classes = (attacker_images, 10) if name == "tinycnn" else (tiny_dataset, 4)
    reused, reused_convs = _run(name, classes, data, batch_size, bit_reduction, False,
                                monkeypatch)
    forced, forced_convs = _run(name, classes, data, batch_size, bit_reduction, True,
                                monkeypatch)
    assert reused_convs < forced_convs  # the reuse actually skipped clean forwards
    assert np.asarray(reused.loss_history).tobytes() == np.asarray(forced.loss_history).tobytes()
    assert reused.trigger.pattern.tobytes() == forced.trigger.pattern.tobytes()
    assert reused.backdoored_weights.tobytes() == forced.backdoored_weights.tobytes()
    assert reused.n_flip == forced.n_flip


@pytest.mark.parametrize("name", ["tinycnn", "resnet20"])
def test_rows_come_from_the_engine_cache(name, attacker_images, monkeypatch):
    model = _model(name)
    images = attacker_images.images
    steps = _steps(model, images)
    ran = []
    original = EvalEngine.run_stage

    def recording(engine, index, *args, **kwargs):
        ran.append(index)
        return original(engine, index, *args, **kwargs)

    monkeypatch.setattr(EvalEngine, "run_stage", recording)
    idx = np.array([3, 70, 5, 100, 63])
    with no_grad():
        expected = model(Tensor(images[idx])).data
    assert steps.inputs(idx)[0].tobytes() == expected.tobytes()
    assert ran == []  # both batches' trunk outputs were cached
    # The steps hold what they read: an evicted entry is not forwarded again.
    steps.engine.cache.clear()
    assert steps.inputs(idx)[0].tobytes() == expected.tobytes()
    assert ran == []
    # New weights drop the held rows; the batches are forwarded again.
    model.conv1.weight.data = model.conv1.weight.data * np.float32(0.5)
    with no_grad():
        expected = model(Tensor(images[idx])).data
    assert steps.inputs(idx)[0].tobytes() == expected.tobytes()
    assert ran
