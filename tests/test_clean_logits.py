"""Oracles for reusing clean-term work across CFT trigger steps.

CFT's trigger steps keep each attacker image's trunk features (every stage
before the first ``Linear``) for one weight version, and run only the
``Linear`` head on each batch.  Two byte-identity contracts gate that:

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
    with no_grad():
        x = Tensor(images)
        for stage in cft_module._CleanLogits(compile_plan(model), images).trunk:
            x = stage.fn(x)
    return x.data


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
    clean = cft_module._CleanLogits(compile_plan(_model(name)), attacker_images.images)
    linear_stages = [
        stage for stage in clean.trunk + clean.head
        if any(isinstance(sub, Linear)
               for module in stage.modules for _, sub in module.named_modules())
    ]
    assert clean.trunk and linear_stages and linear_stages[0] is clean.head[0]


def test_logits_match_fresh_forward_across_weight_versions(attacker_images):
    model = _model("tinycnn")
    images = attacker_images.images
    clean = cft_module._CleanLogits(compile_plan(model), images)
    rng = np.random.default_rng(1)

    def check():
        for size in (1, 32, 32, 128):
            idx = rng.choice(len(images), size=size, replace=False)
            with no_grad():
                expected = model(Tensor(images[idx])).data
            assert clean(idx).tobytes() == expected.tobytes()

    check()
    # A trunk weight rebind starts a new version: stale rows are never served.
    model.conv1.weight.data = model.conv1.weight.data * np.float32(0.5)
    check()


def test_precomputed_logits_refused_when_weight_gradients_are_wanted(attacker_images):
    model = _model("tinycnn")
    images, labels = attacker_images.images[:4], attacker_images.labels[:4]
    trigger = TriggerPattern.square(images.shape[1:], 4)
    logits = cft_module._CleanLogits(compile_plan(model), images)(np.arange(4))
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
def test_shared_rows_come_from_the_engine_cache(name, attacker_images, monkeypatch):
    from repro.autodiff import cone
    from repro.engine import EvalEngine

    model = _model(name)
    images = attacker_images.images
    shared = images[:64]
    trigger = TriggerPattern.square(images.shape[1:], 10)
    engine = EvalEngine(model)
    clean = cft_module._CleanLogits(engine.plan, images, trigger, engine=engine, shared=shared)
    engine.forward(shared)
    forwarded = []
    original = clean._keep_features

    def recording(rows, features):
        forwarded.append(rows)
        return original(rows, features)

    monkeypatch.setattr(clean, "_keep_features", recording)
    idx = np.array([3, 70, 5, 100, 63])
    with no_grad():
        expected = model(Tensor(images[idx])).data
    assert clean(idx).tobytes() == expected.tobytes()
    # One adoption of rows [0, 64), then a forward of only the other rows.
    assert [rows.tolist() for rows in forwarded] == [list(range(64)), [70, 100]]
    # The first stamped pass plans the windows and stores the adopted rows'
    # windowed outputs, which are exact too.
    clean._plan(Tensor(trigger.apply(images[idx]), requires_grad=True))
    for index, window in enumerate(clean._windows):
        if window is not None:
            assert clean._clean_output(index, idx[[0, 2, 4]]).tobytes() == (
                engine.cached(shared, index)[[3, 5, 63]][cone.region(window.kept)].tobytes()
            )
    # A new trunk version adopts nothing until the engine has the subset there.
    first = next(p for n, p in model.named_parameters() if n.endswith("weight"))
    first.data = first.data * np.float32(0.5)
    forwarded.clear()
    clean(np.array([1, 2]))
    assert [rows.tolist() for rows in forwarded] == [[1, 2]]
