"""Core layer: training loop, model cache, experiment scaling, RNG utils."""

import numpy as np
import pytest

from repro.core.experiment import ExperimentScale, format_table2
from repro.core.training import TrainingConfig, evaluate_accuracy, train_model
from repro.data.dataset import ArrayDataset
from repro.utils.rng import new_rng, spawn_rngs

from tests.conftest import TinyCNN


class TestTraining:
    def test_training_reduces_loss(self, tiny_dataset):
        model = TinyCNN(rng=0)
        history = train_model(
            model, tiny_dataset, TrainingConfig(epochs=3, batch_size=16, learning_rate=0.05)
        )
        assert len(history) == 3
        assert history[-1] < history[0]
        assert not model.training  # left in eval mode

    def test_evaluate_accuracy_bounds(self, tiny_dataset):
        model = TinyCNN(rng=0)
        accuracy = evaluate_accuracy(model, tiny_dataset)
        assert 0.0 <= accuracy <= 1.0

    def test_evaluate_accuracy_empty(self):
        empty = ArrayDataset(np.zeros((0, 3, 16, 16)), np.zeros(0))
        assert evaluate_accuracy(TinyCNN(rng=0), empty) == 0.0


class TestModelCache:
    def test_pretrained_model_caches_to_disk(self, tmp_path):
        from repro.core.training import pretrained_quantized_model

        first, _, _, _ = pretrained_quantized_model(
            "resnet20", width=0.25, epochs=1, seed=123, cache_dir=tmp_path
        )
        assert list(tmp_path.glob("*.npz"))
        second, _, _, _ = pretrained_quantized_model(
            "resnet20", width=0.25, epochs=1, seed=123, cache_dir=tmp_path
        )
        np.testing.assert_array_equal(first.flat_int8(), second.flat_int8())

    def test_unknown_dataset_rejected(self, tmp_path):
        from repro.core.training import pretrained_quantized_model

        with pytest.raises(ValueError):
            pretrained_quantized_model("resnet20", dataset="mnist", cache_dir=tmp_path)


class TestSplitMemo:
    """Evaluation splits are memoized read-only; the train split renders lazily."""

    @pytest.fixture
    def generate_calls(self, monkeypatch):
        from repro.data.synthetic import SyntheticImageClassification

        calls = []
        original = SyntheticImageClassification.generate

        def counting(task, count, split="train"):
            calls.append(split)
            return original(task, count, split)

        monkeypatch.setattr(SyntheticImageClassification, "generate", counting)
        return calls

    def test_warm_cache_never_renders_train(self, tmp_path, generate_calls):
        from repro.core.training import _evaluation_splits, pretrained_quantized_model
        from repro.data.synthetic import make_cifar10_like

        seed = 7
        pretrained_quantized_model("tinycnn", epochs=1, seed=seed, cache_dir=tmp_path)
        _evaluation_splits.cache_clear()
        generate_calls.clear()
        _, train, test, attacker = pretrained_quantized_model(
            "tinycnn", epochs=1, seed=seed, cache_dir=tmp_path
        )
        assert generate_calls == ["test", "attacker"]
        _, _, test_again, attacker_again = pretrained_quantized_model(
            "tinycnn", epochs=1, seed=seed, cache_dir=tmp_path
        )
        assert generate_calls == ["test", "attacker"]
        assert test_again is test and attacker_again is attacker

        # Reading the train split renders it, byte-equal to the eager build.
        expected = make_cifar10_like(seed=seed)
        assert train.images.tobytes() == expected[0].images.tobytes()
        assert train.labels.tobytes() == expected[0].labels.tobytes()
        assert len(train) == len(expected[0])
        for got, want in zip((test, attacker), expected[1:]):
            assert got.images.tobytes() == want.images.tobytes()
            assert got.labels.tobytes() == want.labels.tobytes()

    def test_memoized_splits_are_read_only(self):
        from repro.core.training import _evaluation_splits

        for split in _evaluation_splits("cifar10", 0):
            with pytest.raises(ValueError):
                split.images[0, 0, 0, 0] = 0.0
            with pytest.raises(ValueError):
                split.labels[0] = 0

    @pytest.mark.parametrize("dataset", ["cifar10", "imagenet"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_num_classes_from_spec_matches_sampled_labels(self, dataset, seed):
        # The victim's output count once came from the sampled train labels;
        # the spec must agree so no cached checkpoint changes shape.
        from repro.core.training import _dataset_splits, _task_preset

        train, _, _ = _dataset_splits(dataset, seed)
        assert _task_preset(dataset).spec.num_classes == int(train.labels.max()) + 1


class TestExperimentScale:
    def test_presets(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        tiny = ExperimentScale.from_env()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        full = ExperimentScale.from_env()
        assert tiny.attack_iterations < full.attack_iterations
        assert tiny.width <= full.width

    def test_default_is_small(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert ExperimentScale.from_env() == ExperimentScale()

    def test_invalid_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "huge")
        with pytest.raises(ValueError):
            ExperimentScale.from_env()

    def test_format_table2_layout(self):
        rows = [
            {
                "method": "CFT+BR",
                "offline_n_flip": 10,
                "offline_ta": 91.24,
                "offline_asr": 94.62,
                "online_n_flip": 10,
                "online_ta": 89.04,
                "online_asr": 92.67,
                "r_match": 99.99,
            }
        ]
        table = format_table2(rows)
        assert "CFT+BR" in table
        assert "99.99" in table


class TestRngUtils:
    def test_new_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert new_rng(rng) is rng

    def test_new_rng_from_int_deterministic(self):
        assert new_rng(5).integers(0, 100) == new_rng(5).integers(0, 100)

    def test_spawn_rngs_independent(self):
        children = spawn_rngs(7, 3)
        draws = [c.integers(0, 2**32) for c in children]
        assert len(set(draws)) == 3

    def test_spawn_rngs_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)
