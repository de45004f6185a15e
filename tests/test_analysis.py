"""Metrics, probability analysis and GradCAM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    attack_success_rate,
    dram_match_rate,
    evaluate_attack,
    gradcam_focus_on_mask,
    gradcam_heatmap,
    monte_carlo_target_page_probability,
    n_flip,
    target_page_probability,
    target_page_probability_approx,
)
from repro.analysis import test_accuracy as clean_accuracy
from repro.data.dataset import ArrayDataset
from repro.data.trigger import TriggerPattern


class TestProbability:
    def test_paper_headline_numbers(self):
        """Section IV-A2: with 34 flips/page, S=32768, N=32768 pages."""
        assert target_page_probability_approx(1, 34, 32_768) == pytest.approx(1.0, abs=1e-6)
        assert target_page_probability_approx(2, 34, 32_768) == pytest.approx(0.03, abs=0.01)
        assert target_page_probability_approx(3, 34, 32_768) == pytest.approx(3e-5, abs=2e-5)

    def test_exact_and_approx_same_order_of_magnitude(self):
        # Eq. 2 merges the direction pools, overcounting direction-specific
        # matches; it stays within a small constant factor of Eq. 1.
        exact = target_page_probability(1, 1, 17, 17, 1000)
        approx = target_page_probability_approx(2, 34, 1000)
        assert exact < approx < 8 * exact

    def test_monotone_in_pages_and_flips(self):
        p_small = target_page_probability_approx(1, 10, 100)
        p_more_pages = target_page_probability_approx(1, 10, 1000)
        p_more_flips = target_page_probability_approx(1, 50, 100)
        assert p_more_pages > p_small
        assert p_more_flips > p_small

    def test_zero_cases(self):
        assert target_page_probability_approx(1, 10, 0) == 0.0
        assert target_page_probability_approx(0, 10, 5) == 1.0
        # Needing more offsets than flips exist is impossible.
        assert target_page_probability_approx(5, 2, 10_000) == 0.0

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            target_page_probability(-1, 0, 10, 10, 5)
        with pytest.raises(ValueError):
            target_page_probability_approx(-1, 10, 5)

    def test_monte_carlo_agrees_with_formula_in_likely_regime(self):
        # Use a dense regime so the MC estimate has low variance.
        mc = monte_carlo_target_page_probability(
            1, 0, n_up=64, n_down=0, num_pages=64, trials=400, page_bits=1024, rng=0
        )
        formula = target_page_probability(1, 0, 64, 0, 64, page_bits=1024)
        assert mc == pytest.approx(formula, abs=0.08)

    @settings(max_examples=30, deadline=None)
    @given(
        offsets=st.integers(0, 4),
        flips=st.floats(0.0, 200.0),
        pages=st.integers(0, 10_000),
    )
    def test_property_is_a_probability(self, offsets, flips, pages):
        p = target_page_probability_approx(offsets, flips, pages)
        assert 0.0 <= p <= 1.0


class TestMetrics:
    def test_dram_match_rate_formula(self):
        # 10/10 flips, no accidental -> 100 %.
        assert dram_match_rate(10, 10, 0) == pytest.approx(100.0)
        # Half matched -> 50 %.
        assert dram_match_rate(5, 10, 0) == pytest.approx(50.0)
        # Accidental flips apply the (1 - delta/S) penalty.
        assert dram_match_rate(10, 10, 32_768 // 2) == pytest.approx(50.0)

    def test_dram_match_rate_zero_flips(self):
        assert dram_match_rate(0, 0) == 0.0

    def test_n_flip_is_hamming(self):
        a = np.array([0, 1], dtype=np.int8)
        b = np.array([0, 3], dtype=np.int8)
        assert n_flip(a, b) == 1

    def test_accuracy_and_asr(self, tiny_model, tiny_test_dataset):
        ta = clean_accuracy(tiny_model, tiny_test_dataset)
        assert 0.0 <= ta <= 1.0
        trigger = TriggerPattern.square((3, 16, 16), 4)
        asr = attack_success_rate(tiny_model, tiny_test_dataset, trigger, target_class=0)
        assert 0.0 <= asr <= 1.0

    def test_asr_is_one_for_constant_model(self, tiny_test_dataset):
        from repro.nn import Module, Linear
        from repro.autodiff.tensor import Tensor

        class Constant(Module):
            def forward(self, x):
                logits = np.zeros((x.shape[0], 4), dtype=np.float32)
                logits[:, 1] = 10.0
                return Tensor(logits)

        trigger = TriggerPattern.square((3, 16, 16), 4)
        assert attack_success_rate(Constant(), tiny_test_dataset, trigger, 1) == 1.0
        assert attack_success_rate(Constant(), tiny_test_dataset, trigger, 0) == 0.0

    def test_evaluate_attack_bundles_both(self, tiny_model, tiny_test_dataset):
        trigger = TriggerPattern.square((3, 16, 16), 4)
        result = evaluate_attack(tiny_model, tiny_test_dataset, trigger, 0)
        assert hasattr(result, "test_accuracy")
        assert hasattr(result, "attack_success_rate")

    @pytest.mark.parametrize("batch_size", [7, 256])
    def test_evaluate_attack_equals_ta_and_asr_with_and_without_engine(self, batch_size):
        from repro.core.training import _evaluation_splits
        from repro.engine import EvalEngine
        from repro.models import build_model

        model = build_model("resnet20", num_classes=10, width=0.25, rng=0)
        model.eval()
        data = _evaluation_splits("cifar10", 0)[0].subset(np.arange(300))
        trigger = TriggerPattern.square((3, 32, 32), 10)
        expected = (clean_accuracy(model, data), attack_success_rate(model, data, trigger, 3))
        for engine in (None, EvalEngine(model)):
            result = evaluate_attack(model, data, trigger, 3, batch_size, engine=engine)
            assert (result.test_accuracy, result.attack_success_rate) == expected

    def test_empty_dataset(self, tiny_model):
        empty = ArrayDataset(np.zeros((0, 3, 16, 16)), np.zeros(0))
        assert clean_accuracy(tiny_model, empty) == 0.0
        trigger = TriggerPattern.square((3, 16, 16), 4)
        result = evaluate_attack(tiny_model, empty, trigger, 0)
        assert (result.test_accuracy, result.attack_success_rate) == (0.0, 0.0)


class TestGradCAM:
    def test_heatmap_shape_and_range(self, tiny_model):
        image = np.random.default_rng(0).random((3, 16, 16)).astype(np.float32)
        cam = gradcam_heatmap(tiny_model, image, class_index=1)
        assert cam.ndim == 2
        assert cam.min() >= 0.0 and cam.max() <= 1.0

    def test_defaults_to_predicted_class(self, tiny_model):
        image = np.random.default_rng(1).random((3, 16, 16)).astype(np.float32)
        cam = gradcam_heatmap(tiny_model, image)
        assert np.isfinite(cam).all()

    def test_model_without_feature_split_raises(self):
        from repro.errors import ReproError
        from repro.nn import Linear

        with pytest.raises(ReproError):
            gradcam_heatmap(Linear(3, 2, rng=0), np.zeros((3, 4, 4)))

    def test_focus_on_mask_bounds(self):
        heatmap = np.ones((4, 4), dtype=np.float32)
        mask = np.zeros((16, 16), dtype=bool)
        mask[12:, 12:] = True
        focus = gradcam_focus_on_mask(heatmap, mask)
        assert 0.0 < focus < 1.0

    def test_focus_is_one_when_all_mass_in_mask(self):
        heatmap = np.zeros((4, 4), dtype=np.float32)
        heatmap[3, 3] = 1.0
        mask = np.zeros((16, 16), dtype=bool)
        mask[12:, 12:] = True
        assert gradcam_focus_on_mask(heatmap, mask) == pytest.approx(1.0)

    def test_focus_zero_heatmap(self):
        assert gradcam_focus_on_mask(np.zeros((4, 4)), np.ones((16, 16), bool)) == 0.0
