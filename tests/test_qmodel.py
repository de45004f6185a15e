"""QuantizedModel: layout, synchronization and bit-flip application."""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.quant import QuantizedModel
from repro.quant.bits import hamming_distance


class TestLayout:
    def test_total_params_matches_module(self, tiny_model, tiny_quantized):
        assert tiny_quantized.total_params == tiny_model.num_parameters()
        assert tiny_quantized.total_bits == 8 * tiny_quantized.total_params

    def test_offsets_are_cumulative(self, tiny_quantized):
        names = tiny_quantized.parameter_names
        offset = 0
        params = dict(tiny_quantized.module.named_parameters())
        for name in names:
            assert tiny_quantized.offset_of(name) == offset
            offset += params[name].size

    def test_locate_roundtrip(self, tiny_quantized):
        for flat_index in (0, 5, tiny_quantized.total_params - 1):
            name, local = tiny_quantized.locate(flat_index)
            assert tiny_quantized.offset_of(name) + local == flat_index

    def test_locate_out_of_range(self, tiny_quantized):
        with pytest.raises(QuantizationError):
            tiny_quantized.locate(tiny_quantized.total_params)

    def test_non_8bit_rejected(self, tiny_model):
        with pytest.raises(QuantizationError):
            QuantizedModel(tiny_model, num_bits=4)


class TestSync:
    def test_module_weights_are_dequantized_values(self, tiny_quantized):
        params = dict(tiny_quantized.module.named_parameters())
        for name in tiny_quantized.parameter_names:
            scale = tiny_quantized.scale_of(name)
            expected = tiny_quantized.quantized(name) * scale
            np.testing.assert_allclose(params[name].data, expected, rtol=1e-5)

    def test_flat_roundtrip(self, tiny_quantized):
        flat = tiny_quantized.flat_int8()
        tiny_quantized.load_flat_int8(flat)
        np.testing.assert_array_equal(tiny_quantized.flat_int8(), flat)

    def test_load_flat_wrong_size(self, tiny_quantized):
        with pytest.raises(QuantizationError):
            tiny_quantized.load_flat_int8(np.zeros(3, dtype=np.int8))

    def test_requantize_uses_original_scales(self, tiny_quantized):
        name = tiny_quantized.parameter_names[0]
        params = dict(tiny_quantized.module.named_parameters())
        scale = tiny_quantized.scale_of(name)
        params[name].data = params[name].data + 2 * scale
        tiny_quantized.requantize_from_module([name])
        assert tiny_quantized.scale_of(name) == scale  # unchanged

    def test_requantize_clips_to_range(self, tiny_quantized):
        name = tiny_quantized.parameter_names[0]
        params = dict(tiny_quantized.module.named_parameters())
        params[name].data = np.full_like(params[name].data, 1e6)
        tiny_quantized.requantize_from_module([name])
        assert tiny_quantized.quantized(name).max() <= 127


class TestBitFlips:
    def test_apply_bit_flip_changes_one_bit(self, tiny_quantized):
        before = tiny_quantized.flat_int8()
        tiny_quantized.apply_bit_flip(10, 6)
        after = tiny_quantized.flat_int8()
        assert hamming_distance(before, after) == 1
        assert before[10] != after[10]

    def test_bit_flip_syncs_module(self, tiny_quantized):
        name, local = tiny_quantized.locate(10)
        params = dict(tiny_quantized.module.named_parameters())
        before = params[name].data.reshape(-1)[local]
        tiny_quantized.apply_bit_flip(10, 6)
        after = params[name].data.reshape(-1)[local]
        assert before != after

    def test_nflip_against_clone(self, tiny_quantized):
        clone = tiny_quantized.clone()
        tiny_quantized.apply_bit_flip(3, 2)
        tiny_quantized.apply_bit_flip(5000 % tiny_quantized.total_params, 1)
        assert tiny_quantized.nflip_against(clone) == 2

    def test_set_quantized_shape_checked(self, tiny_quantized):
        name = tiny_quantized.parameter_names[0]
        with pytest.raises(QuantizationError):
            tiny_quantized.set_quantized(name, np.zeros(3, dtype=np.int8))

    def test_write_byte_returns_the_previous_byte_and_dirties_only_a_change(
        self, tiny_quantized
    ):
        name = tiny_quantized.parameter_names[0]
        param = dict(tiny_quantized.module.named_parameters())[name]
        before = tiny_quantized.quantized(name).reshape(-1)[1]
        version = param.version
        assert tiny_quantized.write_byte(1, before) == before
        assert param.version == version  # an unchanged byte marks nothing dirty
        new = np.int8(before ^ 1)
        assert tiny_quantized.write_byte(1, new) == before
        assert tiny_quantized.quantized(name).reshape(-1)[1] == new
        assert param.version != version

    def test_clone_is_independent(self, tiny_quantized):
        clone = tiny_quantized.clone()
        tiny_quantized.apply_bit_flip(0, 0)
        assert clone.nflip_against(tiny_quantized) == 1
