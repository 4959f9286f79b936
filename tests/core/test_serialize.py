"""Unit tests for design/weight serialization."""

import numpy as np
import pytest

from repro.core import (
    cifar10_design,
    design_from_dict,
    design_from_json,
    design_to_dict,
    design_to_json,
    load_weights,
    random_weights,
    save_weights,
    spec_from_dict,
    spec_to_dict,
    tiny_design,
    usps_design,
)
from repro.core.layer_spec import ConvLayerSpec, FCLayerSpec, PoolLayerSpec
from repro.errors import ConfigurationError
from repro.sst.block import BlockSpec


class TestSpecRoundtrip:
    @pytest.mark.parametrize(
        "spec",
        [
            ConvLayerSpec(name="c", in_fm=3, out_fm=12, kh=5, stride=2, pad=1,
                          in_ports=3, out_ports=4, activation="tanh"),
            ConvLayerSpec(name="cb", in_fm=3, out_fm=12, kh=3, pad=1,
                          block=BlockSpec(7, 5)),
            PoolLayerSpec(name="p", in_fm=6, out_fm=6, kh=2, stride=2,
                          in_ports=2, out_ports=2, mode="mean"),
            FCLayerSpec(name="f", in_fm=64, out_fm=10, acc_lanes=16,
                        activation="relu"),
        ],
    )
    def test_roundtrip(self, spec):
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_from_dict({"kind": "bn", "name": "x"})


class TestDesignRoundtrip:
    @pytest.mark.parametrize("design_fn", [tiny_design, usps_design, cifar10_design])
    def test_dict_roundtrip(self, design_fn):
        d = design_fn()
        d2 = design_from_dict(design_to_dict(d))
        assert d2.name == d.name
        assert d2.input_shape == d.input_shape
        assert d2.specs == d.specs

    def test_json_roundtrip(self):
        d = usps_design()
        d2 = design_from_json(design_to_json(d))
        assert d2.specs == d.specs

    def test_json_is_valid_document(self):
        import json

        doc = json.loads(design_to_json(cifar10_design()))
        assert doc["name"] == "cifar10-tc2"
        assert len(doc["layers"]) == 6

    def test_blocked_design_roundtrip(self):
        # ConvLayerSpec.block survives JSON: BlockSpec is stored as a
        # [th, tw] pair and reconstructed on load.
        from repro.core import vgg16_blocked_design

        d = vgg16_blocked_design()
        d2 = design_from_json(design_to_json(d))
        assert d2.specs == d.specs
        blocks = [s.block for s in d2.specs if isinstance(s, ConvLayerSpec)]
        assert all(isinstance(b, BlockSpec) for b in blocks)

    def test_blocked_spec_accepts_int_shorthand(self):
        doc = spec_to_dict(
            ConvLayerSpec(name="c", in_fm=1, out_fm=2, kh=3, pad=1)
        )
        doc["block"] = 4
        assert spec_from_dict(doc).block == BlockSpec(4, 4)

    def test_bad_block_shape_rejected(self):
        doc = spec_to_dict(
            ConvLayerSpec(name="c", in_fm=1, out_fm=2, kh=3, pad=1)
        )
        doc["block"] = [4, 4, 4]
        with pytest.raises(ConfigurationError):
            spec_from_dict(doc)

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigurationError):
            design_from_dict({"name": "x"})

    def test_roundtrip_revalidates(self):
        # Tampering with the serialized form must be caught on reload.
        doc = design_to_dict(usps_design())
        doc["layers"][0]["out_ports"] = 5  # does not divide out_fm=6
        with pytest.raises(ConfigurationError):
            design_from_dict(doc)


class TestWeightsRoundtrip:
    def test_npz_roundtrip(self, tmp_path):
        design = tiny_design()
        w = random_weights(design, seed=9)
        path = str(tmp_path / "weights.npz")
        save_weights(path, w)
        loaded = load_weights(path)
        assert set(loaded) == set(w)
        for layer in w:
            for pname in w[layer]:
                assert np.array_equal(loaded[layer][pname], w[layer][pname])

    def test_loaded_weights_build_and_match(self, tmp_path, rng):
        from repro.core import build_network

        design = tiny_design()
        w = random_weights(design, seed=9)
        path = str(tmp_path / "weights.npz")
        save_weights(path, w)
        batch = rng.uniform(0, 1, (1, 1, 8, 8)).astype(np.float32)
        a = build_network(design, w, batch)
        a.run(scheduler="compiled")
        b = build_network(design, load_weights(path), batch)
        b.run(scheduler="compiled")
        assert np.array_equal(a.outputs(), b.outputs())


class TestSerializeProperties:
    """Property: any valid design round-trips through JSON unchanged."""

    def test_random_designs_roundtrip(self):
        from hypothesis import HealthCheck, given, settings

        from tests.strategies import small_designs

        @settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(design=small_designs())
        def check(design):
            restored = design_from_json(design_to_json(design))
            assert restored.specs == design.specs
            assert restored.input_shape == design.input_shape

        check()

    def test_random_designs_dicts_are_json_safe(self):
        import json

        from hypothesis import HealthCheck, given, settings

        from repro.core import design_to_dict
        from tests.strategies import small_designs

        @settings(max_examples=25, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(design=small_designs())
        def check(design):
            json.dumps(design_to_dict(design))  # must not raise

        check()
