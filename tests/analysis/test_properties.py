"""Property tests: spec validation error paths and analyzer invariants.

Two families:

* :class:`LayerSpec` construction must reject indivisible FM/port combos
  and bad window parameters with :class:`ConfigurationError` — the
  analyzer's SPEC.VALID rule leans on these raises;
* the analyzer itself must accept every randomly generated valid design
  and flag every random single-fault mutation with the right rule, and
  :class:`NetworkDesign` must construct exactly the chains the walk
  finds no violation in (they are the same walk).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_chain, analyze_design
from repro.core.layer_spec import ConvLayerSpec, FCLayerSpec, PoolLayerSpec
from repro.core.network_design import NetworkDesign, walk_chain
from repro.errors import ConfigurationError, ReproError
from tests.strategies import small_designs


class TestSpecErrorPaths:
    @given(fm=st.integers(2, 64), ports=st.integers(2, 12))
    def test_indivisible_in_ports_rejected(self, fm, ports):
        if fm % ports == 0:
            fm += 1  # ports >= 2, so fm+1 is never divisible either way
        with pytest.raises(ConfigurationError):
            ConvLayerSpec(name="c", in_fm=fm, out_fm=4, kh=1, in_ports=ports)

    @given(fm=st.integers(2, 64), ports=st.integers(2, 12))
    def test_indivisible_out_ports_rejected(self, fm, ports):
        if fm % ports == 0:
            fm += 1
        with pytest.raises(ConfigurationError):
            ConvLayerSpec(name="c", in_fm=2, out_fm=fm, kh=1, out_ports=ports)

    @given(n=st.integers(-4, 0))
    def test_nonpositive_counts_rejected(self, n):
        with pytest.raises(ConfigurationError):
            ConvLayerSpec(name="c", in_fm=n, out_fm=4, kh=1)
        with pytest.raises(ConfigurationError):
            ConvLayerSpec(name="c", in_fm=1, out_fm=4, kh=1, in_ports=n)

    @given(k=st.integers(1, 4), pad=st.integers(1, 6))
    def test_pad_swallowing_kernel_rejected(self, k, pad):
        """A window fully inside the padding is meaningless."""
        if pad < k:
            pad = k  # pad must reach the kernel size to be invalid
        spec = ConvLayerSpec(name="c", in_fm=1, out_fm=1, kh=k, pad=pad)
        with pytest.raises(ConfigurationError):
            spec.out_hw(8, 8)

    def test_pool_fm_asymmetry_rejected(self):
        with pytest.raises(ConfigurationError):
            PoolLayerSpec(name="p", in_fm=4, out_fm=8)

    def test_pool_port_asymmetry_rejected(self):
        with pytest.raises(ConfigurationError):
            PoolLayerSpec(name="p", in_fm=4, out_fm=4, in_ports=2, out_ports=1)

    def test_fc_requires_single_ports(self):
        with pytest.raises(ConfigurationError):
            FCLayerSpec(name="f", in_fm=8, out_fm=2, in_ports=2)


class TestAnalyzerProperties:
    @settings(deadline=None, max_examples=30)
    @given(design=small_designs())
    def test_valid_designs_pass_design_rules(self, design):
        report = analyze_design(design)
        assert report.ok, report.format_text()

    @settings(deadline=None, max_examples=30)
    @given(design=small_designs())
    def test_oversized_window_flagged_as_geometry(self, design):
        """Blowing up the first conv's kernel past the input trips
        RATE.GEOMETRY (and only rate/geometry-family rules)."""
        first = design.specs[0]
        _, h, w = design.input_shape
        broken = dataclasses.replace(first, kh=h + 2 * first.pad + 1,
                                     kw=w + 2 * first.pad + 1)
        report = analyze_chain(design.name, design.input_shape,
                               [broken] + design.specs[1:])
        assert "RATE.GEOMETRY" in report.error_rules()

    @settings(deadline=None, max_examples=30)
    @given(design=small_designs())
    def test_fm_mutation_breaks_balance(self, design):
        """Inflating the first layer's IN_FM (keeping divisibility) must
        trip RATE.BALANCE against the DMA stream."""
        first = design.specs[0]
        mutated = dataclasses.replace(
            first, in_fm=first.in_fm + first.in_ports
        )
        report = analyze_chain(design.name, design.input_shape,
                               [mutated] + design.specs[1:])
        assert "RATE.BALANCE" in report.error_rules()

    @settings(deadline=None, max_examples=20)
    @given(design=small_designs())
    def test_duplicate_names_flagged(self, design):
        specs = design.specs + [
            dataclasses.replace(design.specs[0], name=design.specs[0].name),
        ]
        report = analyze_chain(design.name, design.input_shape, specs)
        assert "SPEC.VALID" in report.error_rules()

    @settings(deadline=None, max_examples=30)
    @given(design=small_designs(), mutation=st.sampled_from(
        ["none", "window", "in_fm", "duplicate", "ports", "reversed"]))
    def test_design_constructs_iff_walk_is_clean(self, design, mutation):
        """Construction and ``repro check`` read one walk: a chain
        constructs exactly when the walk finds nothing, and the class
        raised is the one the first violation names."""
        first = design.specs[0]
        _, h, w = design.input_shape
        specs = {
            "none": design.specs,
            "window": [dataclasses.replace(first, kh=h + 2 * first.pad + 1)]
                      + design.specs[1:],
            "in_fm": [dataclasses.replace(first, in_fm=first.in_fm + first.in_ports)]
                     + design.specs[1:],
            "duplicate": design.specs + [first],
            # 3 ports against the DMA's 1 is fine; 2 against those 3 is not.
            "ports": [dataclasses.replace(first, out_fm=6, out_ports=3),
                      ConvLayerSpec(name="extra", in_fm=6, out_fm=2, kh=1,
                                    in_ports=2)],
            "reversed": design.specs[::-1],
        }[mutation]
        errors = walk_chain(design.input_shape, specs).errors()
        if not errors:
            NetworkDesign(design.name, design.input_shape, specs)
            return
        with pytest.raises(ReproError) as raised:
            NetworkDesign(design.name, design.input_shape, specs)
        assert type(raised.value) is errors[0].error
        report = analyze_chain(design.name, design.input_shape, specs)
        assert [d.rule for d in report.errors] == [v.rule for v in errors]
