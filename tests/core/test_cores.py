"""Unit tests for the compute-core actors against NumPy references."""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    ConvCoreActor,
    FCCoreActor,
    PoolCoreActor,
    cifar10_design,
    random_weights,
)
from repro.core.builder import build_network, seeded_batch
from repro.dataflow import ArraySource, DataflowGraph, ListSink, stable_digest
from repro.errors import ConfigurationError, ShapeError
from repro.hls import interleaved_sum, tree_reduce
from tests.compiled.test_kernels_conv import bits
from tests.compiled.test_kernels_fc import actor_formulation


def run_conv_core(weight, bias, windows_per_port, in_ports, out_ports, n_coords,
                  activation=None, **core_kwargs):
    """windows_per_port: list (per port) of lists of (kh,kw) arrays."""
    g = DataflowGraph("t")
    core = g.add_actor(
        ConvCoreActor("core", weight, bias, in_ports, out_ports,
                      n_coords=n_coords, activation=activation, **core_kwargs)
    )
    out_fm = weight.shape[0]
    for p in range(in_ports):
        src = g.add_actor(ArraySource(f"src{p}", windows_per_port[p]))
        g.connect(src, "out", core, f"in{p}", capacity=4)
    sinks = []
    per_port_out = n_coords * (out_fm // out_ports)
    for p in range(out_ports):
        snk = g.add_actor(ListSink(f"snk{p}", count=per_port_out))
        g.connect(core, f"out{p}", snk, "in", capacity=4)
        sinks.append(snk)
    g.build_simulator().run()
    return sinks


class TestConvCore:
    def test_single_coord_single_port(self, rng):
        w = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        win = rng.standard_normal((3, 3)).astype(np.float32)
        sinks = run_conv_core(w, b, [[win]], 1, 1, 1)
        got = sinks[0].received
        exp = [np.sum(w[k, 0] * win) + b[k] for k in range(2)]
        assert np.allclose(got, exp, atol=1e-5)

    def test_multi_group_accumulates_over_fms(self, rng):
        # 2 input FMs on 1 port: windows arrive fm0 then fm1.
        w = rng.standard_normal((1, 2, 2, 2)).astype(np.float32)
        b = np.zeros(1, dtype=np.float32)
        win0 = rng.standard_normal((2, 2)).astype(np.float32)
        win1 = rng.standard_normal((2, 2)).astype(np.float32)
        sinks = run_conv_core(w, b, [[win0, win1]], 1, 1, 1)
        exp = np.sum(w[0, 0] * win0) + np.sum(w[0, 1] * win1)
        assert sinks[0].received[0] == pytest.approx(exp, abs=1e-5)

    def test_parallel_ports_fm_assignment(self, rng):
        # 2 ports: port p carries FM p.
        w = rng.standard_normal((1, 2, 2, 2)).astype(np.float32)
        b = np.zeros(1, dtype=np.float32)
        wins = [
            [rng.standard_normal((2, 2)).astype(np.float32)],
            [rng.standard_normal((2, 2)).astype(np.float32)],
        ]
        sinks = run_conv_core(w, b, wins, 2, 1, 1)
        exp = np.sum(w[0, 0] * wins[0][0]) + np.sum(w[0, 1] * wins[1][0])
        assert sinks[0].received[0] == pytest.approx(exp, abs=1e-5)

    def test_output_interleaving_over_ports(self, rng):
        # 4 output FMs on 2 ports: port p gets FMs p, p+2.
        w = rng.standard_normal((4, 1, 1, 1)).astype(np.float32)
        b = np.zeros(4, dtype=np.float32)
        win = np.ones((1, 1), dtype=np.float32)
        sinks = run_conv_core(w, b, [[win]], 1, 2, 1)
        assert np.allclose(sinks[0].received, [w[0, 0, 0, 0], w[2, 0, 0, 0]], atol=1e-6)
        assert np.allclose(sinks[1].received, [w[1, 0, 0, 0], w[3, 0, 0, 0]], atol=1e-6)

    def test_activation_applied(self, rng):
        w = np.full((1, 1, 1, 1), 5.0, dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        win = np.full((1, 1), -2.0, dtype=np.float32)
        sinks = run_conv_core(w, b, [[win]], 1, 1, 1, activation="relu")
        assert sinks[0].received[0] == 0.0

    def test_steady_state_interval_is_ii(self, rng):
        # 4 input FMs on 1 port, 1 output FM: II = 4 per coordinate.
        w = rng.standard_normal((1, 4, 1, 1)).astype(np.float32)
        b = np.zeros(1, dtype=np.float32)
        wins = [[rng.standard_normal((1, 1)).astype(np.float32) for _ in range(16)]]
        sinks = run_conv_core(w, b, wins, 1, 1, 4)
        ts = sinks[0].timestamps
        deltas = [b_ - a_ for a_, b_ in zip(ts, ts[1:])]
        assert all(d == 4 for d in deltas)

    def test_values_do_not_depend_on_how_many_were_evaluated_together(
        self, rng, monkeypatch
    ):
        # A coordinate's values are worked out when the emitter first reads
        # them, together with every coordinate queued by then. However
        # many that is, they are the bits of Algorithm 1 run on that
        # coordinate alone: per-group product tree, then the chain.
        out_fm, in_fm, k, n_coords = 3, 4, 3, 12
        w = rng.standard_normal((out_fm, in_fm, k, k)).astype(np.float32)
        b = rng.standard_normal(out_fm).astype(np.float32)
        wins = rng.standard_normal((n_coords, in_fm, k, k)).astype(np.float32)
        specials = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-45]
        odd = rng.random(wins.shape) < 0.02
        wins[odd] = rng.choice(specials, size=odd.sum())
        wins[3] = -0.0
        w[0] = -0.0
        with np.errstate(all="ignore"):
            want = []
            for coord in wins:
                acc = b
                for g in range(in_fm):
                    acc = acc + tree_reduce(w[:, g].reshape(out_fm, -1) * coord[g].ravel())
                want.append(np.tanh(acc))
        batches = []
        evaluate = ConvCoreActor._evaluate
        monkeypatch.setattr(
            ConvCoreActor, "_evaluate",
            lambda core: batches.append(len(core._pending)) or evaluate(core),
        )
        got = {}
        with np.errstate(all="ignore"):
            for depth in (1, 5):
                sinks = run_conv_core(
                    w, b, [list(wins.reshape(-1, k, k))], 1, 1, n_coords,
                    activation="tanh", queue_depth=depth, pipeline_depth=40,
                )
                got[depth] = np.asarray(sinks[0].received)
        assert max(batches[:n_coords]) == 1 and max(batches[n_coords:]) == 5
        for depth in (1, 5):
            assert np.array_equal(bits(got[depth]), bits(np.concatenate(want)))

    def test_weight_shape_validated(self):
        with pytest.raises(ShapeError):
            ConvCoreActor("c", np.zeros((2, 3)), np.zeros(2), 1, 1, 1)

    def test_bias_shape_validated(self):
        with pytest.raises(ShapeError):
            ConvCoreActor("c", np.zeros((2, 1, 3, 3)), np.zeros(3), 1, 1, 1)

    def test_port_divisibility_validated(self):
        with pytest.raises(ConfigurationError):
            ConvCoreActor("c", np.zeros((2, 3, 3, 3)), np.zeros(2), 2, 1, 1)


def per_group_stack(weight, in_ports):
    """The ``(G, OUT_FM, P*kh*kw)`` weights of every window group, sliced
    group by group: one fancy-indexed weight slice per group (port ``p``
    carries FMs ``p, p+P, ...``), then a stack. An independent reference
    for the layout the cores read the weight in."""
    out_fm, in_fm = weight.shape[:2]
    port_fms = [list(range(p, in_fm, in_ports)) for p in range(in_ports)]
    return np.stack([
        np.ascontiguousarray(
            weight[:, [port_fms[p][g] for p in range(in_ports)]]
        ).reshape(out_fm, -1)
        for g in range(in_fm // in_ports)
    ])


#: Weight shapes of TC2's conv1 and conv2 and of AlexNet's conv1.
ZOO_CONV_WEIGHTS = [(12, 3, 5, 5), (36, 12, 5, 5), (96, 3, 11, 11)]


class TestWeightStack:
    """The core reads the weight it is handed in place: its
    ``(OUT_FM, G, P*kh*kw)`` reshape is a view, bitwise the per-group
    stack."""

    def check(self, rng, shape, in_ports):
        w = rng.standard_normal(shape).astype(np.float32)
        w.flat[:: 7] = -0.0
        core = ConvCoreActor("core", w, np.zeros(shape[0], np.float32),
                             in_ports, 1, n_coords=1)
        view = core.weight.reshape(core.out_fm, core.in_groups, -1)
        assert np.shares_memory(view, w)
        want = per_group_stack(w, in_ports)
        # Row (o, g) of the view is group g's weights of map o.
        assert view.shape == (want.shape[1], want.shape[0], want.shape[2])
        assert np.array_equal(bits(view.transpose(1, 0, 2)), bits(want))

    @pytest.mark.parametrize("in_ports", [1, 2, 3, 4, 6])
    def test_every_port_count(self, rng, in_ports):
        self.check(rng, (5, 12, 3, 2), in_ports)

    @pytest.mark.parametrize("shape,in_ports", [
        (shape, p) for shape in ZOO_CONV_WEIGHTS for p in (1, 2, 3, 4, 6)
        if shape[1] % p == 0
    ], ids=str)
    def test_zoo_convs(self, rng, shape, in_ports):
        self.check(rng, shape, in_ports)

    @pytest.mark.parametrize("layout", ["fortran", "float64"])
    def test_other_layouts_are_copied_once(self, rng, layout):
        w = rng.standard_normal((6, 4, 3, 3)).astype(np.float32)
        w.flat[:: 7] = -0.0
        given = np.asfortranarray(w) if layout == "fortran" else w.astype(np.float64)
        core = ConvCoreActor("core", given, np.zeros(6, np.float32), 2, 1,
                             n_coords=1)
        assert not np.shares_memory(core.weight, given)
        assert core.weight.dtype == np.float32 and core.weight.flags.c_contiguous
        assert np.array_equal(bits(core.weight), bits(w))

    @pytest.mark.parametrize("layout", ["fortran", "float64"])
    @pytest.mark.parametrize("scheduler", ["event", "compiled"])
    def test_other_layouts_give_the_same_digest(self, layout, scheduler):
        design = cifar10_design()
        weights = random_weights(design, seed=4)
        batch = seeded_batch(design, 4, 2)

        def digest(ws):
            built = build_network(design, ws, batch)
            result = built.run(scheduler=scheduler)
            assert result.scheduler_stats["scheduler"] == scheduler
            return stable_digest(built.outputs())

        convert = {
            "fortran": np.asfortranarray,
            "float64": lambda a: a.astype(np.float64),
        }[layout]
        other = {
            name: {k: convert(v) if k == "weight" and v.ndim == 4 else v
                   for k, v in layer.items()}
            for name, layer in weights.items()
        }
        assert digest(other) == digest(weights)

    def test_construction_allocates_no_weight_sized_array(self):
        # AlexNet conv2: 256 x 96 x 5 x 5 float32 weights, 2,457,600 bytes.
        w = np.zeros((256, 96, 5, 5), np.float32)
        b = np.zeros(256, np.float32)
        tracemalloc.start()
        try:
            ConvCoreActor("conv2.core", w, b, 1, 1, n_coords=27 * 27,
                          activation="relu")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * w.nbytes


class TestPoolCore:
    def _run(self, mode, windows):
        g = DataflowGraph("t")
        core = g.add_actor(PoolCoreActor("p", mode, count=len(windows)))
        src = g.add_actor(ArraySource("src", windows))
        snk = g.add_actor(ListSink("snk", count=len(windows)))
        g.connect(src, "out", core, "in", capacity=4)
        g.connect(core, "out", snk, "in", capacity=4)
        g.build_simulator().run()
        return snk

    def test_max_mode(self, rng):
        wins = [rng.standard_normal((2, 2)).astype(np.float32) for _ in range(5)]
        snk = self._run("max", wins)
        assert np.allclose(snk.received, [w.max() for w in wins])

    def test_mean_mode(self, rng):
        wins = [rng.standard_normal((2, 2)).astype(np.float32) for _ in range(5)]
        snk = self._run("mean", wins)
        assert np.allclose(snk.received, [w.mean() for w in wins], atol=1e-6)

    def test_full_rate(self, rng):
        wins = [rng.standard_normal((2, 2)).astype(np.float32) for _ in range(6)]
        snk = self._run("max", wins)
        deltas = [b - a for a, b in zip(snk.timestamps, snk.timestamps[1:])]
        assert all(d == 1 for d in deltas)  # "perfect pipelining"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            PoolCoreActor("p", "median", count=1)


class TestFCCore:
    def _run(self, weight, bias, values, images=1, lanes=4, activation=None):
        g = DataflowGraph("t")
        core = g.add_actor(
            FCCoreActor("fc", weight, bias, acc_lanes=lanes, images=images,
                        activation=activation)
        )
        src = g.add_actor(ArraySource("src", values))
        snk = g.add_actor(ListSink("snk", count=images * weight.shape[0]))
        g.connect(src, "out", core, "in", capacity=4)
        g.connect(core, "out", snk, "in", capacity=4)
        g.build_simulator().run()
        return snk

    def test_matches_matvec(self, rng):
        w = rng.standard_normal((3, 8)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        x = rng.standard_normal(8).astype(np.float32)
        snk = self._run(w, b, x)
        assert np.allclose(snk.received, w @ x + b, atol=1e-5)

    def test_interleaved_accumulator_rounding(self, rng):
        # The core's float rounding equals the lane-interleaved order.
        w = rng.standard_normal((2, 16)).astype(np.float32)
        b = np.zeros(2, dtype=np.float32)
        x = (rng.standard_normal(16) * 1e3).astype(np.float32)
        snk = self._run(w, b, x, lanes=4)
        exp = interleaved_sum(w * x[None, :], 4)
        assert np.array_equal(np.asarray(snk.received), exp)

    def test_layer_larger_than_one_term_block(self, rng, monkeypatch):
        # The per-image pass never builds the in_fm x out_fm terms at once:
        # a byte budget of two output maps' terms makes this layer four
        # blocks, the last one ragged, and no bit may notice.
        import repro.core.fc_core as fc_core

        in_fm, out_fm, lanes, images = 29, 7, 12, 2
        monkeypatch.setattr(fc_core, "_TERMS_BYTES", 2 * in_fm * 4)
        w = rng.standard_normal((out_fm, in_fm)).astype(np.float32)
        w[rng.random(w.shape) < 0.1] = -0.0
        b = rng.standard_normal(out_fm).astype(np.float32)
        xs = rng.standard_normal((images, in_fm)).astype(np.float32)
        xs[:, ::3] = -0.0
        calls = []
        monkeypatch.setattr(
            fc_core, "interleaved_sum",
            lambda terms, n: calls.append(terms.shape) or interleaved_sum(terms, n),
        )
        snk = self._run(w, b, xs.ravel(), lanes=lanes, images=images,
                        activation="tanh")
        assert calls == [(2, in_fm), (2, in_fm), (2, in_fm), (1, in_fm)] * images
        actor = FCCoreActor("ref", w, b, acc_lanes=lanes, images=images,
                            activation="tanh")
        want = actor_formulation(actor, xs)
        assert np.array_equal(bits(np.asarray(snk.received)), bits(want))

    def test_multiple_images(self, rng):
        w = rng.standard_normal((2, 4)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        xs = rng.standard_normal((3, 4)).astype(np.float32)
        snk = self._run(w, b, xs.ravel(), images=3)
        got = np.asarray(snk.received).reshape(3, 2)
        assert np.allclose(got, xs @ w.T + b, atol=1e-5)

    def test_activation(self, rng):
        w = np.array([[1.0]], dtype=np.float32)
        b = np.array([0.0], dtype=np.float32)
        snk = self._run(w, b, np.array([-5.0], dtype=np.float32), activation="relu")
        assert snk.received[0] == 0.0

    def test_outputs_after_all_inputs(self, rng):
        # Section IV-B: outputs are sent sequentially after all inputs.
        w = rng.standard_normal((2, 6)).astype(np.float32)
        b = np.zeros(2, dtype=np.float32)
        x = rng.standard_normal(6).astype(np.float32)
        snk = self._run(w, b, x)
        assert snk.timestamps[0] >= 6

    def test_weight_must_be_2d(self):
        with pytest.raises(ShapeError):
            FCCoreActor("f", np.zeros((2, 2, 2)), np.zeros(2))

    def test_lane_count_validated(self):
        with pytest.raises(ConfigurationError):
            FCCoreActor("f", np.zeros((2, 4)), np.zeros(2), acc_lanes=0)
