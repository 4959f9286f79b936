"""A compiled run is cut once over the CPUs, and no bit moves.

:func:`repro.compiled.native.split_images` cuts a run's images at whole
blocks of ``lanes()`` (16) images, one part per CPU and at most one per
whole block, the images past the last whole block in the last part, and
runs each part on a worker thread pinned to its CPU while the caller
waits; with one part it runs inline. ``run_kernels`` is its one caller:
each part runs the whole kernel chain on its own images, every kernel
given a :class:`~repro.compiled.kernels.Part`. Each image's values do not
depend on the other images, so a cut run must equal the one-part run bit
for bit, and a kernel run part by part must equal its whole-batch call,
whatever the CPU list. The tests pass CPU lists of one, two and three
entries, drawn from this process's affinity set (repeated where it has
fewer CPUs), so they cut on a one-CPU host too.
"""

import functools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from repro.analysis.steady_state import extract_schedule, port_maps
from repro.compiled import kernels, native
from repro.compiled.kernels import KERNELS, Part, k_conv, k_demux, k_interleave
from repro.core import cifar10_design, random_weights
from repro.core.builder import build_network, seeded_batch
from repro.core.fc_core import FCCoreActor
from repro.core.models import tiny_design, usps_design
from repro.core.multi_fpga import plan_split
from repro.core.zoo import alexnet_pilot_design, vgg16_pilot_design
from repro.dataflow import stable_digest
from repro.dataflow.actors import Interleaver, ScheduleDemux
from repro.errors import CompilationError
from tests.compiled.test_kernels_conv import ROOT, bits, make_case

#: The image walk's block (``LANES`` in ``cores.c``), the split unit.
LANES = int(re.search(r"#define LANES (\d+)", native.SOURCE.read_text())[1])
#: The helper itself, which the tests below wrap and patch in.
SPLIT = native.split_images
CPUS = sorted(os.sched_getaffinity(0))


def cpu_list(n):
    """``n`` CPUs of the affinity set, repeating them if it has fewer."""
    return (CPUS * n)[:n]


#: Image counts around whole blocks of 16: one block and a remainder of 15
#: (31), two blocks and no, 1 or 15 more (32, 33, 47), three, four and a
#: remainder of 1, six and a remainder of 4.
SPLIT_COUNTS = [31, 32, 33, 47, 48, 64, 65, 100]

#: TestConvImageWalk's geometries: ports and window size.
GEOMETRIES = [(p, k) for p in (1, 2, 4) for k in (1, 3, 5)]


def recorded(call, parts):
    """``call``, noting each part's ``(i0, i1, thread, affinity)``."""
    def run(i0, i1):
        parts.append((i0, i1, threading.current_thread(), os.sched_getaffinity(0)))
        call(i0, i1)

    return run


def split_on(cpus, parts):
    """:data:`SPLIT` over ``cpus``, recording each part."""
    def split(call, images):
        SPLIT(recorded(call, parts), images, cpus)

    return split


def by_parts(actor, ins):
    """``k_conv`` of ``ins`` run as a cut run runs it: ``split_images``
    over its images, each part on its images' windows with a
    :class:`Part`; the outputs joined in image order."""
    images = len(next(iter(ins.values())))
    outs = {}

    def call(i0, i1):
        part_ins = {port: view[i0:i1] for port, view in ins.items()}
        outs[i0] = k_conv(actor, part_ins, Part(i0, i1, images, {}))

    native.split_images(call, images)
    return {
        port: np.concatenate([outs[i0][port] for i0 in sorted(outs)])
        for port in outs[0]
    }


def overlapping(view):
    """``view``'s windows with each image one pixel row past the one before
    it: images overlap, so ``conv_tree`` takes the coordinate walk for every
    image (``image_floats`` refuses overlapping images)."""
    return as_strided(view, strides=(view.strides[4],) + view.strides[1:],
                      writeable=False)


class TestCuts:
    """Where the helper cuts, and which thread runs each part."""

    @pytest.mark.parametrize(
        "images,n_cpus,cuts",
        [
            (31, 2, [0, 31]),
            (32, 2, [0, 16, 32]),
            (33, 3, [0, 16, 33]),
            (47, 2, [0, 16, 47]),
            (48, 2, [0, 16, 48]),
            (65, 2, [0, 32, 65]),
            (100, 3, [0, 32, 64, 100]),
            (100, 1, [0, 100]),
            (0, 2, [0, 0]),
        ],
    )
    def test_parts_are_whole_blocks_and_the_rest_goes_last(
        self, images, n_cpus, cuts
    ):
        cpus, parts = cpu_list(n_cpus), []
        caller = os.sched_getaffinity(0)
        native.split_images(recorded(lambda i0, i1: None, parts), images, cpus)
        assert sorted(p[:2] for p in parts) == list(zip(cuts, cuts[1:]))
        assert os.sched_getaffinity(0) == caller
        if len(parts) == 1:
            # Inline: the caller's own thread, affinity untouched.
            assert parts[0][2] is threading.current_thread()
        else:
            for (i0, _, thread, affinity), cpu in zip(sorted(parts), cpus):
                assert thread is not threading.current_thread()
                assert affinity == {cpu}, (i0, cpu)

    def test_one_part_per_whole_block_at_most(self):
        assert native.cores().lanes() == LANES == 16
        for images in range(0, 4 * LANES + 1):
            parts = []
            native.split_images(
                recorded(lambda i0, i1: None, parts), images, cpu_list(3)
            )
            assert len(parts) == max(1, min(3, images // LANES))

    def test_an_error_in_one_part_reaches_the_caller_after_every_part(self):
        done = []

        def call(i0, i1):
            if i0 == 0:
                raise ValueError(f"part at {i0}")
            time.sleep(0.2)
            done.append(i0)

        with pytest.raises(ValueError, match="part at 0"):
            native.split_images(call, 2 * LANES, cpu_list(2))
        assert done == [LANES]
        # The workers survive: the next split runs both parts.
        parts = []
        native.split_images(
            recorded(lambda i0, i1: None, parts), 2 * LANES, cpu_list(2)
        )
        assert sorted(p[:2] for p in parts) == [(0, 16), (16, 32)]


class TestSplitBits:
    """``k_conv`` run part by part equals its whole-batch call bitwise."""

    @pytest.mark.parametrize("in_ports,k", GEOMETRIES)
    @pytest.mark.parametrize("images", SPLIT_COUNTS)
    def test_split_equals_one_part(self, monkeypatch, images, in_ports, k):
        # TestConvImageWalk's draw: 3x4 coordinates, two groups, tanh.
        actor, views, _ = make_case(
            in_ports, 2, k, images * 12, "tanh",
            seed=images * 16 + in_ports * 4 + k, images=images,
        )
        walks = {
            "image": views,
            "coordinate": {p: overlapping(v) for p, v in views.items()},
        }
        for walk, ins in walks.items():
            whole = k_conv(actor, ins)
            for n in (1, 2, 3):
                parts = []
                monkeypatch.setattr(
                    native, "split_images", split_on(cpu_list(n), parts)
                )
                out = by_parts(actor, ins)
                assert len(parts) == max(1, min(n, images // LANES))
                assert sorted(out) == sorted(whole)
                for port, arr in whole.items():
                    assert np.array_equal(bits(out[port]), bits(arr)), (
                        walk, n, port,
                    )


def test_many_callers_share_one_worker_per_cpu(monkeypatch):
    # Six threads, more than the CPUs, split 48-image calls at once from an
    # empty worker table, with the interpreter switching threads as often
    # as it can: every output keeps its bits, and each CPU gets one worker
    # thread (a lost update of the table would start a second).
    cpus = cpu_list(2)
    cases = [
        make_case(2, 1, 3, 48 * 12, "tanh", seed=s, images=48) for s in range(6)
    ]
    want = []
    for actor, views, _ in cases:
        monkeypatch.setattr(native, "split_images", split_on(cpus[:1], []))
        want.append(by_parts(actor, views)["out0"])
    monkeypatch.setattr(native, "split_images", split_on(cpus, []))
    monkeypatch.setattr(native, "_workers", {})
    before = threading.active_count()
    start = threading.Barrier(len(cases))
    got = [[] for _ in cases]

    def run(i):
        actor, views, _ = cases[i]
        start.wait()
        for _ in range(5):
            got[i].append(by_parts(actor, views)["out0"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        workers = dict(native._workers)
        for pool in workers.values():
            pool.shutdown()
    assert not any(t.is_alive() for t in threads)
    assert sorted(workers) == sorted(set(cpus))
    # Shut down, the table's workers leave no thread; a lost one would.
    assert threading.active_count() == before
    for outs, arr in zip(got, want):
        assert len(outs) == 5
        for out in outs:
            assert np.array_equal(bits(out), bits(arr))


def tc2_digest(images):
    """The digest of one compiled TC2 op of ``images`` images, seed 1."""
    design = cifar10_design()
    built = build_network(
        design, random_weights(design, 1), seeded_batch(design, 1, images)
    )
    built.run(scheduler="compiled")
    return stable_digest(built.outputs())


def send_digest(conn):
    conn.send(tc2_digest(64))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fork start method")
def test_a_forked_child_runs_a_split_op(monkeypatch):
    # The parent cuts a b64 op, so its workers exist; a fork-context
    # child inherits their inboxes but not their threads, and must make
    # its own to cut the same op (two parts; a one-CPU host repeats its
    # CPU).
    monkeypatch.setattr(
        native, "split_images",
        functools.partial(SPLIT, cpus=cpu_list(2)),
    )
    want = tc2_digest(64)
    assert native._workers
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=send_digest, args=(send,))
    child.start()
    send.close()
    child.join(20)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's compiled op did not finish in 20 s")
    assert child.exitcode == 0
    assert recv.poll(0) and recv.recv() == want


def test_one_cpu_starts_no_thread():
    # A child process pinned to one CPU of the set: a b64 op splits
    # nothing, starts no thread and gives the digest of the split op here.
    code = (
        "import os, threading\n"
        f"os.sched_setaffinity(0, {{{CPUS[0]}}})\n"
        "from tests.compiled.test_split_images import tc2_digest\n"
        "before = threading.active_count()\n"
        "digest = tc2_digest(64)\n"
        "print(digest, before, threading.active_count())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
        )),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    digest, before, after = proc.stdout.split()
    assert before == after == "1"
    assert digest == tc2_digest(64)


class TestCyclicPhase:
    """A demux or interleave part starts at the schedule's phase where its
    first image starts: 4 beats an image against a period of 3, so a part
    from image 1 starts at phase 1."""

    def test_demux_part_equals_its_beats_of_the_whole_call(self):
        actor = ScheduleDemux("demux", n_outputs=3)
        arr = np.arange(4 * 4, dtype=np.float32)
        whole = k_demux(actor, {"in": arr})
        dst = np.arange(len(arr)) % 3
        part = k_demux(actor, {"in": arr[4:12]}, Part(1, 3, 4, {}))
        for i in range(3):
            assert np.array_equal(part[f"out{i}"], arr[4:12][dst[4:12] == i])
            assert np.isin(part[f"out{i}"], whole[f"out{i}"]).all()

    def test_interleave_part_equals_its_beats_of_the_whole_call(self):
        actor = Interleaver("widen", n_inputs=3)
        arr = np.arange(4 * 4, dtype=np.float32)
        src = np.arange(len(arr)) % 3
        beats = arr[4:12]
        ins = {f"in{i}": beats[src[4:12] == i] for i in range(3)}
        got = k_interleave(actor, ins, Part(1, 3, 4, {}))["out"]
        assert np.array_equal(got, beats)
        whole = {f"in{i}": arr[src == i] for i in range(3)}
        assert np.array_equal(k_interleave(actor, whole)["out"], arr)


#: Every kernel type in a cut run: tiny's interleaver (and its softmax,
#: normalized), usps over two devices (demux and link actors), blocked
#: designs (split and merge, tiles counted as images), and the zoo pilots.
RUN_DESIGNS = {
    "tiny": (tiny_design, {}),
    "tiny-normalized": (tiny_design, {"normalize": True}),
    "tiny-blocked": (lambda: tiny_design().with_blocking(2), {}),
    "usps": (usps_design, {}),
    "usps-2-devices": (
        usps_design, {"multi_plan": lambda d: plan_split(d, 2)}
    ),
    "cifar10": (cifar10_design, {}),
    "alexnet-pilot": (alexnet_pilot_design, {}),
    "alexnet-pilot-blocked": (
        lambda: alexnet_pilot_design().with_blocking({"conv1": 4, "conv2": 3}),
        {},
    ),
    "vgg16-pilot": (vgg16_pilot_design, {}),
}

#: Around whole blocks of 16: below two (17, 31), two with no, 1 and 16
#: more (32, 33, 48), four, and six with a remainder of 4.
RUN_COUNTS = [17, 31, 32, 33, 48, 64, 100]


@functools.lru_cache(maxsize=None)
def run_case(name, images):
    """The design, its build arguments, its weights and a seeded batch."""
    make, kwargs = RUN_DESIGNS[name]
    design = make()
    kwargs = {k: v(design) if callable(v) else v for k, v in kwargs.items()}
    return design, kwargs, random_weights(design, 1), seeded_batch(design, 1, images)


def cut_run(monkeypatch, name, images, cpus, parts=None):
    """One compiled run cut over ``cpus``: its ``(cycles, digest,
    actor_stats, channel_stats)`` as JSON."""
    design, kwargs, weights, batch = run_case(name, images)
    monkeypatch.setattr(
        native, "split_images", split_on(cpus, [] if parts is None else parts)
    )
    built = build_network(design, weights, batch, **kwargs)
    result = built.run(scheduler="compiled")
    return json.dumps([
        result.cycles, stable_digest(built.outputs()), result.actor_stats,
        result.channel_stats,
    ], sort_keys=True)


class TestRunBits:
    """A cut run equals the one-part run (``cpus=[0]``) bit for bit."""

    @pytest.mark.parametrize("images", RUN_COUNTS)
    @pytest.mark.parametrize("name", sorted(RUN_DESIGNS))
    def test_cut_run_equals_one_part(self, monkeypatch, name, images):
        one = []
        want = cut_run(monkeypatch, name, images, CPUS[:1], one)
        assert [p[:2] for p in one] == [(0, images)]
        for n in (2, 3):
            parts = []
            assert cut_run(monkeypatch, name, images, cpu_list(n), parts) == want
            assert len(parts) == max(1, min(n, images // LANES))


def test_the_two_argument_replay_gives_the_runs_digest():
    # The ledger's traced replay calls KERNELS[type(actor)](actor, ins) over
    # schedule.order on the whole batch, never a Part: that call must keep
    # giving the compiled run's digest, which a 64-image run cuts.
    design = cifar10_design()
    weights, batch = random_weights(design, 1), seeded_batch(design, 1, 64)
    run = build_network(design, weights, batch)
    run.run(scheduler="compiled")
    built = build_network(design, weights, batch)
    actors = built.graph.actors
    channels = list(built.graph.channels.values())
    schedule = extract_schedule(list(actors.values()), channels, design)
    in_ports, out_ports = port_maps(list(actors.values()), channels)
    streams = {}
    for name in schedule.order:
        actor = actors[name]
        ins = {port: streams[c] for port, c in in_ports[name].items()}
        for port, arr in KERNELS[type(actor)](actor, ins).items():
            streams[out_ports[name][port]] = arr
    assert stable_digest(built.outputs()) == stable_digest(run.outputs())


def test_an_expect_in_one_part_reaches_the_caller_after_both_parts(monkeypatch):
    # The first part's first FC core gets one beat short and refuses; the
    # second part runs on to its end, and only then does the refusal reach
    # the caller, with nothing handed to the sink.
    monkeypatch.setattr(
        native, "split_images", functools.partial(SPLIT, cpus=cpu_list(2))
    )
    k_fc, done = kernels.k_fc, []

    def short_first_part(actor, ins, part=None):
        if part is not None and part.i0 == 0:
            return k_fc(actor, {"in": ins["in"][:-1]}, part)
        time.sleep(0.2)
        done.append(part.i0)
        return k_fc(actor, ins, part)

    monkeypatch.setitem(KERNELS, FCCoreActor, short_first_part)
    design = cifar10_design()
    built = build_network(
        design, random_weights(design, 1), seeded_batch(design, 1, 64)
    )
    with pytest.raises(
        CompilationError, match="fc1.*: in carries 28799 beats, schedule expects 28800"
    ):
        built.run(scheduler="compiled")
    assert done == [2 * LANES] * 2  # both FC cores of the second part
    assert len(built.sink.received) == 0 and built.result is None
