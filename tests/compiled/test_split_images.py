"""``k_conv`` runs a call's images on every CPU, and no bit moves.

:func:`repro.compiled.native.split_images` cuts the images of one call at
whole blocks of ``lanes()`` (16) images, one part per CPU and at most one
per whole block, the images past the last whole block in the last part,
and runs each part on a worker thread pinned to its CPU while the caller
waits; with one part it runs the call inline. ``k_conv`` gives each part
its own scratch and its own rows of the output. Each image's trees, group
chains and walk do not depend on the other images, so a split call must
equal one part bit for bit, on both walks, whatever the CPU list. The
tests pass CPU lists of one, two and three entries, drawn from this
process's affinity set (repeated where it has fewer CPUs), so they split
on a one-CPU host too.
"""

import functools
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

from repro.compiled import native
from repro.compiled.kernels import k_conv
from repro.core import cifar10_design, random_weights
from repro.core.builder import build_network, seeded_batch
from repro.dataflow import stable_digest
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
    """A split ``k_conv`` call equals one part of the same call bitwise."""

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
            outs = {}
            for n in (1, 2, 3):
                parts = []
                monkeypatch.setattr(
                    native, "split_images", split_on(cpu_list(n), parts)
                )
                outs[n] = k_conv(actor, ins)
                assert len(parts) == max(1, min(n, images // LANES))
            for n in (2, 3):
                assert sorted(outs[n]) == sorted(outs[1])
                for port, arr in outs[1].items():
                    assert np.array_equal(bits(outs[n][port]), bits(arr)), (
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
        want.append(k_conv(actor, views)["out0"])
    monkeypatch.setattr(native, "split_images", split_on(cpus, []))
    monkeypatch.setattr(native, "_workers", {})
    before = threading.active_count()
    start = threading.Barrier(len(cases))
    got = [[] for _ in cases]

    def run(i):
        actor, views, _ = cases[i]
        start.wait()
        for _ in range(5):
            got[i].append(k_conv(actor, views)["out0"])

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
    # The parent splits a b64 op, so its workers exist; a fork-context
    # child inherits their executors but not their threads, and must make
    # its own to split the same op (two parts; a one-CPU host repeats its
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
