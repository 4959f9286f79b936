"""Building, caching and refusing the conv and FC kernels' C object.

The object is built by ``cc`` on first use, for this host's instruction
set only, cached under a name that hashes the source, the flags and the
object's own bytes, and loaded once per process. A host that cannot
build it refuses the compiled engine's designs with a
:class:`CompilationError` that names the compiler; the event engine
still runs them.
"""

import ctypes
import os
import platform
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.compiled import native
from repro.compiled.kernels import k_conv, k_fc, k_pool, k_window
from repro.config import DTYPE
from repro.core import (
    FCLayerSpec,
    NetworkDesign,
    cifar10_design,
    random_weights,
    tiny_design,
)
from repro.core.builder import build_network, seeded_batch
from repro.core.pool_core import PoolCoreActor
from repro.dataflow import stable_digest
from repro.errors import CompilationError
from repro.sst import WindowSpec
from tests.compiled.test_kernels_conv import bits, make_case
from tests.compiled.test_kernels_fc import make_case as make_fc_case
from tests.compiled.test_kernels_window_pool import window_case


@pytest.fixture
def cold(monkeypatch, tmp_path):
    """An empty cache, nothing loaded, and a count of compiler runs."""
    monkeypatch.setattr(native, "_loaded", None)
    monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
    builds = []
    compile_ = native._compile

    def counted(compiler, out):
        builds.append(out)
        compile_(compiler, out)

    monkeypatch.setattr(native, "_compile", counted)
    return tmp_path, builds


def cached(cache):
    return sorted(cache.glob("cores.*.so"))


def fc_only_design():
    """No conv core: the object is still needed, for the FC cores."""
    return NetworkDesign(
        "fc-only",
        input_shape=(16, 1, 1),
        specs=[
            FCLayerSpec(name="fc1", in_fm=16, out_fm=8, activation="tanh"),
            FCLayerSpec(name="fc2", in_fm=8, out_fm=4),
        ],
    )


@pytest.mark.parametrize(
    "design_fn", [tiny_design, cifar10_design, fc_only_design]
)
def test_no_compiler_falls_back_to_event(monkeypatch, tmp_path, design_fn):
    design = design_fn()
    weights = random_weights(design, 3)
    batch = seeded_batch(design, 3, 2)
    want = build_network(design, weights, batch)
    want.run(scheduler="compiled")
    monkeypatch.setattr(native, "_loaded", None)
    monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
    monkeypatch.setattr(native, "_find_compiler", lambda: None)
    refused = build_network(design, weights, batch)
    with pytest.raises(CompilationError, match="no C compiler: 'cc'"):
        refused.run(scheduler="compiled")
    assert refused.result is None
    # The interpreted run needs no compiler and gives the same digest.
    event = build_network(design, weights, batch)
    event.run(scheduler="event")
    assert stable_digest(event.outputs()) == stable_digest(want.outputs())
    # The refusal is remembered, and every kernel refuses the same way.
    actor, views, beats = make_case(1, 1, 3, 32, None)
    with pytest.raises(CompilationError, match="no C compiler"):
        k_conv(actor, views)
    fc, x = make_fc_case(29, 12, 2)
    with pytest.raises(CompilationError, match="no C compiler"):
        k_fc(fc, {"in": x.reshape(-1)})
    pool = PoolCoreActor("pool", "max", count=len(beats["in0"]))
    with pytest.raises(CompilationError, match="no C compiler"):
        k_pool(pool, {"in": views["in0"]})


def test_failed_build_is_a_compilation_error(cold, monkeypatch):
    cache, builds = cold
    monkeypatch.setattr(native, "FLAGS", native.FLAGS + ("-fno-such-flag",))
    with pytest.raises(CompilationError, match="could not build cores.c"):
        native.cores()
    with pytest.raises(CompilationError, match="could not build"):
        native.cores()
    assert len(builds) == 1
    assert not list(cache.iterdir())  # no object, no temporary left behind


def test_cold_cache_builds_once_and_a_second_process_loads_it(cold):
    cache, builds = cold
    start = threading.Barrier(4)
    loaded = []

    def first_use():
        start.wait()
        loaded.append(native.cores())

    threads = [threading.Thread(target=first_use) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert len(builds) == 1 and all(got is loaded[0] for got in loaded)
    assert len(cached(cache)) == 1
    # A second process with no compiler at all finds the object and runs.
    script = (
        "import pathlib, sys\n"
        "from repro.compiled import native\n"
        f"native._cache_dir = lambda: pathlib.Path({str(cache)!r})\n"
        "native._find_compiler = lambda: sys.exit('looked for a compiler')\n"
        "print(native.cores().fc_scratch(64, 12))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(loaded[0].fc_scratch(64, 12))]
    assert len(builds) == 1 and len(cached(cache)) == 1


def test_truncated_object_is_rebuilt_not_loaded(cold, monkeypatch):
    cache, builds = cold
    actor, views, _ = make_case(2, 1, 3, 40, "relu")
    want = k_conv(actor, views)
    (path,) = cached(cache)
    data = path.read_bytes()
    # A new file under the same name: the loaded object's pages stay
    # mapped from the old one.
    path.unlink()
    path.write_bytes(data[: len(data) // 2])
    monkeypatch.setattr(native, "_loaded", None)
    got = k_conv(actor, views)
    assert len(builds) == 2
    for p in cached(cache):
        assert p.name.split(".")[2] == native._digest(p.read_bytes())
    assert np.array_equal(bits(got["out0"]), bits(want["out0"]))


def test_read_only_package_builds_in_a_private_directory(monkeypatch):
    monkeypatch.setattr(native.os, "access", lambda path, mode: False)
    private = native._cache_dir()
    assert private.name.startswith("repro-cores-")
    assert private.stat().st_mode & 0o777 == 0o700


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64"),
    reason="-mavx512f is an x86-64 flag",
)
def test_each_instruction_set_is_its_own_object(cold, monkeypatch):
    cache, builds = cold
    # The host's flags are the baseline set plus its own choice, nothing
    # or -mavx512f. Here both choices are built at -O0, which keeps each
    # build under a second: the instruction set is all that differs.
    base = tuple(
        "-O0" if flag == "-O3" else flag
        for flag in native.FLAGS if flag != "-mavx512f"
    )
    assert native.FLAGS == (
        tuple("-O3" if flag == "-O0" else flag for flag in base) + native._isa()
    )
    choices = ((), ("-mavx512f",))
    keys, objects = [], []
    for isa in choices:
        monkeypatch.setattr(native, "FLAGS", base + isa)
        monkeypatch.setattr(native, "_loaded", None)
        native.cores()
        keys.append(native._key())
        (path,) = cache.glob(f"cores.{keys[-1]}.*.so")
        objects.append(path.read_bytes())
    assert len(builds) == 2 and len(cached(cache)) == 2
    assert keys[0] != keys[1] and objects[0] != objects[1]
    # A second process with the same choice and no compiler at all finds
    # that choice's object. (It only loads it: this host may not run it.)
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    for isa, key in zip(choices, keys):
        script = (
            "import pathlib, sys\n"
            "from repro.compiled import native\n"
            f"native.FLAGS = {base + isa!r}\n"
            f"native._cache_dir = lambda: pathlib.Path({str(cache)!r})\n"
            "native._find_compiler = lambda: sys.exit('looked for a compiler')\n"
            "native.cores()\n"
            "print(native._key())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [key]
    assert len(builds) == 2 and len(cached(cache)) == 2


def raw_max_pool(cores, view):
    """``cores.max_pool`` over a window view, as ``k_pool`` calls it, but
    without the numpy pass that settles a zero maximum afterwards."""
    strides = np.array(view.strides, dtype=np.int64)
    geometry = (strides.ctypes.data, *view.shape)
    scratch = np.empty(cores.pool_scratch(*geometry), DTYPE)
    out = np.empty(view.shape[:4], DTYPE)
    cores.max_pool(
        view.ctypes.data, *geometry, out.ctypes.data, scratch.ctypes.data
    )
    return out


def test_the_baseline_object_computes_the_hosts_bits(monkeypatch, tmp_path):
    """The baseline instruction set's object, built at ``-O0`` as above,
    runs ``conv_tree``, ``fc_chains`` and ``max_pool`` to the bits of the
    object this host loads (every NaN one value): on an AVX-512 host the
    variant CI only compiles otherwise. Conv: TC2's two layers and trees
    of K = 9, 25 and 121 over 17 images (both walks) and as beat stacks,
    and TestConvSpecialValues' draw; FC: TC2's two layers; max pool:
    TC2's two windows over tie-heavy pixels."""
    host = native.cores()
    monkeypatch.setattr(native, "FLAGS", tuple(
        "-O0" if flag == "-O3" else flag
        for flag in native.FLAGS if flag != "-mavx512f"
    ))
    monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
    monkeypatch.setattr(native, "_loaded", None)
    baseline = native.cores()
    assert baseline is not host

    def both(kernel, actor, ins):
        outs = []
        for cores in (host, baseline):
            monkeypatch.setattr(native, "_loaded", cores)
            outs.append(kernel(actor, ins))
        assert sorted(outs[0]) == sorted(outs[1])
        for port, arr in outs[0].items():
            assert np.array_equal(bits(outs[1][port]), bits(arr)), actor.name

    conv_cases = [
        # TC2 conv1 and conv2: 28x28 and 10x10 coordinates, K = 25.
        make_case(1, 1, 5, 17 * 784, "tanh", groups=3, out_fm=12, images=17),
        make_case(1, 1, 5, 17 * 100, "tanh", groups=12, out_fm=36, images=17),
    ] + [
        make_case(1, 1, k, 17 * 4, "relu", seed=k, groups=3, images=17)
        for k in (3, 5, 11)
    ] + [
        make_case(
            2, 2, 3, 32 * 6, None, seed=s, images=32,
            special={"pixels": 0.3, "weights": 0.3, "bias": 0.3},
        )
        for s in (1, 2)
    ]
    with np.errstate(invalid="ignore"):
        for actor, views, beats in conv_cases:
            both(k_conv, actor, views)
            both(k_conv, actor, beats)
    for in_fm, out_fm in ((900, 64), (64, 10)):
        fc, x = make_fc_case(in_fm, 12, 17, out_fm=out_fm)
        both(k_fc, fc, {"in": x.reshape(-1)})
    rng = np.random.default_rng(0)
    for h, group in ((28, 12), (10, 36)):
        win, px = window_case(WindowSpec(2, 2, stride=2), h, h, group, 4, rng,
                              ties=True)
        view = k_window(win, {"in": px})["out"]
        want, got = (raw_max_pool(cores, view) for cores in (host, baseline))
        assert np.array_equal(bits(got), bits(want))


def test_every_export_declares_its_c_prototype():
    """A ctypes function without ``argtypes`` passes each Python int as a
    C ``int``, so a 64-bit pointer or count would arrive cut to 32 bits,
    and its default ``restype`` is ``int``. Every function ``cores()``
    exposes declares the argument and result types of its prototype in
    ``cores.c`` (a pointer is ``c_void_p``, an ``int64_t`` ``c_int64``),
    and every function ``cores.c`` exports is exposed."""
    prototypes = {
        name: (result, params.split(","))
        for result, name, params in re.findall(
            r"^(void|int64_t) (\w+)\(([^)]*)\)", native.SOURCE.read_text(), re.M
        )
    }
    exposed = vars(native.cores())
    assert set(exposed) == set(prototypes)
    for name, fn in exposed.items():
        result, params = prototypes[name]
        assert fn.restype is (None if result == "void" else ctypes.c_int64)
        assert fn.argtypes is not None, name
        assert list(fn.argtypes) == [
            ctypes.c_void_p if "*" in p else ctypes.c_int64 for p in params
        ], name
