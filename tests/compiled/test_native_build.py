"""Building, caching and refusing the conv and FC kernels' C object.

The object is built by ``cc`` on first use, cached under a name that
hashes the source and the object's own bytes, and loaded once per
process. A host that cannot build it runs the compiled engine's designs
on the event engine, with the same digests.
"""

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.compiled import CompiledFallbackWarning, native
from repro.compiled.kernels import k_conv, k_fc
from repro.core import (
    FCLayerSpec,
    NetworkDesign,
    cifar10_design,
    random_weights,
    tiny_design,
)
from repro.core.builder import build_network, seeded_batch
from repro.dataflow import stable_digest
from repro.errors import CompilationError
from tests.compiled.test_kernels_conv import bits, make_case
from tests.compiled.test_kernels_fc import make_case as make_fc_case


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
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)
        want.run(scheduler="compiled")
    monkeypatch.setattr(native, "_loaded", None)
    monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
    monkeypatch.setattr(native, "_find_compiler", lambda: None)
    built = build_network(design, weights, batch)
    with pytest.warns(CompiledFallbackWarning, match="no C compiler: 'cc'"):
        got = built.run(scheduler="compiled")
    assert got.scheduler_stats["scheduler"] == "event"
    assert stable_digest(built.outputs()) == stable_digest(want.outputs())
    # The refusal is remembered, and both kernels refuse the same way.
    actor, views, _ = make_case(1, 1, 3, 32, None)
    with pytest.raises(CompilationError, match="no C compiler"):
        k_conv(actor, views)
    fc, x = make_fc_case(29, 12, 2)
    with pytest.raises(CompilationError, match="no C compiler"):
        k_fc(fc, {"in": x.reshape(-1)})


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
