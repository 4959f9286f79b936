"""Build, cache and load the compiled cores' C body (``cores.c``).

One object holds the kernels that run in C: the conv core's product
tree (``conv_tree``, for ``k_conv``), the FC core's interleaved lane
chains (``fc_chains``, for ``k_fc``) and the max pool's two passes
(``max_pool``, for ``k_pool``). It is built on
first use by the system C compiler ``cc``, for one instruction set, this
host's: with ``-mavx512f`` where numpy reports AVX-512F, the baseline
build elsewhere; there is no second variant and no run-time dispatch.
It is cached in this package's ``__pycache__`` (a private temporary
directory when that is read-only) as
``cores.<source key>.<object digest>.so``: the source key hashes the
source text and the flags, instruction set included, so an edited
kernel or another instruction set is never served a stale object, and
the object digest hashes the object's own bytes, so a truncated or
damaged file is deleted and rebuilt instead of loaded. A new object is
written under a temporary name and renamed into place, so concurrent
builders never expose a partial file. It is loaded with :mod:`ctypes`,
whose calls release the GIL.

:func:`split_images` runs a compiled run's images on every CPU of the
process's affinity set, cut once at whole blocks of 16 images, so each
image takes the conv walk it takes in one whole call and no bit moves;
its docstring says which runs are cut, why its worker threads are
pinned, and what a forked child (serve's replicas) does with them.

Anything that stops the object from loading — no compiler, a failed
build, an object that will not load — is a
:class:`~repro.errors.CompilationError`; the compiled engine raises it
while lowering any design with a conv or FC core (every design with a
pool has one before it), so such a host refuses ``scheduler="compiled"``
for those designs and runs them only when asked for ``"event"``.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from repro.errors import CompilationError

SOURCE = Path(__file__).with_name("cores.c")
COMPILER = "cc"


def _isa() -> tuple[str, ...]:
    """``("-mavx512f",)`` when this host runs AVX-512F, as numpy's own
    dispatch probe reports it, else ``()``: the baseline build."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        try:
            from numpy.core._multiarray_umath import __cpu_features__
        except ImportError:
            return ()
    return ("-mavx512f",) if __cpu_features__.get("AVX512F") else ()


#: ``-ffp-contract=off``: no multiply-add may be fused into one rounding.
#: Never ``-ffast-math``/``-Ofast``: besides re-associating the tree, they
#: link ``crtfastmath.o``, whose constructor sets FTZ/DAZ for the whole
#: process when the object loads, and every numpy op after it would flush
#: subnormals to zero. The last flags pick the one instruction set the
#: object is built for, this host's (:func:`_isa`).
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared") + _isa()

_lock = threading.Lock()
#: The loaded kernels (see :func:`_open`), or the message of the refusal.
_loaded = None


def cores():
    """The C kernels: ``.conv_tree``, ``.fc_chains`` and ``.max_pool``,
    and the float32 counts of the scratch each needs, ``.conv_scratch``
    (``conv_tree``'s geometry arguments: strides, ports, images, rows,
    cols, G, kh, kw, O), ``.fc_scratch(images, acc_lanes)`` and
    ``.pool_scratch`` (``max_pool``'s: strides, images, rows, cols, G,
    kh, kw); ``.lanes()`` is the image walk's block of images.

    Builds (once per cache) and loads (once per process) on first use;
    a refusal is remembered and raised again as a fresh
    :class:`~repro.errors.CompilationError`.
    """
    global _loaded
    if _loaded is None:
        with _lock:
            if _loaded is None:
                try:
                    _loaded = _load(_cache_dir())
                except CompilationError as exc:
                    _loaded = str(exc)
                except OSError as exc:
                    _loaded = f"cannot build or load {SOURCE.name}: {exc}"
    if isinstance(_loaded, str):
        raise CompilationError(_loaded)
    return _loaded


#: The split workers (:func:`split_images`): per CPU, one daemon thread
#: pinned to that CPU, made at the first split that uses it.
_workers: dict = {}
_workers_lock = threading.Lock()


def _forget_workers() -> None:
    """In a forked child: the parent's worker threads were not copied, and
    an inbox whose thread is gone would hold work forever, so the child
    makes its own workers on first use."""
    global _workers, _workers_lock
    _workers, _workers_lock = {}, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


class _Worker:
    """One daemon thread pinned to one CPU, fed through its inbox: each
    job is ``(call, i0, i1, k, outbox)``, and the thread puts ``(k, the
    exception call raised or None)`` in the job's outbox."""

    def __init__(self, cpu: int):
        import queue

        self.inbox = queue.SimpleQueue()
        self.thread = threading.Thread(
            target=self._serve, name=f"repro-cpu{cpu}", daemon=True
        )
        self.thread.start()
        # Pinned from here, so a CPU outside the affinity set raises to
        # the caller before any job is queued.
        try:
            os.sched_setaffinity(self.thread.native_id, {cpu})
        except OSError:
            self.shutdown()
            raise

    def _serve(self) -> None:
        for call, i0, i1, k, outbox in iter(self.inbox.get, None):
            try:
                call(i0, i1)
            except BaseException as exc:
                outbox.put((k, exc))
            else:
                outbox.put((k, None))
            # Until the next job, the worker holds nothing of this run.
            del call, outbox

    def shutdown(self) -> None:
        """End the thread once the jobs already in its inbox have run."""
        self.inbox.put(None)
        self.thread.join()


def _worker(cpu: int) -> _Worker:
    with _workers_lock:
        worker = _workers.get(cpu)
        if worker is None:
            worker = _workers[cpu] = _Worker(cpu)
    return worker


def split_images(call, images: int, cpus=None) -> None:
    """Run ``call(i0, i1)`` over the images ``[0, images)`` on up to one
    thread per CPU, and return when every part has run.

    The range is cut at whole blocks of ``cores().lanes()`` images, the
    conv pass's image block: one part per CPU of ``cpus`` (a list, which
    may repeat a CPU; default: this process's affinity set), at most one
    part per whole block, and the images past the last whole block in
    the last part. So a run of fewer than two blocks, or with one CPU,
    runs ``call(0, images)`` inline and starts no thread. Otherwise part
    ``k`` runs on the worker thread of ``cpus[k]``, pinned to that CPU,
    while the caller waits: unpinned, a 2-vCPU KVM guest's scheduler
    woke a second thread on the CPU that was already busy, and the parts
    ran one after the other. Only the workers are pinned, never the
    caller. The handoff is a job in the worker's inbox and a reply in an
    outbox of this call's own, so callers on several threads never take
    each other's replies. Every part runs to its end before the first
    part's exception (in part order) reaches the caller. Workers start
    at the first split, and a forked child drops its parent's
    (:func:`_forget_workers`). ``run_kernels`` is the one caller: it
    cuts a compiled run once, and each part runs the whole kernel chain
    on its own images.
    """
    if cpus is None:
        cpus = (
            sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else []
        )
    lanes = cores().lanes()
    blocks = images // lanes
    parts = min(len(cpus), blocks)
    if parts < 2:
        call(0, images)
        return
    import queue

    cuts = [k * blocks // parts * lanes for k in range(parts)] + [images]
    workers = [_worker(cpu) for cpu in cpus[:parts]]
    outbox = queue.SimpleQueue()
    for k, worker in enumerate(workers):
        worker.inbox.put((call, cuts[k], cuts[k + 1], k, outbox))
    for _, exc in sorted(outbox.get() for _ in workers):
        if exc is not None:
            raise exc


def _cache_dir() -> Path:
    cache = SOURCE.with_name("__pycache__")
    try:
        cache.mkdir(exist_ok=True)
        if os.access(cache, os.W_OK):
            return cache
    except OSError:
        pass
    import atexit
    import shutil
    import tempfile

    private = Path(tempfile.mkdtemp(prefix="repro-cores-"))
    atexit.register(shutil.rmtree, private, True)
    return private


def _find_compiler():
    import shutil

    return shutil.which(COMPILER)


def _compile(compiler: str, out: Path) -> None:
    import subprocess

    proc = subprocess.run(
        [compiler, *FLAGS, "-o", str(out), str(SOURCE)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode:
        raise CompilationError(
            f"{COMPILER!r} could not build {SOURCE.name} "
            f"(exit {proc.returncode}): {proc.stdout.strip()[-2000:]}"
        )


def _digest(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()[:16]


def _key() -> str:
    """The source key: the flags (so the instruction set), the compiler,
    the machine and the source text."""
    import platform

    return _digest(
        repr((FLAGS, COMPILER, platform.machine())).encode()
        + SOURCE.read_bytes()
    )


def _load(cache: Path):
    key = _key()
    for path in sorted(cache.glob(f"cores.{key}.*.so")):
        if path.name.split(".")[2] == _digest(path.read_bytes()):
            return _open(path)
        path.unlink(missing_ok=True)
    compiler = _find_compiler()
    if compiler is None:
        raise CompilationError(
            f"no C compiler: {COMPILER!r} is not on PATH, and the compiled "
            f"engine builds its conv, FC and pool kernels ({SOURCE.name}) "
            f"with it"
        )
    tmp = cache / f".cores.{key}.{os.getpid()}.{threading.get_ident()}.so"
    try:
        _compile(compiler, tmp)
        path = cache / f"cores.{key}.{_digest(tmp.read_bytes())}.so"
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return _open(path)


def _open(path: Path):
    import ctypes
    from types import SimpleNamespace

    try:
        lib = ctypes.CDLL(str(path))
        conv, fc, pool = lib.conv_tree, lib.fc_chains, lib.max_pool
        conv_scratch, fc_scratch = lib.conv_scratch, lib.fc_scratch
        pool_scratch, lanes = lib.pool_scratch, lib.lanes
    except (OSError, AttributeError) as exc:
        raise CompilationError(f"cannot load {path.name}: {exc}") from None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    conv.restype = fc.restype = pool.restype = None
    conv.argtypes = [ptr, ptr] + [i64] * 8 + [ptr] * 4
    fc.argtypes = [ptr, ptr] + [i64] * 4 + [ptr] * 3
    pool.argtypes = [ptr, ptr] + [i64] * 6 + [ptr] * 2
    conv_scratch.restype = fc_scratch.restype = pool_scratch.restype = i64
    conv_scratch.argtypes = [ptr] + [i64] * 8
    fc_scratch.argtypes = [i64] * 2
    pool_scratch.argtypes = [ptr] + [i64] * 6
    lanes.restype, lanes.argtypes = i64, []
    return SimpleNamespace(
        conv_tree=conv, fc_chains=fc, max_pool=pool,
        conv_scratch=conv_scratch, fc_scratch=fc_scratch,
        pool_scratch=pool_scratch, lanes=lanes,
    )
