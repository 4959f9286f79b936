"""A run holds only what it is still using.

Ownership of a run is one-directional (``BuiltNetwork -> graph -> actors /
channels``, ``Simulator -> engine -> actors / channels / processes``), and
the one end-of-life step (``repro.dataflow.scheduler._end_of_life``) drops
the hooks a running engine hangs on channels and gates. A simulation runs
once, so a run that finished, raised or was stopped (``until=``) is over,
and is freed by reference count, with the cycle collector switched off,
the moment its last owner lets go of it.
"""

import gc
import json
import types
import weakref

import pytest

from repro.core import cifar10_design, random_weights, tiny_design, usps_design
from repro.core.builder import build_network, seeded_batch
from repro.core.compute_core import ConvCoreActor
from repro.errors import DeadlockError, SimulationError
from repro.faults import FaultScenario, FifoShrink, arm_faults
from repro.faults.harness import resolve_shrink, run_design
from tests.dataflow.test_golden_timing import CASES, GOLDEN

DESIGNS = {"tiny": tiny_design, "usps": usps_design, "cifar10": cifar10_design}
ENGINES = ("event", "lockstep", "compiled")
#: Capacity 1 on a chain FIFO that `capacity_one_jams` proves too shallow.
SHRINK = FaultScenario("shrink", (FifoShrink(),))


def build(name, images=2, **kwargs):
    design = DESIGNS[name]()
    return build_network(
        design, random_weights(design, 0), seeded_batch(design, 0, images),
        **kwargs,
    )


@pytest.fixture
def no_collector():
    """Cycle collector off, earlier tests' garbage out of the way."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def cyclic_garbage():
    """What only the collector could free, right now, ours or a generator.

    ``design_digest`` serialises with ``json`` at ``indent=0``, whose
    pure-Python encoder is a knot of closures; those are the stdlib's.
    """
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return [
        o for o in found
        if isinstance(o, types.GeneratorType)
        or type(o).__module__.split(".")[0] == "repro"
    ]


def a_core(graph):
    return next(a for a in graph.actors.values() if type(a) is ConvCoreActor)


def finished_run(name, scheduler):
    """Weakrefs into two finished runs, every strong reference dropped."""
    built = build(name)
    result = built.run(scheduler=scheduler)
    assert result.finished and built.outputs().shape[0] == 2
    direct = build(name)
    sim = direct.graph.build_simulator(scheduler=scheduler)
    assert sim.run().finished
    return {
        "built": weakref.ref(built),
        "graph": weakref.ref(built.graph),
        "channel": weakref.ref(next(iter(built.graph.channels.values()))),
        "core": weakref.ref(a_core(built.graph)),
        "simulator": weakref.ref(sim),
        "simulator's core": weakref.ref(a_core(direct.graph)),
    }


@pytest.mark.parametrize("scheduler", ENGINES)
@pytest.mark.parametrize("name", list(DESIGNS))
def test_finished_run_is_freed_without_the_collector(no_collector, name, scheduler):
    finished_run(name, scheduler)  # plan cache, lazy imports, module tables
    gc.collect()
    refs = finished_run(name, scheduler)
    alive = [what for what, ref in refs.items() if ref() is not None]
    assert not alive, f"still alive with no owner: {alive}"
    left = cyclic_garbage()
    assert not left, f"left to the collector: {[type(o).__name__ for o in left]}"


@pytest.mark.parametrize("scheduler", ["event", "lockstep"])
def test_deadlocked_run_is_freed_without_the_collector(no_collector, scheduler):
    def jam():
        built = build("tiny", images=1, memory_system="literal")
        scenario = resolve_shrink(SHRINK, built.graph)
        armed = arm_faults(built.graph, scenario, 0)
        try:
            built.run(scheduler=scheduler, stall_limit=200, faults=armed)
        except DeadlockError as err:
            assert err.channels
        else:
            pytest.fail("a capacity-1 shrink of a jamming FIFO finished")
        return weakref.ref(built.graph), weakref.ref(a_core(built.graph))

    jam()
    gc.collect()
    graph, core = jam()
    assert graph() is None and core() is None
    assert not cyclic_garbage()


def test_harness_outcome_of_a_deadlock_is_freed_with_its_run(no_collector):
    """``RunOutcome.deadlock`` keeps the report, not the raising frames."""
    def jam():
        outcome = run_design(
            tiny_design(), images=1, scenario=SHRINK,
            memory_system="literal", stall_limit=200,
        )
        assert outcome.deadlock is not None and outcome.deadlock.channels
        return weakref.ref(outcome.built.graph)

    jam()
    gc.collect()
    assert jam()() is None
    assert not cyclic_garbage()


@pytest.mark.parametrize("scheduler", ["event", "lockstep"])
@pytest.mark.parametrize("name", ["tiny", "cifar10"])
def test_stopped_run_is_freed_without_the_collector(no_collector, name, scheduler):
    """An ``until`` stop ends the run: its live generators go with it."""
    recorded = json.loads(GOLDEN.read_text())["designs"][name]["cycles"]

    def stop():
        built = build(name, images=CASES[name][1])
        sink = built.sink
        half = sink.count // 2
        sim = built.graph.build_simulator(scheduler=scheduler)
        stopped = sim.run(until=lambda: len(sink.received) >= half)
        assert not stopped.finished and 0 < stopped.cycles < recorded
        return weakref.ref(built.graph), weakref.ref(a_core(built.graph))

    stop()
    gc.collect()
    graph, core = stop()
    assert graph() is None and core() is None
    assert not cyclic_garbage()


@pytest.mark.parametrize("scheduler", ENGINES)
def test_a_simulator_runs_once(scheduler):
    sim = build("tiny").graph.build_simulator(scheduler=scheduler)
    assert sim.run().finished
    with pytest.raises(SimulationError, match="already run"):
        sim.run()
