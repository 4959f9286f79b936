"""Deterministic fault injection for the dataflow simulator.

Public surface:

* :mod:`repro.faults.scenario` — declarative, JSON-serialisable fault
  scenarios (:class:`FaultScenario` and the five fault spec kinds);
* :mod:`repro.faults.injectors` — runtime injectors and
  :func:`arm_faults`, which wires a scenario into a built graph;
* :mod:`repro.faults.harness` — clean-vs-faulty experiments
  (:func:`faultsim`), campaigns, digests, the too-big refusal
  (:func:`simulable_design`) and explicit pilot downscales.

See DESIGN.md section 10 for the fault model and the two invariants
this package machine-checks (latency insensitivity; analyzer/simulator
deadlock agreement).
"""

from repro.faults.analytical import (
    ThrottledPerf,
    throttled_link_rate,
    throttled_perf,
)
from repro.faults.harness import (
    RunOutcome,
    faultsim,
    pilot_design,
    resolve_shrink,
    run_built,
    run_campaign,
    run_design,
    simulable_design,
)
from repro.faults.injectors import (
    ActorStallPlan,
    ArmedFaults,
    CompositeFault,
    CorruptionFault,
    JitterFault,
    ThrottleFault,
    arm_faults,
    disarm_faults,
    target_rng,
)
from repro.faults.scenario import (
    FAULT_KINDS,
    ActorSlowdown,
    BeatCorruption,
    ChannelJitter,
    DmaThrottle,
    FaultScenario,
    FifoShrink,
    load_scenario,
    preset_scenarios,
)

__all__ = [
    "FAULT_KINDS",
    "ActorSlowdown",
    "ActorStallPlan",
    "ArmedFaults",
    "BeatCorruption",
    "ChannelJitter",
    "CompositeFault",
    "CorruptionFault",
    "DmaThrottle",
    "FaultScenario",
    "FifoShrink",
    "JitterFault",
    "RunOutcome",
    "ThrottleFault",
    "ThrottledPerf",
    "arm_faults",
    "disarm_faults",
    "faultsim",
    "load_scenario",
    "pilot_design",
    "preset_scenarios",
    "resolve_shrink",
    "run_built",
    "run_campaign",
    "run_design",
    "simulable_design",
    "target_rng",
    "throttled_link_rate",
    "throttled_perf",
]
