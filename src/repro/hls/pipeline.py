"""Pipeline scheduling math: initiation interval and loop latency.

Implements Equation 4 of the paper,

    ``II = max(OUT_FM / OUT_PORTS, IN_FM / IN_PORTS)``,

plus the standard HLS pipelined-loop latency formula
``latency = depth + II * (trip_count - 1)`` used by the performance model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


def initiation_interval(
    in_fm: int, in_ports: int, out_fm: int, out_ports: int
) -> int:
    """Equation 4: the pipeline initiation interval of a compute core.

    The core must read ``IN_FM/IN_PORTS`` window groups and emit
    ``OUT_FM/OUT_PORTS`` interleaved outputs per output coordinate; the
    slower of the two bounds the interval. Port counts must divide the
    corresponding feature-map counts (the builder's interleaving assumes
    an integral group size); the result is always >= 1.
    """
    return max(*ii_bounds(in_fm, in_ports, out_fm, out_ports), 1)


def ii_bounds(
    in_fm: int, in_ports: int, out_fm: int, out_ports: int
) -> tuple:
    """The two sides of Eq. 4: ``(input bound, output bound)``.

    ``initiation_interval`` is their max; exposing both lets diagnostics
    say *which* side binds (and therefore which port count to raise).
    Port counts must divide the feature-map counts, as in
    :func:`initiation_interval`.
    """
    if in_ports < 1 or out_ports < 1:
        raise ConfigurationError(
            f"port counts must be >= 1 (got in={in_ports}, out={out_ports})"
        )
    if in_fm % in_ports:
        raise ConfigurationError(f"IN_FM {in_fm} not a multiple of IN_PORTS {in_ports}")
    if out_fm % out_ports:
        raise ConfigurationError(
            f"OUT_FM {out_fm} not a multiple of OUT_PORTS {out_ports}"
        )
    return (in_fm // in_ports, out_fm // out_ports)


@dataclass(frozen=True)
class PipelineSchedule:
    """A pipelined loop: initiation interval, pipeline depth, trip count."""

    ii: int
    depth: int
    trip_count: int

    def __post_init__(self) -> None:
        if self.ii < 1:
            raise ConfigurationError(f"II must be >= 1, got {self.ii}")
        if self.depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {self.depth}")
        if self.trip_count < 0:
            raise ConfigurationError(f"trip count must be >= 0, got {self.trip_count}")

    @property
    def latency(self) -> int:
        """Cycles from first input to last output."""
        if self.trip_count == 0:
            return 0
        return self.depth + self.ii * (self.trip_count - 1)

    @property
    def steady_interval(self) -> int:
        """Cycles between consecutive loop completions at steady state."""
        return self.ii

    def throughput(self, clock_hz: float) -> float:
        """Loop iterations per second at steady state."""
        return clock_hz / self.ii


def tree_depth(n: int) -> int:
    """Number of levels of a balanced binary reduction over ``n`` inputs."""
    if n < 1:
        raise ConfigurationError(f"tree over {n} inputs")
    return math.ceil(math.log2(n)) if n > 1 else 0
