"""Compiled steady-state simulation engine (``scheduler="compiled"``).

Lowers a design graph that passed the static verifier to fused,
vectorized kernels (numpy, and a C product tree for the conv cores) and
executes the whole run in one pass — bit-exact with the interpreted
engines on output values, per-process fires, measured II, and bottleneck
attribution, while running orders of magnitude faster. See DESIGN.md
section 12.
"""

from repro.compiled.engine import CompiledEngine
from repro.compiled.plan_cache import (
    CompiledPlan,
    PlanCache,
    clear_plan_cache,
    design_digest,
    plan_cache_stats,
)
from repro.errors import CompilationError

__all__ = [
    "CompiledEngine",
    "CompilationError",
    "CompiledPlan",
    "PlanCache",
    "clear_plan_cache",
    "design_digest",
    "plan_cache_stats",
]
