"""Randomized restartable-exception scenarios beyond DTLB misses.

The seed machine's exception story is built around one cause (the DTLB
miss) plus instruction emulation.  This package composes *all* the
restartable causes -- ITLB misses, unaligned-access fixups, emulated
instructions (``brev``/``swint``), software interrupts -- into seeded,
reproducible stress scenarios and runs them across every exception
mechanism with a digest oracle and Table-3-style
per-cause cycle attribution.  See ``docs/SCENARIOS.md``.
"""

from repro.scenarios.runner import (
    MechanismRun,
    ScenarioResult,
    run_matrix,
    run_scenario,
)
from repro.scenarios.spec import (
    MIX_STYLES,
    SCENARIO_CAUSES,
    ScenarioSpec,
    build_scenario_program,
    generate_matrix,
)

__all__ = [
    "MechanismRun",
    "MIX_STYLES",
    "SCENARIO_CAUSES",
    "ScenarioResult",
    "ScenarioSpec",
    "build_scenario_program",
    "generate_matrix",
    "run_matrix",
    "run_scenario",
]
