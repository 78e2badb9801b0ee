"""Regenerate the golden kernel table (tests/golden/kernel.json).

The table pins the cycle kernel bit for bit: for every mechanism on
every suite workload, and for every mechanism on every spec of the
quick scenario matrix, it records the cycle count, a hash of the
architectural state (:func:`repro.faults.fuzz.arch_digest`) and the
full :meth:`SimStats.as_dict` counter set.  ``test_kernel_golden.py``
recomputes it and demands equality.

Run after an intentional timing-model change::

    PYTHONPATH=src python -m tests.checkpoint.make_kernel_golden

The committed table was first written while the simulator still carried
a second, fused cycle kernel; both kernels agreed on every row before
the fused one was deleted, so the table is the bit-identity proof that
replaced the two-kernel comparison tests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.faults.fuzz import arch_digest
from repro.sim.config import MECHANISMS, MachineConfig
from repro.sim.simulator import Simulator
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

OUT = Path(__file__).resolve().parent.parent / "golden" / "kernel.json"

USER_INSTS = 2_000
WARMUP_INSTS = 500
IDLE_THREADS = 1
#: The quick scenario matrix's base seed (the CI scenario job's seed).
SCENARIO_SEED = 1999


def _row(cycles: int, digest: tuple, stats: dict) -> dict:
    # A JSON round trip, so a fresh row compares equal to a loaded one.
    return json.loads(json.dumps({
        "cycles": cycles,
        "arch_digest": hashlib.sha256(repr(digest).encode()).hexdigest(),
        "stats": stats,
    }))


def suite_rows() -> dict[str, dict]:
    """Every mechanism on every suite workload, one simulator each."""
    rows = {}
    for workload in BENCHMARK_NAMES:
        for mechanism in MECHANISMS:
            sim = Simulator(
                build_benchmark(workload),
                MachineConfig(mechanism=mechanism, idle_threads=IDLE_THREADS),
            )
            result = sim.run(user_insts=USER_INSTS, warmup_insts=WARMUP_INSTS)
            rows[f"{workload}/{mechanism}"] = _row(
                result.cycles, arch_digest(sim), result.stats.as_dict()
            )
    return rows


def scenario_rows() -> dict[str, dict]:
    """Every mechanism on every spec of the quick scenario matrix."""
    from repro.scenarios.runner import DEFAULT_MAX_CYCLES, _run_one
    from repro.scenarios.spec import build_scenario_program, generate_matrix

    rows = {}
    for spec in generate_matrix(SCENARIO_SEED, quick=True):
        program = build_scenario_program(spec)
        for mechanism in MECHANISMS:
            run = _run_one(
                spec, program.source, program.regions, mechanism,
                DEFAULT_MAX_CYCLES,
            )
            if not run.ok:
                raise RuntimeError(
                    f"{spec.name}/{mechanism}: {run.reason}: {run.detail}"
                )
            rows[f"{spec.name}/{mechanism}"] = _row(
                run.cycles, run.digest, run.stats
            )
    return rows


def kernel_table() -> dict:
    return {
        "user_insts": USER_INSTS,
        "warmup_insts": WARMUP_INSTS,
        "idle_threads": IDLE_THREADS,
        "scenario_seed": SCENARIO_SEED,
        "suite": suite_rows(),
        "scenarios": scenario_rows(),
    }


def dump(table: dict) -> str:
    """The table as JSON with one row per line, so a diff names the
    rows that moved."""
    parts = []
    for name, value in sorted(table.items()):
        if isinstance(value, dict):
            rows = ",\n".join(
                f"  {json.dumps(key)}: {json.dumps(row, sort_keys=True)}"
                for key, row in sorted(value.items())
            )
            value = f"{{\n{rows}\n }}"
        else:
            value = json.dumps(value)
        parts.append(f" {json.dumps(name)}: {value}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> None:
    table = kernel_table()
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(dump(table))
    print(f"{OUT}: {len(table['suite']) + len(table['scenarios'])} rows")


if __name__ == "__main__":
    main()
