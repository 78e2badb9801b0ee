"""Engine throughput benchmark: ``python -m repro.sim.perfbench``.

Measures simulated user-instructions per wall-clock second on the
8-benchmark suite, once per exception mechanism, and writes the results
to ``BENCH_engine.json`` (see ``benchmarks/perf/README.md`` for the
protocol and the committed reference numbers).

The protocol is deliberately modest -- short runs, best-of-N timing --
so it finishes in about a minute on one core while still being
dominated (>95%) by the cycle loop rather than setup.  Construction
(program build, page-table setup, cache prewarm) is excluded from the
timed region, and reps are isolated (fresh simulators, collected heap)
so best-of-N compares like against like.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time

from repro.sim.config import MECHANISMS, MachineConfig
from repro.sim.simulator import Simulator
from repro.workloads.suite import BENCHMARKS

#: Timed run lengths (per benchmark).
USER_INSTS = 4_000
WARMUP_INSTS = 1_000
MAX_CYCLES = 5_000_000

#: Pre-optimization engine throughput on the reference host (commit
#: 69ca06f, the growth seed), measured with this same protocol
#: interleaved against the optimized engine on one core.  Kept in the
#: output so every ``BENCH_engine.json`` records the speedup it claims.
BASELINE_IPS = {
    "perfect": 16596.3,
    "traditional": 13916.1,
    "multithreaded": 13797.6,
    "hardware": 16496.0,
    "quickstart": 12550.4,
}


def measure_mechanism(mechanism: str, reps: int) -> float:
    """Best-of-``reps`` suite throughput (user instrs/sec) for one
    mechanism.

    Reps are isolated: every rep builds fresh programs and simulators,
    and starts from a collected heap -- without the collection, garbage
    left by rep N is collector work billed to rep N+1, so best-of-N
    would quietly favour whichever rep ran first.
    """
    best = 0.0
    for _ in range(reps):
        gc.collect()
        insts = 0
        seconds = 0.0
        for name in BENCHMARKS:
            config = MachineConfig(mechanism=mechanism, idle_threads=1)
            sim = Simulator([BENCHMARKS[name].build(0)], config)
            start = time.perf_counter()
            result = sim.run(
                user_insts=USER_INSTS,
                max_cycles=MAX_CYCLES,
                warmup_insts=WARMUP_INSTS,
            )
            seconds += time.perf_counter() - start
            insts += result.retired_user
        best = max(best, insts / seconds)
    return best


def aggregate(per_mechanism: dict[str, float]) -> float:
    """Harmonic mean across mechanisms (equal suite weight each)."""
    return len(per_mechanism) / sum(1.0 / v for v in per_mechanism.values())


def run(reps: int = 3) -> dict:
    per_mechanism = {}
    for mechanism in MECHANISMS:
        per_mechanism[mechanism] = round(measure_mechanism(mechanism, reps), 1)
        print(f"{mechanism:<14}{per_mechanism[mechanism]:>10.1f} instrs/sec",
              flush=True)
    agg = round(aggregate(per_mechanism), 1)
    base = round(aggregate(BASELINE_IPS), 1)
    report = {
        "protocol": {
            "suite": list(BENCHMARKS),
            "user_insts": USER_INSTS,
            "warmup_insts": WARMUP_INSTS,
            "reps_best_of": reps,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "instrs_per_sec": per_mechanism,
        "aggregate": agg,
        "baseline": {
            "note": "pre-optimization engine (growth seed), same protocol",
            "instrs_per_sec": BASELINE_IPS,
            "aggregate": base,
        },
        "speedup_vs_baseline": {
            mech: round(per_mechanism[mech] / BASELINE_IPS[mech], 2)
            for mech in per_mechanism
            if mech in BASELINE_IPS
        },
        "aggregate_speedup": round(agg / base, 2),
    }
    return report


def check_gate(
    report: dict, baseline: dict, max_drop: float
) -> tuple[list[tuple[str, float, float, float, bool]], bool]:
    """Compare a fresh report against a committed baseline.

    Returns ``(rows, ok)`` where each row is ``(name, baseline_ips,
    measured_ips, delta_fraction, within_gate)``.  The gate trips when
    any mechanism -- or the aggregate -- drops by more than ``max_drop``
    (a fraction, e.g. ``0.15``).  Improvements never trip it.
    """
    rows = []
    ok = True
    base_ips = baseline.get("instrs_per_sec", {})
    for mech, now in report["instrs_per_sec"].items():
        base = base_ips.get(mech)
        if not base:
            continue
        delta = now / base - 1.0
        within = delta >= -max_drop
        ok = ok and within
        rows.append((mech, base, now, delta, within))
    base_agg = baseline.get("aggregate")
    if base_agg:
        delta = report["aggregate"] / base_agg - 1.0
        within = delta >= -max_drop
        ok = ok and within
        rows.append(("aggregate", base_agg, report["aggregate"], delta, within))
    return rows, ok


def format_gate_summary(
    rows: list[tuple[str, float, float, float, bool]],
    ok: bool,
    max_drop: float,
) -> str:
    """Render gate rows as a GitHub-flavored markdown table."""
    lines = [
        f"### Engine perf gate ({'PASS' if ok else 'FAIL'}, "
        f"max drop {max_drop:.0%})",
        "",
        "| mechanism | baseline (instrs/s) | measured (instrs/s) | delta | gate |",
        "|---|---:|---:|---:|---|",
    ]
    for name, base, now, delta, within in rows:
        lines.append(
            f"| {name} | {base:.1f} | {now:.1f} | {delta:+.1%} "
            f"| {'ok' if within else '**REGRESSION**'} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.sim.perfbench",
        description="Measure engine throughput and write BENCH_engine.json.",
    )
    parser.add_argument(
        "--reps", type=int, default=3, help="best-of repetitions (default 3)"
    )
    parser.add_argument(
        "--output", default="BENCH_engine.json",
        help="output path (default BENCH_engine.json)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="committed BENCH_engine.json to gate against; exit 1 when "
        "any mechanism (or the aggregate) regresses past --max-drop",
    )
    parser.add_argument(
        "--max-drop", type=float, default=0.15, metavar="FRACTION",
        help="largest tolerated throughput drop vs the baseline "
        "(default 0.15)",
    )
    parser.add_argument(
        "--summary", metavar="FILE", default=None,
        help="append a markdown delta table here (defaults to "
        "$GITHUB_STEP_SUMMARY when set)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.max_drop < 1:
        parser.error(f"--max-drop must be in [0, 1), got {args.max_drop}")
    report = run(reps=args.reps)
    print(f"\naggregate {report['aggregate']:.1f} instrs/sec "
          f"({report['aggregate_speedup']:.2f}x baseline) -> {args.output}")
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    if args.baseline is None:
        return 0
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    rows, ok = check_gate(report, baseline, args.max_drop)
    summary = format_gate_summary(rows, ok, args.max_drop)
    print("\n" + summary, end="")
    summary_path = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write(summary + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
