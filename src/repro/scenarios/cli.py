"""``repro-scenarios``: run the randomized scenario matrix.

Expands a base seed into the standard scenario matrix (every scenario
cause alone, seeded pairs back-to-back, all-cause sweeps in every mix
style), runs each scenario under the requested mechanisms, checks every digest
against the perfect reference, and prints a Table-3-style per-cause cycle
attribution.

Exit codes: 0 -- every run agreed; 1 -- at least one scenario failed
(its program source is written to ``--artifacts`` when set); 2 -- bad
usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.faults.fuzz import MECHANISMS
from repro.scenarios.runner import run_matrix
from repro.scenarios.spec import generate_matrix

#: Attribution table column order (stable for diffs and tests).
_CAUSE_ORDER = ("dtlb_miss", "itlb_miss", "unaligned", "emul", "brev", "swint")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scenarios",
        description="Run randomized restartable-exception scenarios "
        "across every mechanism.",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed for the scenario matrix (default: 0)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="trim the matrix to one spec per shape (CI smoke)",
    )
    parser.add_argument(
        "--mechanisms", default=None, metavar="LIST",
        help="comma-separated mechanisms to run "
        f"(default: {','.join(MECHANISMS)})",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=None, metavar="N",
        help="per-run hang bound in cycles (default: 2000000)",
    )
    parser.add_argument(
        "--json-out", type=Path, default=None, metavar="FILE",
        help="write the full result matrix (JSON) here, pass or fail",
    )
    parser.add_argument(
        "--artifacts", type=Path, default=None, metavar="DIR",
        help="directory for failing scenarios' program sources",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-scenario progress"
    )
    return parser


def _attribution_table(results) -> str:
    """Per-cause cycle attribution in the style of the paper's Table 3."""
    lines = []
    for result in results:
        lines.append(f"\n{result.spec.describe()}")
        lines.append(
            f"  {'mechanism':14s} {'cycles':>8s}  "
            + "  ".join(f"{c:>18s}" for c in _CAUSE_ORDER)
        )
        for run in result.runs:
            if not run.ok or not run.attribution:
                continue
            cells = []
            for cause in _CAUSE_ORDER:
                taken, _, handler_cycles = run.attribution.get(cause, (0, 0, 0))
                cells.append(
                    f"{taken:>6d}/{handler_cycles:<8d}" if taken else f"{'-':>15s}"
                )
            lines.append(
                f"  {run.mechanism:14s} {run.cycles:>8d}  "
                + "  ".join(f"{c:>18s}" for c in cells)
            )
        lines.append("  (cells: exceptions taken / handler cycles)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    mechanisms = tuple(MECHANISMS)
    if args.mechanisms is not None:
        mechanisms = tuple(
            m.strip() for m in args.mechanisms.split(",") if m.strip()
        )
        unknown = sorted(set(mechanisms) - set(MECHANISMS))
        if unknown:
            print(
                f"error: unknown mechanisms {', '.join(unknown)} "
                f"(known: {', '.join(MECHANISMS)})",
                file=sys.stderr,
            )
            return 2

    log = (lambda msg: None) if args.quiet else (
        lambda msg: print(msg, flush=True)
    )
    kwargs = {}
    if args.max_cycles is not None:
        kwargs["max_cycles"] = args.max_cycles
    specs = generate_matrix(seed=args.seed, quick=args.quick)
    results = run_matrix(specs, mechanisms=mechanisms, log=log, **kwargs)

    failed = [r for r in results if not r.ok]
    if args.artifacts is not None and failed:
        args.artifacts.mkdir(parents=True, exist_ok=True)
        for result in failed:
            stem = args.artifacts / f"{result.spec.name}_{result.spec.seed}"
            stem.with_suffix(".s").write_text(result.source)
            stem.with_suffix(".json").write_text(
                json.dumps(result.to_json(), indent=2) + "\n"
            )
    if args.json_out is not None:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        args.json_out.write_text(
            json.dumps([r.to_json() for r in results], indent=2) + "\n"
        )

    print(_attribution_table(results))
    print(
        f"\nrepro-scenarios: {len(results)} scenarios, "
        f"{sum(len(r.runs) for r in results)} runs, "
        f"{len(failed)} failure(s)"
    )
    for result in failed:
        for failure in result.failures:
            print(f"  {result.spec.name}: {failure}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
