"""The repository benchmark.

    python3 bench/run.py --workload figures-cold --seed 1 --seconds 10 --trace 0

Workloads (see bench/README.md):

``figures-cold``  every experiment from an empty result cache
``service``       closed-loop sweeps against a ``repro-serve`` server

Run from the root of a checkout (``src/`` beside ``bench/``).  Every
run is hermetic: ``REPRO_*`` variables are dropped, ``REPRO_JOBS=1``
and the benchmark's own ``REPRO_SCALE`` are set, and caches, stores
and checkpoints live in a fresh directory under ``.bench_tmp/`` that is
removed at the end.  With ``--trace 0`` the last line of output is a
JSON object with every end-to-end metric; with ``--trace 1`` it holds
every per-layer metric instead.  Host times are normalised by
``bench/calibrate.py``; the raw numbers are printed on the ``raw:``
line before it.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from bench import common  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Repository benchmark.")
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = common.scratch_dir(f"{args.workload}-")
    try:
        common.hermetic_env(tmp)
        from repro.engine import resolve_engine

        common.info("run", {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale": common.SCALE,
            "engine": resolve_engine(),
        })
        if args.workload == "service":
            from bench import service

            result = service.run(args.seconds, bool(args.trace), tmp, args.seed)
        else:
            from bench import figures

            result = figures.run(args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            common.SCRATCH.rmdir()
        except OSError:
            pass

    common.info("raw", result["raw"])
    expected = common.PER_LAYER if args.trace else common.END_TO_END
    missing = sorted(set(expected) - set(result["metrics"]))
    if missing:
        print(f"bench: metrics missing: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: result["metrics"][name] for name in expected}
    common.emit(
        result["failed"] == 0, result["attempted"], result["failed"], metrics
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
