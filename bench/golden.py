"""Build or check the golden tables the benchmark compares against.

    python3 bench/golden.py --check    # recompute and compare
    python3 bench/golden.py --write    # recompute and overwrite

Both tables are computed twice, once under the ``reference`` cycle
kernel and once under ``batched``, and must agree before anything is
written: the figure table holds every experiment's printed output at
the benchmark's scale, the service table the summary row of every cell
in the service workload's candidate pool.  A run takes a few minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import common  # noqa: E402

ENGINES = ("reference", "batched")


def figure_outputs(engine: str, cache_dir: Path) -> dict[str, str]:
    from repro.experiments.cli import ALL_ORDER, EXPERIMENTS

    os.environ["REPRO_ENGINE"] = engine
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    outputs = {}
    for name in ALL_ORDER:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            EXPERIMENTS[name]()
        outputs[name] = out.getvalue()
    return outputs


def service_rows(engine: str) -> dict[str, dict]:
    from repro.serve.service import spec_from_dict
    from repro.sim.parallel import run_cell

    from bench.service import candidate_pool, cell_key

    rows = {}
    for c in candidate_pool():
        result = run_cell(spec_from_dict(c), engine=engine)
        rows[cell_key(c)] = {
            "cycles": result.cycles,
            "retired_user": result.retired_user,
            "committed_fills": result.committed_fills,
            "exceptions_taken": dict(sorted(result.stats.cause_taken.items())),
        }
    return rows


def compute(tmp: Path) -> tuple[dict, dict]:
    figures, service = {}, {}
    for engine in ENGINES:
        figures[engine] = figure_outputs(engine, tmp / f"cache-{engine}")
        service[engine] = service_rows(engine)
        print(f"golden: computed under {engine}", file=sys.stderr)
    first, second = ENGINES
    if figures[first] != figures[second]:
        raise SystemExit("golden: figure outputs differ between kernels")
    if service[first] != service[second]:
        raise SystemExit("golden: service rows differ between kernels")
    return (
        {"scale": common.SCALE, "engines": list(ENGINES), "outputs": figures[first]},
        {"engines": list(ENGINES), "rows": service[first]},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    tmp = common.scratch_dir("golden-")
    try:
        common.hermetic_env(tmp)
        figures, service = compute(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    from bench import figures as fig_mod, service as svc_mod

    targets = ((fig_mod.GOLDEN, figures), (svc_mod.GOLDEN, service))
    if args.write:
        for path, data in targets:
            path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print("golden: written")
        return 0
    stale = [
        path.name for path, data in targets
        if json.loads(path.read_text()) != data
    ]
    if stale:
        print(f"golden: out of date: {', '.join(stale)}")
        return 1
    print("golden: up to date")
    return 0


if __name__ == "__main__":
    sys.exit(main())
