"""Shared definitions: metric names and units, the hermetic
environment, statistics helpers and the result line."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from pathlib import Path

#: The checkout root (the directory holding ``bench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Parent of every scratch directory a run makes (removed at the end).
SCRATCH = ROOT / ".bench_tmp"

#: Run length the benchmark pins (the program's minimum scale).
SCALE = "0.1"

#: The workloads, in the order BENCHMARK.json lists them.
WORKLOADS = ("figures-cold", "service")

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

_EXPERIMENTS = ("fig2", "fig3", "table2", "fig5", "table3", "fig6", "fig7", "table4")
_MECHANISMS = ("perfect", "traditional", "multithreaded", "hardware", "quickstart")

#: Per-layer metrics: name -> unit.  A workload that does not reach a
#: layer reports 0 for it.
PER_LAYER = {
    **{f"experiments.{name}_s": "s" for name in _EXPERIMENTS},
    "experiments.self_s": "s",
    "cells.simulated": "count",
    "cells.cached": "count",
    "cells.self_s": "s",
    "cache.get_s": "s",
    "cache.get_calls": "count",
    "cache.put_s": "s",
    "cache.put_calls": "count",
    "workloads.build_s": "s",
    "workloads.build_calls": "count",
    "sim.construct_s": "s",
    "sim.construct_calls": "count",
    "kernel.s": "s",
    "kernel.cycles": "count",
    "kernel.user_insts": "count",
    "kernel.ns_per_cycle": "ns",
    **{f"kernel.kips.{mech}": "kinstr/s" for mech in _MECHANISMS},
    "kernel.kips.mix": "kinstr/s",
    "exceptions.taken": "count",
    "exceptions.committed_fills": "count",
    "serve.hit_req_ms.p50": "ms",
    "serve.miss_req_ms.p50": "ms",
    "serve.cells.cached": "count",
    "serve.cells.deduped": "count",
    "serve.cells.simulated": "count",
    "serve.store.hits": "count",
    "serve.store.misses": "count",
    "serve.store.puts": "count",
    "host.raw_wall_s": "s",
    "host.cpu_s": "s",
    "host.calib_ms": "ms",
    "trace.overhead": "ratio",
    "trace.region_s": "s",
    "trace.self_sum_s": "s",
}

#: Variables that would change what the program runs or where it
#: writes; every one of them is dropped before the benchmark starts.
_DROPPED_PREFIX = "REPRO_"


def hermetic_env(tmp: Path) -> None:
    """Make this process (and its children) run the program's defaults
    with fresh scratch directories under ``tmp``."""
    for key in [k for k in os.environ if k.startswith(_DROPPED_PREFIX)]:
        del os.environ[key]
    os.environ.update(
        REPRO_JOBS="1",
        REPRO_SCALE=SCALE,
        REPRO_CACHE_DIR=str(tmp / "cache"),
        REPRO_CKPT_DIR=str(tmp / "ckpt"),
        TMPDIR=str(tmp),
    )
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch_dir(prefix: str) -> Path:
    """A fresh scratch directory inside the checkout."""
    import tempfile

    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` cut points)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result line: the last line of standard output."""
    units = {**END_TO_END, **PER_LAYER}
    payload = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(payload), flush=True)


def info(label: str, data: dict) -> None:
    """An informational line (raw host numbers, engine, counts)."""
    print(f"{label}: {json.dumps(data, sort_keys=True)}", flush=True)
