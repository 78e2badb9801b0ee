"""``repro-serve loadgen``: the cluster's load-generator benchmark.

Boots a real local multi-process cluster (:mod:`repro.serve.cluster`),
fires ``--clients`` concurrent clients at it -- each client submits the
same overlapping grid ``--reps`` times, round-robined across nodes, the
way a fleet of experiment front-ends would -- and reports what the
cluster sustained:

* **cells/sec** -- resolved cells (every cell of every sweep of every
  client) per wall-clock second; the headline throughput number;
* **dedupe ratio** -- the fraction of requested cells the cluster never
  had to simulate (in-flight dedupe + store hits doing their job);
* **store hit-rate** -- hits / (hits + misses) across all nodes;
* **p50/p99 latency** -- per-sweep wall time as a client saw it;
* forwarding counters -- owned vs forwarded vs fallback cells.

The report is written as JSON (``BENCH_serve.json`` is the committed
baseline) and can be gated against a baseline with ``--baseline`` /
``--max-drop``, the same regression pattern perfbench uses: the nightly
``loadgen-bench`` CI job fails on a >20 % cells/sec drop.

Throughput here measures the *service* fabric -- routing, dedupe, store,
forwarding -- not the simulator: after the first wave the grid is warm
everywhere, which is exactly the regime a long-lived cluster serves.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (q in [0, 1])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


#: The environment every loadgen/smoke node runs under: the cache is
#: pinned on, because both harnesses exist to exercise the store.
HERMETIC_ENV = {"REPRO_CACHE": "1"}


async def _client(
    index: int,
    urls: list[str],
    payload: dict,
    reps: int,
    latencies: list[float],
) -> int:
    """One client: ``reps`` sweeps of the grid, round-robining its
    starting node; returns how many cells it saw resolved."""
    from repro.serve.client import async_sweep, split_server_url

    cells = 0
    for rep in range(reps):
        host, port = split_server_url(urls[(index + rep) % len(urls)])
        begin = time.perf_counter()
        events = await async_sweep(host, port, payload)
        latencies.append(time.perf_counter() - begin)
        cells += sum(1 for e in events if e.get("kind") == "cell")
    return cells


async def _run_storm(args, urls: list[str], payload: dict) -> dict:
    latencies: list[float] = []
    begin = time.perf_counter()
    resolved = await asyncio.gather(
        *(
            _client(i, urls, payload, args.reps, latencies)
            for i in range(args.clients)
        )
    )
    wall = time.perf_counter() - begin
    return {"wall_s": wall, "cells": sum(resolved), "latencies": latencies}


def run_loadgen(args) -> dict:
    """Boot the cluster, run the storm, and assemble the report."""
    from repro.serve.cluster import LocalCluster

    payload = {
        "workloads": args.workload,
        "mechanisms": args.mechanism,
        "user_insts": args.insts,
        "warmup_insts": args.warmup,
        "max_cycles": 2_000_000,
        "include_results": False,
    }
    grid = len(args.workload) * len(args.mechanism)
    cluster = LocalCluster(
        root=args.cluster_dir,
        nodes=args.nodes,
        pools=1,
        workers=args.workers,
        env=HERMETIC_ENV,
    )
    with cluster:
        storm = asyncio.run(_run_storm(args, cluster.urls, payload))
        stats = [s for s in cluster.stats() if s is not None]

    requested = sum(s["cells_requested"] for s in stats)
    simulated = sum(s["cells_simulated"] for s in stats)
    hits = sum(s["cache"]["hits"] for s in stats)
    misses = sum(s["cache"]["misses"] for s in stats)
    owned = sum(s.get("node", {}).get("owned", 0) for s in stats)
    forwarded = sum(s.get("node", {}).get("forwarded", 0) for s in stats)
    fallbacks = sum(s.get("node", {}).get("fallbacks", 0) for s in stats)
    latencies = storm["latencies"]
    return {
        "kind": "repro-serve-loadgen",
        "protocol": {
            "nodes": args.nodes,
            "workers_per_node": args.workers,
            "clients": args.clients,
            "reps_per_client": args.reps,
            "grid_cells": grid,
            "workloads": list(args.workload),
            "mechanisms": list(args.mechanism),
            "user_insts": args.insts,
            "warmup_insts": args.warmup,
        },
        "cells_resolved": storm["cells"],
        "wall_s": round(storm["wall_s"], 3),
        "cells_per_sec": round(storm["cells"] / storm["wall_s"], 2),
        "dedupe_ratio": round(1 - simulated / requested, 4) if requested else 0.0,
        "store_hit_rate": round(hits / (hits + misses), 4)
        if hits + misses
        else 0.0,
        "p50_ms": round(percentile(latencies, 0.50) * 1000, 2),
        "p99_ms": round(percentile(latencies, 0.99) * 1000, 2),
        "cells_requested": requested,
        "cells_simulated": simulated,
        "cells_owned": owned,
        "cells_forwarded": forwarded,
        "forward_fallbacks": fallbacks,
    }


def gate(report: dict, baseline: dict, max_drop: float) -> list[str]:
    """Regression check vs a committed baseline (perfbench's
    ``--baseline/--max-drop`` pattern); returns failure messages."""
    failures = []
    base = baseline.get("cells_per_sec")
    fresh = report.get("cells_per_sec")
    if not isinstance(base, (int, float)) or base <= 0:
        failures.append("baseline carries no usable cells_per_sec")
    elif fresh < base * (1 - max_drop):
        failures.append(
            f"cells/sec regressed past {max_drop:.0%}: "
            f"{fresh:.1f} vs baseline {base:.1f}"
        )
    base_hit = baseline.get("store_hit_rate")
    if isinstance(base_hit, (int, float)) and base_hit > 0:
        if report.get("store_hit_rate", 0) < base_hit * (1 - max_drop):
            failures.append(
                f"store hit-rate regressed past {max_drop:.0%}: "
                f"{report.get('store_hit_rate')} vs baseline {base_hit}"
            )
    return failures


def main(args) -> int:
    """CLI entry (``repro-serve loadgen``)."""
    report = run_loadgen(args)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"repro-serve loadgen: report written to {args.output}")
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        failures = gate(report, baseline, args.max_drop)
        for failure in failures:
            print(f"repro-serve loadgen: FAIL: {failure}")
        if failures:
            return 1
        print(
            f"repro-serve loadgen: within {args.max_drop:.0%} of "
            f"{args.baseline} ({report['cells_per_sec']} vs "
            f"{baseline.get('cells_per_sec')} cells/sec)"
        )
    return 0
