"""The service smoke check: N concurrent clients, one overlapping grid.

This is the executable form of the service's contract (run in CI as
``python -m repro.serve smoke``):

* **in-flight dedupe** -- every client submits the same grid at once,
  so the number of cells actually simulated must be the unique grid
  size, strictly below the number requested;
* **store effectiveness** -- the follow-up sweep after the storm is
  served entirely from the store, and ``/stats`` reports the hits;
* **consistency** -- every client sees identical cycles for identical
  cells;
* **bit-identity** -- results reconstructed from the service's pickled
  payload equal running the same cells serially in-process
  (:func:`~repro.sim.parallel.run_cell`), the same oracle the parallel
  runner's determinism tests use.

Everything runs in one process (server on the loop, simulations in its
worker pools), so the check needs no orchestration beyond asyncio.

With ``--nodes N`` (N > 1) the smoke becomes the *cluster* smoke
(:func:`run_cluster_smoke`): N real server processes under
:class:`~repro.serve.cluster.LocalCluster`, the whole storm aimed at
one node so consistent-hash forwarding must carry most of the grid,
plus a persistent job that gets its node SIGKILLed mid-drain and must
finish after restart with zero lost and zero duplicated cells.

Both smokes run hermetically: the result cache is pinned on in the
server/cluster *and* this process before anything starts, so a stray
parent ``REPRO_CACHE=0`` cannot skew the check.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field


@dataclass
class SmokeReport:
    """What the smoke run saw (JSON-printed by the CLI)."""

    clients: int = 0
    nodes: int = 1
    grid_cells: int = 0
    cells_requested: int = 0
    cells_simulated: int = 0
    deduped_total: int = 0
    cache_hits: int = 0
    inflight_hits: int = 0
    warm_sweep_cached: int = 0
    # Cluster-mode extras (zero in the single-node smoke).
    cells_forwarded: int = 0
    forward_fallbacks: int = 0
    job_cells: int = 0
    job_done_before_kill: int = 0
    job_done: int = 0
    job_duplicate_done: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


async def run_smoke(args) -> SmokeReport:
    """Start a server, fire ``args.clients`` concurrent sweeps, assert
    the dedupe/caching/consistency contract, and return the report."""
    import asyncio

    from repro.serve.cli import _build_server
    from repro.serve.client import async_sweep, decode_result
    from repro.serve.loadgen import HERMETIC_ENV
    from repro.sim.parallel import run_cell
    from repro.serve.service import expand_sweep

    # Pin the environment before the server -- and its pool workers --
    # exist, so nothing is silently inherited from the caller.
    os.environ.update(HERMETIC_ENV)

    report = SmokeReport(clients=args.clients)
    payload = {
        "workloads": args.workload,
        "mechanisms": args.mechanism,
        "user_insts": args.insts,
        "warmup_insts": args.warmup,
        "max_cycles": 2_000_000,
        "include_results": False,
    }
    specs, _ = expand_sweep(payload)
    report.grid_cells = len(specs)

    args.port = 0  # always ephemeral: the smoke must not collide
    server = _build_server(args)
    await server.start()
    try:
        # One reference client carries full payloads for the
        # bit-identity check; the other clients are metric-only.
        storm = [
            async_sweep(
                server.host,
                server.port,
                {**payload, "include_results": i == 0},
            )
            for i in range(args.clients)
        ]
        streams = await asyncio.gather(*storm)

        stats = server.service.stats_dict()
        report.cells_requested = stats["cells_requested"]
        report.cells_simulated = stats["cells_simulated"]
        report.cache_hits = stats["cache"]["hits"]
        report.inflight_hits = stats["cache"]["inflight_hits"]

        # Every client finished its whole grid and said so.
        for i, events in enumerate(streams):
            cells = [e for e in events if e["kind"] == "cell"]
            summaries = [e for e in events if e["kind"] == "summary"]
            report.check(
                len(cells) == len(specs) and len(summaries) == 1,
                f"client {i} saw {len(cells)} cells / "
                f"{len(summaries)} summaries (wanted {len(specs)}/1)",
            )
            report.deduped_total += sum(c["deduped"] for c in cells)

        # Dedupe collapsed the storm: the grid was simulated once-ish,
        # far below clients x cells.
        report.check(
            report.cells_simulated < report.cells_requested,
            f"no dedupe: simulated {report.cells_simulated} of "
            f"{report.cells_requested} requested",
        )
        report.check(
            report.cells_simulated >= len(specs),
            f"only {report.cells_simulated} cells simulated for a "
            f"{len(specs)}-cell grid",
        )
        report.check(
            report.cache_hits + report.inflight_hits > 0,
            "store reported neither cache hits nor in-flight dedupes",
        )

        # Identical cells resolved to identical cycles for every client.
        cycles: dict[tuple, set[int]] = {}
        for events in streams:
            for event in events:
                if event["kind"] != "cell":
                    continue
                key = (str(event["workload"]), event["mechanism"])
                cycles.setdefault(key, set()).add(event["cycles"])
        for key, seen in sorted(cycles.items()):
            report.check(
                len(seen) == 1,
                f"cell {key} resolved to differing cycles {sorted(seen)}",
            )

        # Bit-identity: the reference client's payloads equal serial
        # in-process runs of the same specs.
        reference = {
            e["index"]: e
            for e in streams[0]
            if e["kind"] == "cell" and "result_b64" in e
        }
        report.check(
            len(reference) == len(specs),
            f"reference client carried {len(reference)} payloads "
            f"(wanted {len(specs)})",
        )
        for index, spec in enumerate(specs):
            if index not in reference:
                continue
            served = decode_result(reference[index])
            local = await asyncio.get_running_loop().run_in_executor(
                None, run_cell, spec
            )
            report.check(
                dataclasses.asdict(served) == dataclasses.asdict(local),
                f"cell {index} served result differs from serial run_cell",
            )

        # The storm left the store warm: a fresh sweep is all hits.
        warm_events = await async_sweep(server.host, server.port, payload)
        warm_cells = [e for e in warm_events if e["kind"] == "cell"]
        report.warm_sweep_cached = sum(c["cached"] for c in warm_cells)
        report.check(
            report.warm_sweep_cached == len(specs),
            f"follow-up sweep hit the store on "
            f"{report.warm_sweep_cached}/{len(specs)} cells",
        )
    finally:
        await server.close()
    return report


# ----------------------------------------------------------------------
# Cluster smoke (``--nodes N``): real processes, forwarding, kill -9.

def _write_artifacts(
    directory, streams: list[list[dict]], extras: dict[str, object]
) -> None:
    """NDJSON client streams plus named JSON blobs, for CI upload."""
    import json
    from pathlib import Path

    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for index, events in enumerate(streams):
        lines = "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in events
        )
        (root / f"client{index:03d}.ndjson").write_text(lines)
    for name, blob in extras.items():
        (root / f"{name}.json").write_text(
            json.dumps(blob, indent=2, sort_keys=True, default=str) + "\n"
        )


def run_cluster_smoke(args) -> SmokeReport:
    """Boot ``args.nodes`` real server processes and prove the cluster
    contract end to end:

    * the whole storm hits node 0, so every cell node 0 does not own
      must travel the forwarding path -- and still come back
      bit-identical to a serial in-process run;
    * the aggregate cluster simulated the grid once-ish (dedupe works
      across forwarding);
    * a persistent job survives SIGKILL of its node mid-drain: after
      restart it completes with zero lost and zero duplicated cells,
      and every finished cell's content address matches one computed
      locally -- the bit-identity invariant, queue edition.
    """
    import asyncio
    import time

    from repro.serve.client import (
        async_sweep,
        decode_result,
        job_results,
        job_status,
        split_server_url,
        submit_job,
    )
    from repro.serve.cluster import LocalCluster
    from repro.serve.loadgen import HERMETIC_ENV
    from repro.serve.service import expand_sweep, spec_to_dict
    from repro.serve.store import ContentStore
    from repro.sim.parallel import run_cell

    os.environ.update(HERMETIC_ENV)

    report = SmokeReport(clients=args.clients, nodes=args.nodes)
    payload = {
        "workloads": args.workload,
        "mechanisms": args.mechanism,
        "user_insts": args.insts,
        "warmup_insts": args.warmup,
        "max_cycles": 2_000_000,
        "include_results": False,
    }
    specs, _ = expand_sweep(payload)
    report.grid_cells = len(specs)
    streams: list[list[dict]] = []
    job_trace: dict[str, object] = {}

    cluster = LocalCluster(
        root=args.cache_dir, nodes=args.nodes, pools=1, workers=1, env=HERMETIC_ENV
    )
    try:
        with cluster:
            target = cluster.nodes[0].url
            host, port = split_server_url(target)

            async def storm() -> list[list[dict]]:
                return await asyncio.gather(
                    *(
                        async_sweep(
                            host, port, {**payload, "include_results": i == 0}
                        )
                        for i in range(args.clients)
                    )
                )

            streams = asyncio.run(storm())
            for i, events in enumerate(streams):
                cells = [e for e in events if e["kind"] == "cell"]
                report.check(
                    len(cells) == len(specs),
                    f"client {i} saw {len(cells)} cells "
                    f"(wanted {len(specs)})",
                )
                report.deduped_total += sum(c["deduped"] for c in cells)

            stats = [s for s in cluster.stats() if s is not None]
            report.check(
                len(stats) == args.nodes, "a node died during the storm"
            )
            report.cells_requested = sum(s["cells_requested"] for s in stats)
            report.cells_simulated = sum(s["cells_simulated"] for s in stats)
            report.cache_hits = sum(s["cache"]["hits"] for s in stats)
            report.inflight_hits = sum(
                s["cache"]["inflight_hits"] for s in stats
            )
            report.cells_forwarded = sum(
                s.get("node", {}).get("forwarded", 0) for s in stats
            )
            report.forward_fallbacks = sum(
                s.get("node", {}).get("fallbacks", 0) for s in stats
            )

            # The storm all hit node 0; with 3+ nodes and 64 vnodes the
            # ring owns most of the grid elsewhere, so forwarding must
            # have carried cells (fallbacks would mean peers looked
            # dead while provably healthy).
            report.check(
                report.cells_forwarded > 0,
                "storm at a non-owner node forwarded zero cells",
            )
            report.check(
                report.forward_fallbacks == 0,
                f"{report.forward_fallbacks} forwards fell back to "
                f"local execution with all peers healthy",
            )
            # Dedupe held across the cluster: the grid simulated
            # once-ish, nowhere near clients x cells.
            report.check(
                len(specs)
                <= report.cells_simulated
                < args.clients * len(specs),
                f"cluster simulated {report.cells_simulated} cells for "
                f"a {len(specs)}-cell grid under {args.clients} clients",
            )

            # Bit-identity across the forwarding path: the reference
            # client's payloads equal serial in-process runs.
            reference = {
                e["index"]: e
                for e in streams[0]
                if e["kind"] == "cell" and "result_b64" in e
            }
            report.check(
                len(reference) == len(specs),
                f"reference client carried {len(reference)} payloads "
                f"(wanted {len(specs)})",
            )
            for index, spec in enumerate(specs):
                if index not in reference:
                    continue
                served = decode_result(reference[index])
                report.check(
                    dataclasses.asdict(served)
                    == dataclasses.asdict(run_cell(spec)),
                    f"cell {index} served result differs from serial "
                    f"run_cell",
                )

            # ----------------------------------------------------------
            # Persistent job + kill -9: fresh cells (new run lengths ->
            # new content addresses) so the drain does real work.
            job_specs = [
                dataclasses.replace(
                    spec, user_insts=spec.user_insts + 101 + 13 * i
                )
                for i in range(3)
                for spec in specs
            ]
            submitted = submit_job(
                target,
                {
                    "cells": [spec_to_dict(s) for s in job_specs],
                    "include_results": False,
                },
            )
            job_id = submitted["job_id"]
            report.job_cells = submitted["cells"]
            job_trace["submitted"] = submitted

            status: dict | None = None
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                status = job_status(target, job_id)
                report.job_done_before_kill = status["done"]
                if status["done"] >= 2 or status["complete"]:
                    break
                time.sleep(0.02)
            job_trace["at_kill"] = status

            cluster.kill(0)
            report.check(
                not cluster.nodes[0].alive(), "node 0 survived SIGKILL"
            )
            cluster.restart(0)

            status = None
            deadline = time.monotonic() + 240
            while time.monotonic() < deadline:
                status = job_status(target, job_id)
                if status["complete"]:
                    break
                time.sleep(0.1)
            job_trace["final"] = status
            report.check(
                bool(status and status["complete"]),
                f"job never completed after restart: {status}",
            )
            if status:
                report.job_done = status["done"]
                report.job_duplicate_done = status["duplicate_done"]
                report.check(
                    status["done"] == len(job_specs),
                    f"job lost cells: {status['done']} done of "
                    f"{len(job_specs)}",
                )
                report.check(
                    status["duplicate_done"] == 0,
                    f"job journalled {status['duplicate_done']} "
                    f"duplicate completions",
                )

            # Zero lost, zero duplicated, and every key is the content
            # address this process computes for the same spec.
            lines = job_results(target, job_id, include_results=False)
            job_trace["results"] = lines
            served_keys = {
                line["index"]: line["key"]
                for line in lines
                if line.get("kind") == "cell"
            }
            oracle = ContentStore(
                directory=os.path.join(args.cache_dir, "oracle")
            )
            for index, spec in enumerate(job_specs):
                report.check(
                    served_keys.get(index) == oracle.key(spec),
                    f"job cell {index} finished under key "
                    f"{served_keys.get(index)!r}, expected the locally "
                    f"computed content address",
                )
            job_trace["final_stats"] = cluster.stats()
    finally:
        if args.artifacts:
            _write_artifacts(
                args.artifacts,
                streams,
                {
                    "job": job_trace,
                    "report": dataclasses.asdict(report),
                },
            )
    return report
