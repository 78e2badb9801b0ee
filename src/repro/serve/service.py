"""The sweep service: sharded pools, in-flight dedupe, warm lineage.

:class:`SweepService` is the long-running heart of ``repro-serve``.  It
accepts sweep specs (a suite x mechanism x config grid, or an explicit
cell list), expands and validates them into
:class:`~repro.sim.parallel.CellSpec` cells, and resolves every cell
through three layers, cheapest first:

1. the **content-addressed store** (:mod:`repro.serve.store`) -- a warm
   cell costs one pickle read;
2. the **in-flight table** -- a cell some other request is already
   simulating is awaited, not re-run, so N clients asking for the same
   cell cost one simulation (the ``inflight_hits`` counter);
3. in cluster mode, the **ring** -- a cell whose consistent-hash owner
   (:mod:`repro.serve.ring`) is another node is proxied there over one
   hop and the result verified against its content address; an
   unreachable owner degrades to local execution;
4. the **worker pools** -- remaining cells are sharded by content
   address across one or more persistent ``ProcessPoolExecutor`` pools
   and claimed one cell at a time (:func:`~repro.sim.parallel.run_cell`),
   exactly like the one-shot runner, so results are bit-identical to
   ``run_cells`` by construction.

Sweeps bigger than one connection's patience become persistent *jobs*
(:mod:`repro.serve.queue`): submitted durably, drained in the
background through the same resolution layers, resumable after
``kill -9`` with zero lost or duplicated cells.

Warm-checkpoint lineage rides along: a sweep submitted with
``"warm": true`` is rewritten through
:func:`~repro.sim.parallel.derive_warm_cells`, so a grid sharing a
workload-family prefix with anything previously simulated (served or
local) starts from the saved warm snapshot instead of re-warming, and
the checkpoint hash keys the cell's content address.

Results are deterministic simulations, so every layer is transparent:
*where* a cell's result came from (store, another request's in-flight
run, a pool worker, or the serial fallback) never changes *what* it is.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import AsyncIterator

from repro.serve.queue import JobQueue, JobState
from repro.serve.ring import HashRing
from repro.serve.store import ContentStore, _env_int
from repro.sim.config import MECHANISMS, FUPool, MachineConfig
from repro.sim.parallel import (
    CellSpec,
    _worker_env,
    _worker_init,
    derive_warm_cells,
    run_cell,
)
from repro.sim.simulator import SimResult
from repro.workloads.suite import BENCHMARK_NAMES


class SweepRequestError(ValueError):
    """A malformed or oversized sweep spec (an HTTP 400, not a crash)."""


# ----------------------------------------------------------------------
# Sweep-spec codec: JSON <-> CellSpec, validated for the trust boundary.

def _build_dataclass(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise SweepRequestError(f"{where} must be an object, got {data!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise SweepRequestError(
            f"unknown {where} key(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(names))}"
        )
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise SweepRequestError(f"bad {where}: {exc}") from None


def config_to_dict(config: MachineConfig) -> dict:
    """JSON-able form of a machine configuration (asdict, recursively)."""
    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from JSON, rejecting unknown
    keys and bad values with :class:`SweepRequestError`."""
    from repro.exceptions.limits import LimitKnobs
    from repro.memory.hierarchy import HierarchyConfig

    if not isinstance(data, dict):
        raise SweepRequestError(f"config must be an object, got {data!r}")
    data = dict(data)
    if isinstance(data.get("fu_pool"), dict):
        data["fu_pool"] = _build_dataclass(FUPool, data["fu_pool"], "fu_pool")
    if isinstance(data.get("hierarchy"), dict):
        data["hierarchy"] = _build_dataclass(
            HierarchyConfig, data["hierarchy"], "hierarchy"
        )
    if isinstance(data.get("limits"), dict):
        data["limits"] = _build_dataclass(LimitKnobs, data["limits"], "limits")
    return _build_dataclass(MachineConfig, data, "config")


def _check_workload(workload) -> str | tuple[str, ...]:
    names = (
        (workload,) if isinstance(workload, str) else tuple(workload or ())
    )
    if not names:
        raise SweepRequestError("workload must be a name or list of names")
    for name in names:
        if name not in BENCHMARK_NAMES:
            raise SweepRequestError(
                f"unknown workload {name!r}; known: "
                f"{', '.join(BENCHMARK_NAMES)}"
            )
    return names[0] if isinstance(workload, str) else names


def _check_length(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise SweepRequestError(
            f"{name} must be a non-negative integer, got {value!r}"
        )
    return value


def spec_to_dict(spec: CellSpec) -> dict:
    """JSON-able form of one cell (the client's wire format)."""
    return {
        "workload": list(spec.workload)
        if isinstance(spec.workload, tuple)
        else spec.workload,
        "config": config_to_dict(spec.config),
        "user_insts": spec.user_insts,
        "warmup_insts": spec.warmup_insts,
        "max_cycles": spec.max_cycles,
        "warm_hash": spec.warm_hash,
    }


def spec_from_dict(data: dict) -> CellSpec:
    """Rebuild one validated :class:`CellSpec` from its wire format.

    ``warm_from`` is deliberately not accepted: a checkpoint *location*
    is meaningless (and unsafe to trust) across the HTTP boundary.  A
    client that wants warm sharing sets the sweep-level ``warm`` flag
    and lets the service derive its own checkpoints.
    """
    if not isinstance(data, dict):
        raise SweepRequestError(f"cell must be an object, got {data!r}")
    allowed = {
        "workload", "config", "user_insts", "warmup_insts", "max_cycles",
        "warm_hash",
    }
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SweepRequestError(f"unknown cell key(s) {', '.join(unknown)}")
    if "workload" not in data:
        raise SweepRequestError("cell is missing its workload")
    warm_hash = data.get("warm_hash")
    if warm_hash is not None and not isinstance(warm_hash, str):
        raise SweepRequestError(f"warm_hash must be a string, got {warm_hash!r}")
    return CellSpec(
        workload=_check_workload(data["workload"]),
        config=config_from_dict(data.get("config") or {}),
        user_insts=_check_length(data.get("user_insts", 12_000), "user_insts"),
        warmup_insts=_check_length(
            data.get("warmup_insts", 3_000), "warmup_insts"
        ),
        max_cycles=_check_length(
            data.get("max_cycles", 8_000_000), "max_cycles"
        ),
        warm_hash=warm_hash,
    )


def max_request_cells() -> int:
    """Largest grid one request may expand to (``REPRO_SERVE_MAX_CELLS``,
    default 4096; 0 = unlimited)."""
    return _env_int("REPRO_SERVE_MAX_CELLS", 4096)


def expand_sweep(payload: dict) -> tuple[list[CellSpec], dict]:
    """Validate a sweep request and expand it into cells.

    Two shapes are accepted: a *grid* (``workloads`` x ``mechanisms`` x
    ``configs`` with shared run lengths) and an explicit ``cells`` list
    (the experiment clients' shape).  Returns ``(specs, options)`` where
    options carries the request-level flags (``warm``,
    ``include_results``).
    """
    if not isinstance(payload, dict):
        raise SweepRequestError("sweep spec must be a JSON object")
    allowed = {
        "cells", "workloads", "mechanisms", "configs",
        "user_insts", "warmup_insts", "max_cycles",
        "warm", "include_results",
    }
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise SweepRequestError(
            f"unknown sweep key(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(allowed))}"
        )
    options = {
        "warm": bool(payload.get("warm", False)),
        "include_results": bool(payload.get("include_results", True)),
    }

    if "cells" in payload:
        cells = payload["cells"]
        if not isinstance(cells, list) or not cells:
            raise SweepRequestError("cells must be a non-empty list")
        specs = [spec_from_dict(cell) for cell in cells]
    else:
        workloads = payload.get("workloads")
        if not isinstance(workloads, list) or not workloads:
            raise SweepRequestError(
                "a grid sweep needs a non-empty workloads list"
            )
        mechanisms = payload.get("mechanisms", ["multithreaded"])
        if not isinstance(mechanisms, list) or not mechanisms:
            raise SweepRequestError("mechanisms must be a non-empty list")
        for mech in mechanisms:
            if mech not in MECHANISMS:
                raise SweepRequestError(
                    f"unknown mechanism {mech!r}; known: "
                    f"{', '.join(MECHANISMS)}"
                )
        configs = payload.get("configs", [{}])
        if not isinstance(configs, list) or not configs:
            raise SweepRequestError("configs must be a non-empty list")
        user_insts = _check_length(payload.get("user_insts", 12_000), "user_insts")
        warmup = _check_length(payload.get("warmup_insts", 3_000), "warmup_insts")
        max_cycles = _check_length(
            payload.get("max_cycles", 8_000_000), "max_cycles"
        )
        specs = []
        for workload in workloads:
            checked = _check_workload(workload)
            for overrides in configs:
                for mech in mechanisms:
                    config = config_from_dict(
                        {**(overrides or {}), "mechanism": mech}
                    )
                    specs.append(
                        CellSpec(
                            workload=checked,
                            config=config,
                            user_insts=user_insts,
                            warmup_insts=warmup,
                            max_cycles=max_cycles,
                        )
                    )
    limit = max_request_cells()
    if limit and len(specs) > limit:
        raise SweepRequestError(
            f"sweep expands to {len(specs)} cells, over the "
            f"REPRO_SERVE_MAX_CELLS limit of {limit}"
        )
    return specs, options


# ----------------------------------------------------------------------

@dataclass
class CellOutcome:
    """One resolved cell and how it was resolved."""

    spec: CellSpec
    result: SimResult
    key: str
    #: Served straight from the content-addressed store.
    cached: bool = False
    #: Shared a simulation another request (or an earlier duplicate in
    #: this one) already had in flight.
    deduped: bool = False


def default_pools() -> int:
    """Shard count from ``REPRO_SERVE_POOLS`` (default 1; 0 = inline
    thread execution, for tests and tiny deployments)."""
    return _env_int("REPRO_SERVE_POOLS", 1)


def default_workers() -> int:
    """Workers per pool from ``REPRO_SERVE_WORKERS`` (0/unset = CPU
    count split across pools)."""
    return _env_int("REPRO_SERVE_WORKERS", 0)


class SweepService:
    """Long-running sweep resolver over persistent worker pools.

    Single-event-loop object: every public coroutine must run on the
    loop the service was started on.  Simulation and store I/O are
    pushed off the loop (process pools and the default thread pool), so
    the loop itself only routes cells and streams results.
    """

    def __init__(
        self,
        store: ContentStore | None = None,
        pools: int | None = None,
        workers: int | None = None,
        node_id: str | None = None,
        peers: list[str] | tuple[str, ...] = (),
        queue: JobQueue | None = None,
        handoff: bool = False,
    ) -> None:
        self.store = store if store is not None else ContentStore()
        self.pools = default_pools() if pools is None else pools
        self.workers = default_workers() if workers is None else workers
        self.started = time.time()
        self.requests = 0
        self.cells_requested = 0
        self.cells_simulated = 0
        #: content address -> future resolving to a SimResult.
        self._inflight: dict[str, asyncio.Future] = {}
        self._executors: list[Executor | None] | None = None
        # -- cluster membership (docs/SERVICE.md "Cluster mode") --------
        #: This node's advertised base URL; None = single-host mode.
        self.node_id = node_id
        self.peers = [p for p in peers if p and p != node_id]
        #: Placement is pure ring arithmetic over the member list, so
        #: every node routes identically with zero coordination.
        self.ring: HashRing | None = (
            HashRing([node_id, *self.peers])
            if node_id and self.peers
            else None
        )
        self.cells_owned = 0
        self.cells_forwarded = 0
        self.forward_fallbacks = 0
        self.handoff_pulled = 0
        if self.node_id:
            # Manifests published by this store now carry the node's
            # identity + routing counters (obs.manifest "node" block).
            self.store.node_info = self.node_info
        #: Pull owned entries from peers when the HTTP server starts.
        self.handoff_on_start = handoff
        #: Persistent job queue (None = /jobs disabled).
        self.queue = queue
        self._job_tasks: dict[str, asyncio.Task] = {}

    # -- pools ----------------------------------------------------------
    def _shards(self) -> list[Executor | None]:
        """The persistent executors, one per shard (lazily created).
        ``None`` entries mean "run on the default thread executor" --
        the inline mode used when ``pools == 0``."""
        if self._executors is None:
            if self.pools <= 0:
                self._executors = [None]
            else:
                per_pool = self.workers or max(
                    1, (os.cpu_count() or 1) // self.pools
                )
                self._executors = [
                    self._make_pool(per_pool) for _ in range(self.pools)
                ]
        return self._executors

    @staticmethod
    def _make_pool(workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(_worker_env(),),
        )

    def _shard_for(self, key: str) -> int:
        """Stable shard of a content address (hex-prefix mod pools)."""
        shards = self._shards()
        return int(key[:8], 16) % len(shards)

    def close(self) -> None:
        """Tear down the worker pools and job drains (idempotent).

        Job *state* survives closing by construction -- everything
        durable is already on disk -- so cancelled drains resume on the
        next start (:meth:`resume_jobs`).
        """
        for task in self._job_tasks.values():
            if not task.done():
                task.cancel()
        self._job_tasks = {}
        if self._executors:
            for executor in self._executors:
                if executor is not None:
                    executor.shutdown(wait=False, cancel_futures=True)
        self._executors = None

    # -- resolution -----------------------------------------------------
    async def stream_cells(
        self,
        specs: list[CellSpec],
        warm: bool = False,
        forward: bool = True,
    ) -> AsyncIterator[tuple[int, CellOutcome]]:
        """Resolve ``specs``, yielding ``(index, outcome)`` as each cell
        completes (ragged order; indices are spec positions).

        In cluster mode, cells whose ring owner is another node are
        proxied there (``forward=False`` pins everything local -- the
        handler for already-forwarded requests, which is what bounds
        every cell to at most one hop).
        """
        loop = asyncio.get_running_loop()
        if warm:
            # Warm derivation builds checkpoints (serial simulations);
            # off the loop.  Existing checkpoints make this a hash probe.
            specs = await loop.run_in_executor(None, derive_warm_cells, specs)
        self.requests += 1
        self.cells_requested += len(specs)

        ready: list[tuple[int, CellOutcome]] = []
        waiting: list[tuple[int, CellSpec, str, bool, asyncio.Future]] = []
        to_start: list[tuple[str, CellSpec]] = []
        to_forward: list[tuple[str, CellSpec, str]] = []
        for index, spec in enumerate(specs):
            key = self.store.key(spec)
            hit = await loop.run_in_executor(None, self.store.get, spec)
            if hit is not None:
                ready.append(
                    (index, CellOutcome(spec, hit, key, cached=True))
                )
                continue
            future = self._inflight.get(key)
            if future is not None:
                # Someone (another request, or an earlier duplicate in
                # this one) is already simulating this exact cell.
                self.store.stats.inflight_hits += 1
                waiting.append((index, spec, key, True, future))
                continue
            future = loop.create_future()
            self._inflight[key] = future
            owner = self._owner_of(key) if forward else None
            if owner is not None:
                to_forward.append((key, spec, owner))
            else:
                if self.ring is not None:
                    self.cells_owned += 1
                to_start.append((key, spec))
            waiting.append((index, spec, key, False, future))

        self._launch(await self._attach_wire_warm(to_start))
        for key, spec, owner in to_forward:
            asyncio.ensure_future(self._forward_cell(key, spec, owner))

        for item in ready:
            yield item
        pending = {
            asyncio.ensure_future(self._await_cell(*entry)): None
            for entry in waiting
        }
        while pending:
            done, _ = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                del pending[task]
                yield task.result()

    async def run_cells(
        self, specs: list[CellSpec], warm: bool = False
    ) -> list[CellOutcome]:
        """Resolve ``specs`` and return outcomes in spec order."""
        outcomes: list[CellOutcome | None] = [None] * len(specs)
        async for index, outcome in self.stream_cells(specs, warm=warm):
            outcomes[index] = outcome
        return outcomes  # type: ignore[return-value]

    async def _attach_wire_warm(
        self, to_start: list[tuple[str, CellSpec]]
    ) -> list[tuple[str, CellSpec]]:
        """Rehydrate *wire-warm* cells (a ``warm_hash`` without a local
        checkpoint) before they run here.

        ``warm_from`` is a local path and never crosses the HTTP
        boundary, so a forwarded warm cell arrives as its hash alone.
        Running it as-is would simulate **cold** yet file the result
        under the warm-keyed content address -- the same address would
        hold different bits depending on routing.  Instead the
        checkpoint is re-derived locally (deterministic, so usually a
        cache probe) and the derived digest must equal the wire one; a
        cell whose checkpoint cannot be reproduced fails its waiters
        rather than poisoning the store.
        """
        loop = asyncio.get_running_loop()
        out: list[tuple[str, CellSpec]] = []
        for key, spec in to_start:
            if spec.warm_hash is None or spec.warm_from is not None:
                out.append((key, spec))
                continue
            try:
                rehydrated = await loop.run_in_executor(
                    None, self._rederive_warm, spec
                )
            except Exception as exc:
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_exception(exc)
                continue
            out.append((key, rehydrated))
        return out

    @staticmethod
    def _rederive_warm(spec: CellSpec) -> CellSpec:
        """(Thread executor.)  Rebuild the warm checkpoint a wire-warm
        cell refers to and attach it, verifying the digest."""
        if not spec.warmup_insts:
            raise SweepRequestError(
                "cell carries a warm_hash but no warmup to derive it from"
            )
        derived = derive_warm_cells(
            [dataclasses.replace(spec, warm_hash=None)]
        )[0]
        if derived.warm_hash != spec.warm_hash:
            raise SweepRequestError(
                f"cannot reproduce warm checkpoint {spec.warm_hash}: "
                f"derived {derived.warm_hash}"
            )
        return derived

    # -- cluster routing ------------------------------------------------
    def _owner_of(self, key: str) -> str | None:
        """The peer that owns ``key``, or None when this node does (or
        when there is no cluster)."""
        if self.ring is None:
            return None
        owner = self.ring.owner(key)
        return None if owner == self.node_id else owner

    async def _forward_cell(
        self, key: str, spec: CellSpec, owner: str
    ) -> None:
        """Proxy one cell to its ring owner; fall back to local
        execution if the owner is unreachable or misbehaves.

        The returned result must file under the *same* content address
        we computed -- that equality is the proof the owner simulated
        the identical cell under identical sources, and what makes
        forwarding transparent to every waiter.
        """
        from repro.serve.client import ServeError, forward_cell

        loop = asyncio.get_running_loop()
        try:
            remote_key, result = await loop.run_in_executor(
                None, forward_cell, owner, spec_to_dict(spec)
            )
            if remote_key != key:
                raise ServeError(
                    f"owner {owner} returned key {remote_key}, wanted {key}"
                )
        except Exception:
            # Owner death (or disagreement) degrades to local execution:
            # any node can resolve any cell, the ring is only the fast
            # path that keeps stores disjoint-ish.
            self.forward_fallbacks += 1
            if self.ring is not None:
                self.cells_owned += 1
            self._launch([(key, spec)])
            return
        self.cells_forwarded += 1
        # Keep a local copy: the forwarding node becomes a replica, so
        # repeat sweeps here are store hits and the cell survives the
        # owner's death (warm-handoff's standing counterpart).
        await loop.run_in_executor(None, self.store.put, spec, result)
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(result)

    def node_info(self) -> dict:
        """This node's identity + routing counters (manifest ``node``
        block and the ``node`` section of ``/stats``)."""
        return {
            "node_id": self.node_id or "",
            "peers": len(self.peers),
            "owned": self.cells_owned,
            "forwarded": self.cells_forwarded,
            "fallbacks": self.forward_fallbacks,
            "handoff_pulled": self.handoff_pulled,
        }

    async def warm_handoff(self) -> int:
        """Pull entries this node owns from its peers' stores.

        Run at join (and harmless any time): for every peer, list its
        store keys, keep the ones the ring says are *ours* and that we
        do not already hold, and fetch them in batches as raw bytes.
        Rebalancing after membership change is thereby a cache-warm
        event, not a recompute storm.  Returns how many entries landed.
        """
        from repro.serve.client import fetch_store_entries, fetch_store_keys

        if self.ring is None:
            return 0
        loop = asyncio.get_running_loop()
        pulled = 0
        local = set(await loop.run_in_executor(None, self.store.keys))
        for peer in self.peers:
            try:
                remote = await loop.run_in_executor(
                    None, fetch_store_keys, peer
                )
            except Exception:
                continue  # dead peer: nothing to pull from it
            wanted = [
                key
                for key in remote
                if key not in local and self.ring.owner(key) == self.node_id
            ]
            for start in range(0, len(wanted), 64):
                batch = wanted[start : start + 64]
                try:
                    entries = await loop.run_in_executor(
                        None, fetch_store_entries, peer, batch
                    )
                except Exception:
                    break
                for key, (data, digest) in entries.items():
                    if await loop.run_in_executor(
                        None, self.store.put_raw, key, data, digest
                    ):
                        local.add(key)
                        pulled += 1
        self.handoff_pulled += pulled
        return pulled

    @staticmethod
    async def _await_cell(
        index: int,
        spec: CellSpec,
        key: str,
        deduped: bool,
        future: asyncio.Future,
    ) -> tuple[int, CellOutcome]:
        result = await asyncio.shield(future)
        return index, CellOutcome(spec, result, key, deduped=deduped)

    # -- persistent jobs ------------------------------------------------
    def submit_job(self, payload: dict) -> dict:
        """Validate a sweep spec, durably enqueue it, and start its
        background drain; returns the ``POST /jobs`` response body."""
        if self.queue is None:
            raise SweepRequestError("this node has no job queue enabled")
        specs, options = expand_sweep(payload)
        job_id = self.queue.submit(
            [spec_to_dict(spec) for spec in specs], options
        )
        self._start_drain(job_id)
        return {"kind": "repro-serve-job", "job_id": job_id,
                "cells": len(specs)}

    def job_state(self, job_id: str) -> JobState:
        if self.queue is None:
            raise SweepRequestError("this node has no job queue enabled")
        return self.queue.load(job_id)

    def job_status(self, job_id: str) -> dict:
        task = self._job_tasks.get(job_id)
        return {
            **self.job_state(job_id).status_dict(),
            "draining": task is not None and not task.done(),
        }

    def resume_jobs(self) -> list[str]:
        """Restart the drain of every incomplete job on disk (called at
        service start; this is the ``kill -9`` resume path)."""
        if self.queue is None:
            return []
        resumed = []
        for job_id in self.queue.jobs():
            if not self.queue.load(job_id).complete:
                self._start_drain(job_id)
                resumed.append(job_id)
        return resumed

    def _start_drain(self, job_id: str) -> None:
        task = self._job_tasks.get(job_id)
        if task is not None and not task.done():
            return  # already draining in this process
        self._job_tasks[job_id] = asyncio.ensure_future(
            self._drain_job(job_id)
        )

    async def _drain_job(self, job_id: str) -> None:
        """Resolve every pending cell of one job, journaling each
        completion durably before anything else observes it.

        Claims make concurrent drains (two incarnations racing around a
        restart) mutually exclusive per cell; the journal makes every
        completion exactly-once; the content-addressed store makes the
        rare claimed-but-unjournaled replay a cache read, not a second
        simulation.
        """
        assert self.queue is not None
        loop = asyncio.get_running_loop()
        state = await loop.run_in_executor(None, self.queue.load, job_id)
        claimed = [
            index
            for index in state.pending
            if await loop.run_in_executor(
                None, self.queue.claim, job_id, index
            )
        ]
        if not claimed:
            return
        specs = [spec_from_dict(state.cells[index]) for index in claimed]
        finished: set[int] = set()
        try:
            async for pos, outcome in self.stream_cells(
                specs, warm=bool(state.options.get("warm", False))
            ):
                index = claimed[pos]
                await loop.run_in_executor(
                    None, self.queue.mark_done, job_id, index, outcome.key
                )
                finished.add(index)
        finally:
            # A failed drain (a deterministically-erroring cell, or
            # shutdown) must not wedge its unfinished claims: release
            # them so the next drain -- ours or a restarted node's --
            # can take over.
            for index in claimed:
                if index not in finished:
                    await loop.run_in_executor(
                        None, self.queue.release, job_id, index
                    )

    async def stream_job_results(
        self, job_id: str, include_results: bool = True
    ) -> AsyncIterator[dict]:
        """NDJSON lines for ``GET /jobs/<id>/results``: every finished
        cell straight from the content store, then a job summary."""
        import base64
        import pickle

        loop = asyncio.get_running_loop()
        state = self.job_state(job_id)
        streamed = 0
        missing = 0
        for index in sorted(state.done):
            # Fetch by the *journaled* key: a warm drain resolves cells
            # under warm-derived addresses, so recomputing the address
            # from the cold wire spec would miss every one of them.
            key = state.done[index]
            data = await loop.run_in_executor(None, self.store.read_raw, key)
            result = None
            if data is not None:
                try:
                    result = pickle.loads(data)
                except Exception:
                    result = None
            if not isinstance(result, SimResult):
                missing += 1  # evicted (or unreadable) since completion
                continue
            spec = spec_from_dict(state.cells[index])
            line = {
                "kind": "cell",
                "index": index,
                "key": key,
                "workload": state.cells[index]["workload"],
                "mechanism": spec.config.mechanism,
                "cycles": result.cycles,
                "ipc": round(result.ipc, 6),
                "cached": True,
                "deduped": False,
            }
            if include_results:
                line["result_b64"] = base64.b64encode(data).decode("ascii")
            streamed += 1
            yield line
        yield {
            "kind": "job-summary",
            "job_id": job_id,
            "cells": state.total,
            "done": len(state.done),
            "streamed": streamed,
            "evicted": missing,
            "duplicate_done": state.duplicate_done,
            "complete": state.complete,
        }

    # -- simulation -----------------------------------------------------
    def _launch(self, to_start: list[tuple[str, CellSpec]]) -> None:
        """Fire one task per fresh cell, on its content address's shard."""
        for key, spec in to_start:
            asyncio.ensure_future(self._run_cell(self._shard_for(key), key, spec))

    async def _run_cell(self, shard: int, key: str, spec: CellSpec) -> None:
        """Run one claimed cell on its shard and publish it.

        Mirrors the one-shot runner's self-healing ladder: a failed
        claim (worker crash, broken pool) rebuilds the shard's pool and
        retries the cell there; a cell that still fails runs serially
        on the thread executor, which cannot crash away.
        """
        loop = asyncio.get_running_loop()
        pool = self._shards()[shard]
        try:
            result: SimResult | Exception = await loop.run_in_executor(
                pool, run_cell, spec
            )
        except Exception:
            result = await self._retry_cell(shard, pool, spec)
        future = self._inflight.pop(key, None)
        if isinstance(result, Exception):
            # Deterministically failing cell: every waiter gets the
            # error (re-running it could only fail identically).
            if future is not None and not future.done():
                future.set_exception(result)
            return
        await loop.run_in_executor(None, self.store.put, spec, result)
        self.cells_simulated += 1
        if future is not None and not future.done():
            future.set_result(result)

    async def _retry_cell(
        self, shard: int, failed: Executor | None, spec: CellSpec
    ) -> SimResult | Exception:
        loop = asyncio.get_running_loop()
        executors = self._shards()
        # A broken pool fails every claim outstanding on it; only the
        # first of those retries replaces it, the rest reuse the new one.
        if executors[shard] is failed and isinstance(failed, ProcessPoolExecutor):
            failed.shutdown(wait=False, cancel_futures=True)
            executors[shard] = self._make_pool(
                self.workers or max(1, (os.cpu_count() or 1) // len(executors))
            )
        try:
            return await loop.run_in_executor(executors[shard], run_cell, spec)
        except Exception:
            # Terminal degrade: in-process (thread executor) serial
            # run, like run_cells' serial completion path.  A cell
            # that *still* raises here fails deterministically; the
            # error is routed to its waiters, never swallowed.
            try:
                return await loop.run_in_executor(None, run_cell, spec)
            except Exception as exc:
                return exc

    # -- stats ----------------------------------------------------------
    def stats_dict(self) -> dict:
        stats = {
            "kind": "repro-serve-stats",
            "uptime_s": round(time.time() - self.started, 3),
            "pools": self.pools,
            "workers": self.workers,
            "requests": self.requests,
            "cells_requested": self.cells_requested,
            "cells_simulated": self.cells_simulated,
            "inflight": len(self._inflight),
            "cache": self.store.stats_dict(),
        }
        if self.node_id:
            stats["node"] = {**self.node_info(), "peer_urls": self.peers}
        if self.queue is not None:
            jobs = self.queue.jobs()
            stats["jobs"] = {
                "total": len(jobs),
                "draining": sum(
                    1 for t in self._job_tasks.values() if not t.done()
                ),
            }
        return stats


def summarize(outcomes: list[CellOutcome]) -> dict:
    """The final Table-3-style summary line of a sweep response: one row
    per cell with headline metrics, plus resolution totals."""
    rows = [
        {
            "workload": list(o.spec.workload)
            if isinstance(o.spec.workload, tuple)
            else o.spec.workload,
            "mechanism": o.spec.config.mechanism,
            "cycles": o.result.cycles,
            "retired_user": o.result.retired_user,
            "committed_fills": o.result.committed_fills,
            "ipc": round(o.result.ipc, 6),
            "mpki": round(o.result.miss_rate_per_kilo_inst, 6),
            # Per-cause exception counts (docs/SCENARIOS.md); empty for
            # the perfect machine, which never traps.
            "exceptions_taken": dict(sorted(o.result.stats.cause_taken.items())),
        }
        for o in outcomes
    ]
    return {
        "kind": "summary",
        "cells": len(outcomes),
        "cached": sum(o.cached for o in outcomes),
        "deduped": sum(o.deduped for o in outcomes),
        "simulated": sum(
            not o.cached and not o.deduped for o in outcomes
        ),
        "table": rows,
    }
