"""The ``service`` workload: a closed loop against ``repro-serve serve``.

Set-up boots one server subprocess (1 pool x 1 worker, fresh store)
and primes it with sweeps of every (workload, mechanism) pair, eight
cells a request; that is sampled five times and the last server is
kept.  Two client
threads then send a seeded sequence of ``cells`` sweeps in rounds of
:data:`ROUND`, each client sending its next request only when the
previous one has answered.  Between rounds the server is idle and both
CPUs are calibrated.  A pass is the 40 rounds in which every pair is
missed :data:`LAPS` times.

Request classes, fixed per round:

* ``miss`` -- one never-seen short cell from the candidate pool (the
  simulation path);
* ``recent`` -- re-fetches the cells of the miss just before it, which
  the other client usually still has in flight (in-flight dedupe);
* ``hit`` -- four finished cells: primed ones and misses of earlier
  rounds (the store's read path).

So 70 % of requests re-fetch finished or in-flight cells and 30 % carry
new ones: the median lands inside the hit mode and the 95th percentile
inside the miss mode.  Every returned summary row is checked against
``golden/service.json``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from bench.calibrate import (
    EDGE_SAMPLES,
    NormClock,
    PairedCalibration,
    startup_samples,
)
from bench.common import PER_LAYER, ROOT, quantile

GOLDEN = Path(__file__).resolve().parent / "golden" / "service.json"

MECHANISMS = ("perfect", "traditional", "multithreaded", "hardware", "quickstart")
WARMUP = 50
#: Primed cells run this many user instructions; miss cells run
#: ``PRIMED_INSTS + 1 ... PRIMED_INSTS + MISS_LENGTHS`` so each is new.
PRIMED_INSTS = 150
MISS_LENGTHS = 12
#: Request classes of one round, in the order the clients pick them up.
ROUND = ("miss", "recent", "hit", "hit", "miss", "hit", "hit", "miss", "hit", "hit")
CELLS_PER = {"miss": 1, "hit": 4}
#: Misses per pass: every (workload, mechanism) pair LAPS times.
LAPS = 3
#: Fewest passes in a run: 800 requests, 40 beyond the 95th percentile.
MIN_PASSES = 2
CLIENTS = 2
#: Set-up samples per run (the metric is their median).
SETUP_SAMPLES = 5
#: Cells per priming request.
PRIME_CELLS = 8


def cell(workload: str, mechanism: str, insts: int) -> dict:
    return {
        "workload": workload,
        "config": {"mechanism": mechanism},
        "user_insts": insts,
        "warmup_insts": WARMUP,
    }


def cell_key(c: dict) -> str:
    return f"{c['workload']}|{c['config']['mechanism']}|{c['user_insts']}|{c['warmup_insts']}"


def combos() -> list[tuple[str, str]]:
    from repro.workloads.suite import BENCHMARK_NAMES

    return [(w, m) for w in BENCHMARK_NAMES for m in MECHANISMS]


def primed_cells() -> list[dict]:
    return [cell(w, m, PRIMED_INSTS) for w, m in combos()]


def candidate_pool() -> list[dict]:
    """Every cell the workload can ever request (the golden table)."""
    return primed_cells() + [
        cell(w, m, PRIMED_INSTS + j)
        for j in range(1, MISS_LENGTHS + 1)
        for w, m in combos()
    ]


def load_golden() -> dict[str, dict]:
    with GOLDEN.open() as fh:
        return json.load(fh)["rows"]


def summary_row(row: dict) -> dict:
    """The fields of a summary row the golden table pins."""
    return {
        "cycles": row["cycles"],
        "retired_user": row["retired_user"],
        "committed_fills": row["committed_fills"],
        "exceptions_taken": row["exceptions_taken"],
    }


class RequestPlan:
    """The seeded request sequence, one round at a time.

    Each lap of misses walks a fresh seeded permutation of every
    (workload, mechanism) pair at a new run length, and a pass is
    :data:`LAPS` laps, so every pass misses on the same multiset of
    pairs whatever the seed; hits draw from cells finished before the
    round began."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.pairs = combos()
        self.finished = primed_cells()
        self.laps: list[list[tuple[str, str]]] = []
        self.next_miss = 0

    def rounds_per_pass(self) -> int:
        return len(self.pairs) * LAPS // ROUND.count("miss")

    def passes_left(self) -> int:
        return (len(self.pairs) * MISS_LENGTHS - self.next_miss) // (
            len(self.pairs) * LAPS
        )

    def _miss(self) -> dict:
        lap, pos = divmod(self.next_miss, len(self.pairs))
        if lap == len(self.laps):
            order = list(self.pairs)
            self.rng.shuffle(order)
            self.laps.append(order)
        self.next_miss += 1
        w, m = self.laps[lap][pos]
        return cell(w, m, PRIMED_INSTS + 1 + lap)

    def round(self) -> list[tuple[str, list[dict]]]:
        requests: list[tuple[str, list[dict]]] = []
        new: list[dict] = []
        last_miss: list[dict] = []
        for kind in ROUND:
            if kind == "miss":
                cells = [self._miss() for _ in range(CELLS_PER["miss"])]
                new += cells
                last_miss = cells
            elif kind == "recent":
                cells = list(last_miss)
            else:
                cells = self.rng.sample(self.finished, CELLS_PER["hit"])
            requests.append((kind, cells))
        self.finished += new
        return requests


@dataclass
class Request:
    kind: str
    cells: list[dict]
    start: float = 0.0
    end: float = 0.0
    ok: bool = False
    counts: dict = field(default_factory=dict)


def check_response(request: Request, events: list[dict], golden: dict) -> bool:
    summary = [e for e in events if e.get("kind") == "summary"]
    if len(summary) != 1 or len(summary[0]["table"]) != len(request.cells):
        return False
    request.counts = {
        k: summary[0][k] for k in ("cached", "deduped", "simulated")
    }
    for c, row in zip(request.cells, summary[0]["table"]):
        want = golden.get(cell_key(c))
        if want is None or summary_row(row) != want:
            print(f"golden: {cell_key(c)}: got {summary_row(row)}, want {want}",
                  file=sys.stderr)
            return False
    return True


def send(url: str, request: Request, golden: dict, now) -> None:
    """Send one sweep, time it, and check every returned row."""
    from repro.serve.client import ServeError, SweepClient

    request.start = now()
    try:
        events = list(SweepClient(url, timeout=120).sweep(
            {"cells": request.cells, "include_results": False}
        ))
    except (ServeError, OSError, ValueError, http.client.HTTPException) as exc:
        request.end = now()
        print(f"service: request failed: {exc}", file=sys.stderr)
        return
    request.end = now()
    request.ok = check_response(request, events, golden)


# -- the server process ---------------------------------------------------

def _group_members(pgid: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _proc_fields(pid: int) -> tuple[float, float]:
    """(cpu seconds, peak RSS in MB) of one process."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    peak = 0.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                peak = int(line.split()[1]) / 1024.0
    return cpu, peak


class Server:
    """One ``repro-serve serve`` subprocess in a process group of its
    own, so it and its pool worker can be stopped together."""

    def __init__(self, tmp: Path, index: int) -> None:
        self.dir = tmp / f"server{index}"
        self.dir.mkdir(parents=True)
        self.log = self.dir / "stdout.txt"
        with self.log.open("w") as out, (self.dir / "stderr.txt").open("w") as err:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.serve", "serve",
                    "--port", "0", "--pools", "1", "--workers", "1",
                    "--cache-dir", str(self.dir / "store"),
                ],
                cwd=ROOT, env=os.environ, stdout=out, stderr=err,
                start_new_session=True,
            )
        self.url = self._wait_for_url()

    def _wait_for_url(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log.read_text()
            if "listening on " in text:
                return text.split("listening on ", 1)[1].split()[0]
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"server did not start: {self.dir / 'stderr.txt'}")

    def usage(self) -> tuple[float, float]:
        """(cpu seconds, summed peak RSS in MB) of the process tree."""
        cpu = peak = 0.0
        for pid in _group_members(self.proc.pid):
            try:
                c, p = _proc_fields(pid)
            except OSError:
                continue
            cpu, peak = cpu + c, peak + p
        return cpu, peak

    def stats(self) -> dict:
        from repro.serve.client import SweepClient

        return SweepClient(self.url, timeout=30).stats()

    def stop(self) -> None:
        pgid = self.proc.pid
        for sig, wait in ((signal.SIGINT, 10.0), (signal.SIGKILL, 10.0)):
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                break
            try:
                self.proc.wait(timeout=wait)
            except subprocess.TimeoutExpired:
                continue
            deadline = time.monotonic() + wait
            while _group_members(pgid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if not _group_members(pgid):
                break
        self.proc.wait()


# -- the workload ---------------------------------------------------------

@dataclass
class Pass:
    start: float
    end: float
    requests: list[Request]


def run_round(url: str, plan: list[tuple[str, list[dict]]], golden, now) -> list[Request]:
    """Two closed-loop clients drain one round's requests."""
    requests = [Request(kind, cells) for kind, cells in plan]
    queue = deque(requests)
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                if not queue:
                    return
                request = queue.popleft()
            send(url, request, golden, now)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return requests


def boot(tmp: Path, index: int) -> tuple[Server, float, float]:
    """Start a server: (server, normalised seconds, raw seconds).

    Booting is interpreter start-up, so it is scaled by the start-up
    calibration rather than the loop."""
    started: list[Server] = []
    norm, raw = startup_samples(
        lambda: started.append(Server(tmp, index)), 1, ROOT, os.environ
    )
    return started[0], norm[0], raw[0]


def prime(server: Server, golden: dict, clock: NormClock
          ) -> tuple[list[Request], float, float]:
    """Sweep every primed cell, :data:`PRIME_CELLS` per request with a
    calibration between requests: (requests, normalised seconds, raw
    seconds)."""
    cells = primed_cells()
    requests = []
    clock.calibrate(EDGE_SAMPLES)
    start = clock.now()
    for first in range(0, len(cells), PRIME_CELLS):
        if first:
            clock.calibrate()
        request = Request("prime", cells[first:first + PRIME_CELLS])
        send(server.url, request, golden, clock.now)
        requests.append(request)
    end = clock.now()
    clock.calibrate(EDGE_SAMPLES)
    return requests, clock.span(start, end), clock.raw_work(start, end)


def run(seconds: float, traced: bool, tmp: Path, seed: int) -> dict:
    golden = load_golden()
    paired = PairedCalibration()
    clock = NormClock(paired.measure)
    attempted = failed = 0
    #: Normalised and raw seconds of each set-up sample.
    setups: list[float] = []
    raw_setups: list[float] = []
    server = None
    try:
        for index in range(SETUP_SAMPLES):
            if server is not None:
                server.stop()
            server, boot_s, raw_boot_s = boot(tmp, index)
            primes, prime_s, raw_prime_s = prime(server, golden, clock)
            setups.append(boot_s + prime_s)
            raw_setups.append(raw_boot_s + raw_prime_s)
            attempted += len(primes)
            failed += sum(not r.ok for r in primes)

        plan = RequestPlan(seed)
        stats_before = server.stats()
        cpu_before = server.usage()[0]
        passes: list[Pass] = []
        region_start = clock.now()
        while plan.passes_left():
            if len(passes) >= MIN_PASSES:
                last = passes[-1].end - passes[-1].start
                if clock.now() - region_start + last > seconds:
                    break
            start, requests = clock.now(), []
            for index in range(plan.rounds_per_pass()):
                if index:
                    clock.calibrate()
                requests += run_round(server.url, plan.round(), golden, clock.now)
            end = clock.now()
            clock.calibrate(EDGE_SAMPLES)
            passes.append(Pass(start, end, requests))
            attempted += len(requests)
            failed += sum(not r.ok for r in requests)
        cpu_s, peak_mb = server.usage()
        cpu_s -= cpu_before
        stats_after = server.stats()
    finally:
        if server is not None:
            server.stop()
        paired.close()

    timed_requests = [q for p in passes for q in p.requests]
    norm_passes = [clock.span(p.start, p.end) for p in passes]
    latencies = [ms for p in passes for ms in _latencies_ms(clock, p)]
    raw_latencies = [(q.end - q.start) * 1e3 for q in timed_requests]
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.fmean(norm_passes),
        "req_p50_ms": statistics.median(latencies),
        "req_p95_ms": quantile(latencies, 95),
        "peak_rss_mb": peak_mb,
    }
    raw = {
        "host.setup_s": statistics.median(raw_setups),
        "host.pass_s": statistics.fmean(clock.raw_work(p.start, p.end) for p in passes),
        "host.req_p50_ms": statistics.median(raw_latencies),
        "host.req_p95_ms": quantile(raw_latencies, 95),
        "host.cpu_s": cpu_s,
        "host.calib_ms": clock.mean_calibration() * 1e3,
        "passes_s": [round(n, 4) for n in norm_passes],
        "requests": len(timed_requests),
    }
    if traced:
        metrics = per_layer(clock, passes, stats_before, stats_after, cpu_s,
                            plan.rounds_per_pass())
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "raw": raw}


def per_layer(clock: NormClock, passes: list[Pass], before: dict,
              after: dict, cpu_s: float, rounds_per_pass: int) -> dict:
    """Service-side per-layer numbers, counts per round; other layers
    are 0.  The service runs in another process, so nothing here is
    spanned: the passes are the untraced ones, ``trace.overhead`` is 1
    and ``trace.self_sum_s`` is the time at least one request was open."""
    metrics = {name: 0.0 for name in PER_LAYER}
    requests = [q for p in passes for q in p.requests]
    n = len(passes) * rounds_per_pass

    def p50(kind: str) -> float:
        values = [ms for p in passes for ms in _latencies_ms(clock, p, kind)]
        return statistics.median(values) if values else 0.0

    def delta(key: str) -> float:
        return (after["cache"][key] - before["cache"][key]) / n

    def total(key: str) -> float:
        return sum(q.counts.get(key, 0) for q in requests) / n

    metrics.update({
        "serve.hit_req_ms.p50": p50("hit"),
        "serve.miss_req_ms.p50": p50("miss"),
        "serve.cells.cached": total("cached"),
        "serve.cells.deduped": total("deduped"),
        "serve.cells.simulated": total("simulated"),
        "serve.store.hits": delta("hits"),
        "serve.store.misses": delta("misses"),
        "serve.store.puts": delta("puts"),
        "host.raw_wall_s": statistics.median(
            clock.raw_work(p.start, p.end) for p in passes
        ),
        "host.cpu_s": cpu_s,
        "host.calib_ms": clock.mean_calibration() * 1e3,
        "trace.overhead": 1.0,
        "trace.region_s": statistics.fmean(
            clock.span(p.start, p.end) for p in passes
        ),
        "trace.self_sum_s": statistics.fmean(_covered(clock, p) for p in passes),
    })
    return metrics


def _latencies_ms(clock: NormClock, p: Pass, kind: str | None = None) -> list[float]:
    """Normalised latencies of a pass's requests (of one class)."""
    return [
        (q.end - q.start) * clock.local_factor(q.start) * 1e3
        for q in p.requests if kind is None or q.kind == kind
    ]


def _covered(clock: NormClock, p: Pass) -> float:
    """Normalised time in which at least one request was open
    (calibrations run between rounds, when none is)."""
    covered, reach = 0.0, None
    for q in sorted(p.requests, key=lambda q: q.start):
        if reach is None or q.start > reach:
            covered += q.end - q.start
            reach = q.end
        elif q.end > reach:
            covered += q.end - reach
            reach = q.end
    return covered * clock.factor(p.start, p.end)
