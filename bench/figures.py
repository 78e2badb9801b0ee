"""The ``figures-cold`` workload.

It runs every experiment's ``main()`` from
``repro.experiments.cli.EXPERIMENTS`` in ``ALL_ORDER``, in-process and
serially -- what ``repro-experiments all`` runs -- and checks each
experiment's printed output against ``golden/figures.json``.  Every
pass starts from an empty result cache, so the cycle kernel, workload
builds and machine construction dominate.  Set-up is a fresh
interpreter importing the experiments CLI and hashing the sources for
the cache key.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from bench.calibrate import (
    EDGE_SAMPLES,
    Calibrator,
    NormClock,
    run_interpreter,
    startup_samples,
)
from bench.common import PER_LAYER, ROOT, quantile, self_peak_rss_mb
from bench.probe import Probe, Span

GOLDEN = Path(__file__).resolve().parent / "golden" / "figures.json"

#: What a fresh ``repro-experiments`` process does before its first
#: cell: import the CLI and fingerprint the sources for cache keys.
STARTUP = (
    "import repro.experiments.cli\n"
    "from repro.sim.parallel import engine_fingerprint\n"
    "engine_fingerprint()\n"
)
#: Set-up samples per run (the metric is their median), and start-ups
#: timed back to back in one sample.
STARTUP_SAMPLES = 9
STARTUP_REPEATS = 3


def load_golden() -> dict[str, str]:
    with GOLDEN.open() as fh:
        return json.load(fh)["outputs"]


def install_resolutions(probe: Probe) -> None:
    """Every call that hands one cell's result to an experiment."""
    import repro.experiments.table2_suite as table2
    import repro.sim.metrics as metrics
    import repro.sim.parallel as parallel

    probe.resolution(
        parallel.ResultCache, "get", "cache.get",
        counts=lambda result: result is not None,
    )
    probe.resolution(parallel, "run_cell", "cells.run_cell")
    probe.resolution(table2, "run_benchmark", "cells.run_benchmark")
    probe.resolution(metrics, "run_pair", "cells.run_pair")


def _machine_counts(sim, *_) -> tuple[int, int, int, int]:
    core = sim.core
    fills = sim.mechanism.stats.committed_fills if sim.mechanism else 0
    return (
        core.cycle,
        core.stats.retired_user,
        sum(core.stats.cause_taken.values()),
        fills,
    )


def _kernel_after(before, span: Span, sim, *args) -> None:
    after = _machine_counts(sim)
    cycles, user, taken, fills = (a - b for a, b in zip(after, before))
    span.info = {
        "mech": "mix" if len(sim.programs) > 1 else sim.config.mechanism,
        "cycles": cycles,
        "user": user,
        "taken": taken,
        "fills": fills,
    }


def install_spans(probe: Probe) -> None:
    """Layer spans for a traced pass, each at the module its caller
    looks the function up in."""
    import repro.experiments.table2_suite as table2
    import repro.sim.parallel as parallel
    import repro.workloads as workloads
    from repro.sim.simulator import Simulator

    probe.span(parallel.ResultCache, "put", "cache.put")
    probe.span(parallel, "build_benchmark", "workloads.build")
    probe.span(parallel, "build_mix", "workloads.build")
    probe.span(table2, "build_benchmark", "workloads.build")
    probe.span(workloads, "build_benchmark", "workloads.build")
    probe.span(Simulator, "__init__", "sim.construct")
    probe.span(
        Simulator, "run", "kernel", before=_machine_counts, after=_kernel_after
    )


@dataclass
class Pass:
    traced: bool
    start: float
    end: float
    cpu_s: float
    #: Slices of ``probe.requests`` and ``probe.spans`` this pass made.
    requests: slice
    spans: slice
    attempted: int
    failed: int


class FigureRun:
    """One process's worth of figure passes."""

    def __init__(self, tmp: Path, golden: dict[str, str]) -> None:
        from repro.experiments.cli import ALL_ORDER, EXPERIMENTS

        self.tmp = tmp
        self.golden = golden
        self.order = ALL_ORDER
        self.experiments = EXPERIMENTS
        self.clock = NormClock()
        self.calibrator = Calibrator(self.clock)
        self.probe = Probe(self.clock, self.calibrator)
        install_resolutions(self.probe)
        self.passes: list[Pass] = []
        #: Normalised and raw seconds of each set-up sample.
        self.setups: list[float] = []
        self.raw_setups: list[float] = []
        self._fresh = 0

    def fresh_cache(self) -> None:
        self._fresh += 1
        os.environ["REPRO_CACHE_DIR"] = str(self.tmp / f"cache{self._fresh}")

    # -- set-up -----------------------------------------------------------
    def startup_setup(self) -> None:
        """Sample a fresh interpreter's start-up."""
        def sample() -> None:
            for _ in range(STARTUP_REPEATS):
                run_interpreter(STARTUP, ROOT, os.environ)

        norm, raw = startup_samples(sample, STARTUP_SAMPLES, ROOT, os.environ)
        self.setups = [n / STARTUP_REPEATS for n in norm]
        self.raw_setups = [r / STARTUP_REPEATS for r in raw]

    # -- passes -----------------------------------------------------------
    def run_pass(self, traced: bool) -> Pass:
        probe = self.probe
        if traced:
            install_spans(probe)
            probe.traced = True
        first_request, first_span = len(probe.requests), len(probe.spans)
        attempted = failed = 0
        self.calibrator.force(EDGE_SAMPLES)
        start, cpu = self.clock.now(), time.process_time()
        try:
            for name in self.order:
                span = probe.open(f"experiments.{name}") if traced else None
                attempted += 1
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out):
                        self.experiments[name]()
                except Exception:  # noqa: BLE001 - counted, run continues
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                else:
                    if out.getvalue() != self.golden.get(name):
                        failed += 1
                        _report_mismatch(name, out.getvalue(), self.golden.get(name))
                finally:
                    if span is not None:
                        probe.close_span(span)
        finally:
            end, cpu = self.clock.now(), time.process_time() - cpu
            self.calibrator.force(EDGE_SAMPLES)
            if traced:
                probe.close("span")
                probe.traced = False
        record = Pass(
            traced, start, end, cpu,
            slice(first_request, len(probe.requests)),
            slice(first_span, len(probe.spans)),
            attempted, failed,
        )
        self.passes.append(record)
        return record

    def norm(self, p: Pass) -> float:
        return self.clock.span(p.start, p.end)

    # -- results ----------------------------------------------------------
    def tally(self) -> tuple[int, int]:
        return (
            sum(p.attempted for p in self.passes),
            sum(p.failed for p in self.passes),
        )

    def end_to_end(self) -> tuple[dict, dict]:
        """(normalised end-to-end metrics, raw host numbers)."""
        clock = self.clock
        timed = [p for p in self.passes if not p.traced]
        norm_passes = [self.norm(p) for p in timed]
        latencies, raw_latencies = [], []
        for p in timed:
            for start, end in self.probe.requests[p.requests]:
                latencies.append((end - start) * clock.local_factor(start) * 1e3)
                raw_latencies.append((end - start) * 1e3)
        metrics = {
            "setup_s": statistics.median(self.setups),
            "pass_s": statistics.fmean(norm_passes),
            "req_p50_ms": statistics.median(latencies),
            "req_p95_ms": quantile(latencies, 95),
            "peak_rss_mb": self_peak_rss_mb(),
        }
        raw = {
            "host.setup_s": statistics.median(self.raw_setups),
            "host.pass_s": statistics.fmean(
                [clock.raw_work(p.start, p.end) for p in timed]
            ),
            "host.req_p50_ms": statistics.median(raw_latencies),
            "host.req_p95_ms": quantile(raw_latencies, 95),
            "host.cpu_s": statistics.fmean([p.cpu_s for p in timed]),
            "host.calib_ms": clock.mean_calibration() * 1e3,
            "passes_s": [round(n, 4) for n in norm_passes],
            "requests": len(latencies),
        }
        return metrics, raw

    def per_layer(self) -> dict:
        """Per-layer numbers, per traced pass (see ``common.PER_LAYER``).
        Times are normalised by their pass's factor."""
        clock = self.clock
        traced = [p for p in self.passes if p.traced]
        untraced = [p for p in self.passes if not p.traced]
        n = len(traced)
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        kips_user: dict[str, int] = {}
        kips_time: dict[str, float] = {}
        kernel: list = []
        own_sum = 0.0
        for p in traced:
            factor = clock.factor(p.start, p.end)
            spans = self.probe.spans[p.spans]
            own = self.probe.self_times(spans)
            for s in spans:
                seconds = own[id(s)] * factor
                own_sum += seconds
                group = "cells" if s.name.startswith("cells.") else s.name
                total[group] = total.get(group, 0.0) + seconds
                calls[group] = calls.get(group, 0) + 1
                if s.name.startswith("experiments."):
                    # Inclusive time, beside the self time kept above.
                    key = f"{s.name}_s"
                    total[key] = total.get(key, 0.0) + factor * clock.raw_work(
                        s.start, s.end
                    )
                if s.name == "kernel":
                    kernel.append(s)
                    mech = s.info["mech"]
                    kips_user[mech] = kips_user.get(mech, 0) + s.info["user"]
                    kips_time[mech] = kips_time.get(mech, 0.0) + seconds
        resolved = {"simulated": 0, "cached": 0}
        for p in traced:
            for s in self.probe.spans[p.spans]:
                if s.info.get("resolved"):
                    kind = "cached" if s.name == "cache.get" else "simulated"
                    resolved[kind] += 1
        cycles = sum(s.info["cycles"] for s in kernel)
        kernel_s = total.get("kernel", 0.0)
        region = sum(self.norm(p) for p in traced)
        untraced_pass = statistics.median(self.norm(p) for p in untraced)
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update({
            f"experiments.{name}_s": total.get(f"experiments.{name}_s", 0.0) / n
            for name in self.order
        })
        metrics.update({
            "experiments.self_s": sum(
                v for k, v in total.items()
                if k.startswith("experiments.") and not k.endswith("_s")
            ) / n,
            "cells.simulated": resolved["simulated"] / n,
            "cells.cached": resolved["cached"] / n,
            "cells.self_s": total.get("cells", 0.0) / n,
            "cache.get_s": total.get("cache.get", 0.0) / n,
            "cache.get_calls": calls.get("cache.get", 0) / n,
            "cache.put_s": total.get("cache.put", 0.0) / n,
            "cache.put_calls": calls.get("cache.put", 0) / n,
            "workloads.build_s": total.get("workloads.build", 0.0) / n,
            "workloads.build_calls": calls.get("workloads.build", 0) / n,
            "sim.construct_s": total.get("sim.construct", 0.0) / n,
            "sim.construct_calls": calls.get("sim.construct", 0) / n,
            "kernel.s": kernel_s / n,
            "kernel.cycles": cycles / n,
            "kernel.user_insts": sum(kips_user.values()) / n,
            "kernel.ns_per_cycle": kernel_s / cycles * 1e9 if cycles else 0.0,
            "exceptions.taken": sum(s.info["taken"] for s in kernel) / n,
            "exceptions.committed_fills": sum(
                s.info["fills"] for s in kernel
            ) / n,
            "host.raw_wall_s": statistics.median(
                clock.raw_work(p.start, p.end) for p in untraced
            ),
            "host.cpu_s": statistics.median(p.cpu_s for p in untraced),
            "host.calib_ms": clock.mean_calibration() * 1e3,
            "trace.overhead": (region / n) / untraced_pass,
            "trace.region_s": region / n,
            "trace.self_sum_s": own_sum / n,
        })
        for mech in ("perfect", "traditional", "multithreaded", "hardware",
                     "quickstart", "mix"):
            seconds = kips_time.get(mech, 0.0)
            metrics[f"kernel.kips.{mech}"] = (
                kips_user.get(mech, 0) / seconds / 1e3 if seconds else 0.0
            )
        return metrics


def _report_mismatch(name: str, got: str, want: str | None) -> None:
    if want is None:
        print(f"golden: no entry for {name}", file=sys.stderr)
        return
    for number, (a, b) in enumerate(
        zip(got.splitlines(), want.splitlines()), start=1
    ):
        if a != b:
            print(
                f"golden: {name} line {number}: got {a!r}, want {b!r}",
                file=sys.stderr,
            )
            return
    print(f"golden: {name} output length differs", file=sys.stderr)


def run(seconds: float, traced: bool, tmp: Path) -> dict:
    """Run ``figures-cold``; returns the pieces of the result line.

    An untraced run makes one pass and more while the next still fits
    in ``seconds``; a traced run makes an untraced and a traced pass."""
    run = FigureRun(tmp, load_golden())
    run.startup_setup()
    region_start = time.perf_counter()
    for kind in (False, True) if traced else (False,):
        run.fresh_cache()
        run.run_pass(traced=kind)
    while not traced:
        last = run.passes[-1]
        elapsed = time.perf_counter() - region_start
        if elapsed + (last.end - last.start) > seconds:
            break
        run.fresh_cache()
        run.run_pass(traced=False)
    run.probe.close()
    attempted, failed = run.tally()
    metrics, raw = run.end_to_end()
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": run.per_layer() if traced else metrics,
        "raw": raw,
    }
