"""The top-level simulator: wires programs, machine, and mechanism.

Typical use::

    from repro.sim import MachineConfig, Simulator
    from repro.workloads import build_benchmark

    program = build_benchmark("compress")
    sim = Simulator(program, MachineConfig(mechanism="multithreaded"))
    result = sim.run(user_insts=20_000)
    print(result.cycles, result.committed_fills)

Multiple programs run as co-scheduled SMT application threads (each in
its own address-space slice); ``config.idle_threads`` extra contexts are
created for exception handling.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.branch.unit import BranchPredictionUnit, BranchStats
from repro.exceptions import handler_length, make_mechanism
from repro.exceptions.handler_code import CAUSE_HANDLERS, emul_handler_length
from repro.exceptions.base import MechanismStats
from repro.isa.program import Program
from repro.memory.cache import CacheStats
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.main_memory import MainMemory
from repro.memory.page_table import PageTable
from repro.memory.tlb import PerfectTLB, TLB, TLBStats
from repro.pipeline.core import SMTCore
from repro.sim.config import MachineConfig
from repro.sim.stats import SimStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.events import EventBus


@dataclass
class SimResult:
    """Everything a run produced, for metrics and experiment tables.

    ``cycles`` / ``committed_fills`` / ``retired_user`` cover the
    *measurement window* (after any warm-up); the raw whole-run counters
    remain available in ``stats``.
    """

    cycles: int
    mechanism: str
    stats: SimStats
    tlb: TLBStats
    branch: BranchStats
    mech: MechanismStats | None
    l1d: CacheStats
    l2: CacheStats
    committed_fills: int = 0
    retired_user: int = 0
    per_thread_user: list[int] = field(default_factory=list)
    # Checkpoint lineage ({"hash", "kind", "warmup_insts"}) when this run
    # started from a restored snapshot; None for cold runs.  Excluded from
    # equality: two runs with identical architecture stats are the same
    # result regardless of how their warm state was produced.
    checkpoint: dict | None = field(default=None, compare=False)

    @property
    def ipc(self) -> float:
        """User-instruction IPC over the measurement window."""
        return self.retired_user / self.cycles if self.cycles else 0.0

    @property
    def miss_rate_per_kilo_inst(self) -> float:
        """Committed TLB fills per 1000 retired user instructions."""
        if not self.retired_user:
            return 0.0
        return 1000.0 * self.committed_fills / self.retired_user


class Simulator:
    """Build and run one simulated machine."""

    def __init__(
        self,
        programs: Program | list[Program],
        config: MachineConfig | None = None,
        listeners: "EventBus | None" = None,
    ) -> None:
        if isinstance(programs, Program):
            programs = [programs]
        if not programs:
            raise ValueError("need at least one program")
        base_config = config or MachineConfig()
        total_contexts = len(programs) + base_config.idle_threads
        self.config = dataclasses.replace(base_config, num_threads=total_contexts)
        self.programs = programs

        self.memory = MainMemory()
        self.hierarchy = MemoryHierarchy(self.config.hierarchy)
        self.page_table = PageTable(self.memory)
        if self.config.mechanism == "perfect":
            self.dtlb: TLB | PerfectTLB = PerfectTLB()
        else:
            self.dtlb = TLB(self.config.dtlb_entries)
        # The ITLB is opt-in (repro.scenarios): itlb_entries == 0 keeps
        # the seed machine, whose fetch path performs no translation.
        self.itlb: TLB | PerfectTLB | None = None
        if self.config.itlb_entries:
            if self.config.mechanism == "perfect":
                self.itlb = PerfectTLB()
            else:
                self.itlb = TLB(self.config.itlb_entries)
        self.bpu = BranchPredictionUnit()
        self.mechanism = make_mechanism(self.config.mechanism)
        self.core = SMTCore(
            self.config,
            self.memory,
            self.hierarchy,
            self.dtlb,
            self.page_table,
            self.bpu,
            self.mechanism,
            itlb=self.itlb,
        )
        if listeners is not None:
            self.core.listeners = listeners
        self.checkpoint_lineage: dict | None = None
        for tid, program in enumerate(programs):
            self.core.load_program(tid, program)
            for segment in program.data_segments:
                self.page_table.map_range(segment.base, segment.size_bytes)
            for base, size in program.regions:
                self.page_table.map_range(base, size)
            if self.itlb is not None:
                # Fetch translation is live: the text range (including the
                # PAL area) needs valid PTEs for the ITLB handler's walk.
                self.page_table.map_range(0, len(program) * 4)
        # Window reservations use the *common-case* handler lengths
        # (perfect handler-length prediction, Table 1).
        self.core.handler_lengths["dtlb_miss"] = handler_length()
        if "emul" in self.core.pal_entries:
            self.core.handler_lengths["emul"] = emul_handler_length()
        for cause, (_, length_fn) in CAUSE_HANDLERS.items():
            if cause in ("dtlb_miss", "emul"):
                continue
            if cause in self.core.pal_entries:
                self.core.handler_lengths[cause] = length_fn()
        self._prewarm()

    def _prewarm(self) -> None:
        """Start from a checkpoint-like warm state (paper methodology):
        hot data structures and the touched page-table lines begin in L2."""
        for program in self.programs:
            for base, size in program.warm_ranges:
                self.hierarchy.l2.prewarm(base, size)
        for vpn in sorted(self.page_table.mapped_vpns()):
            self.hierarchy.l2.prewarm(self.page_table.pte_address(vpn), 8)

    def run(
        self,
        user_insts: int = 20_000,
        max_cycles: int = 10_000_000,
        warmup_insts: int = 3_000,
    ) -> SimResult:
        """Warm up, then measure.

        First runs ``warmup_insts`` user instructions per thread (TLB,
        L1, and predictors settle), then measures until every application
        thread has retired ``warmup_insts + user_insts``.
        """
        if warmup_insts:
            self.core.run(warmup_insts, max_cycles)
        start_cycle = self.core.cycle
        start_fills = (
            self.mechanism.stats.committed_fills if self.mechanism else 0
        )
        start_user = self.core.stats.retired_user
        self.core.run(user_insts, max_cycles)
        return self.result(
            since=(start_cycle, start_fills, start_user)
        )

    def step(self, cycles: int = 1) -> None:
        """Advance the machine by ``cycles`` cycles (for tests/examples)."""
        for _ in range(cycles):
            self.core.step()

    def quiesce(self) -> None:
        """Drain every in-flight instruction, leaving only architectural
        state (memory, caches, TLB, predictors, registers, counters).
        Used before saving a warm checkpoint that a *different* exception
        mechanism will attach to."""
        self.core.drain_in_flight(self.core.cycle)

    def save_checkpoint(self, path, kind: str = "exact", extra_meta=None) -> str:
        """Snapshot the complete machine state to ``path``; returns the
        checkpoint hash.  Only legal between ``step()`` boundaries."""
        from repro.checkpoint.state import save_simulator_checkpoint

        return save_simulator_checkpoint(self, path, kind=kind, extra_meta=extra_meta)

    def restore_checkpoint(self, path, warm: bool = False) -> dict:
        """Replace this machine's state with a checkpoint's; returns the
        checkpoint header.  ``warm=True`` keeps this simulator's own
        (fresh) exception-mechanism state so any mechanism can attach to
        a shared warm snapshot."""
        from repro.checkpoint.state import restore_simulator_checkpoint

        return restore_simulator_checkpoint(self, path, warm=warm)

    def result(self, since: tuple[int, int, int] = (0, 0, 0)) -> SimResult:
        start_cycle, start_fills, start_user = since
        fills = self.mechanism.stats.committed_fills if self.mechanism else 0
        return SimResult(
            cycles=self.core.cycle - start_cycle,
            mechanism=self.config.mechanism,
            stats=self.core.stats,
            tlb=self.dtlb.stats,
            branch=self.bpu.stats,
            mech=self.mechanism.stats if self.mechanism is not None else None,
            l1d=self.hierarchy.l1d.stats,
            l2=self.hierarchy.l2.stats,
            committed_fills=fills - start_fills,
            retired_user=self.core.stats.retired_user - start_user,
            per_thread_user=[t.retired_user for t in self.core.threads],
            checkpoint=self.checkpoint_lineage,
        )
