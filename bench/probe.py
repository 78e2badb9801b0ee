"""Wrappers around the program's public entry points.

A :class:`Probe` replaces a function or method *where its caller looks
it up* (for example ``repro.experiments.table2_suite.run_benchmark``,
not ``repro.experiments.common.run_benchmark``) and restores every
original on :meth:`Probe.close`.  Nothing under ``src/`` is edited.

Two kinds of wrapper:

* **Resolution points** -- every call that hands one cell's result to
  an experiment: a result-cache hit, a cell simulated by the cell
  runtime, and the two paths that bypass it today (Table 2's
  ``run_benchmark`` and Table 3's ``run_pair``).  Each completed
  resolution is one request sample, and each is a boundary where the
  calibrator may run.  These are installed on every run.
* **Spans** (traced passes only) -- workload build, machine
  construction, the kernel (``Simulator.run``) and cache reads and
  writes.  Each span records its name, raw start and end, parent span
  and the id of the cell it belongs to; spans stay in memory until the
  run ends.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable

from bench.calibrate import Calibrator, NormClock


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    cell: int | None
    end: float = 0.0
    #: Extra facts recorded by the span's hook (kernel counts).
    info: dict = field(default_factory=dict)


class Probe:
    """Resolution accounting, calibration at cell boundaries, and span
    recording."""

    def __init__(self, clock: NormClock, calibrator: Calibrator) -> None:
        self.clock = clock
        self.calibrator = calibrator
        #: Whether resolution points open spans (set for traced passes).
        self.traced = False
        #: (raw_start, raw_end) of every cell resolution.
        self.requests: list[tuple[float, float]] = []
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._cell: int | None = None
        self._next_cell = 0
        #: group -> (owner, attr, original) of every wrapped entry point.
        self._undo: dict[str, list[tuple[Any, str, Any]]] = {}

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock.now(), parent, self._cell)
        self._stack.append(span)
        return span

    def close_span(self, span: Span) -> None:
        span.end = self.clock.now()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self.spans.append(span)

    # -- installation -----------------------------------------------------
    def _patch(self, group: str, owner: Any, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        self._undo.setdefault(group, []).append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def close(self, group: str | None = None) -> None:
        """Restore the entry points wrapped by ``group`` (``"span"`` or
        ``"resolution"``), or all of them."""
        for name in [group] if group else list(self._undo):
            undo = self._undo.pop(name, [])
            while undo:
                owner, attr, original = undo.pop()
                setattr(owner, attr, original)

    def resolution(
        self,
        owner: Any,
        attr: str,
        name: str,
        counts: Callable[[Any], bool] = lambda result: True,
    ) -> None:
        """Wrap a resolution point; ``counts(result)`` says whether the
        call resolved a cell (a cache miss does not)."""

        def make(original):
            def wrapper(*args, **kwargs):
                outer = self._cell
                if outer is None:
                    self._cell = self._next_cell
                    self._next_cell += 1
                span = self.open(name) if self.traced else None
                start = self.clock.now()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = self.clock.now()
                    if span is not None:
                        self.close_span(span)
                    self._cell = outer
                # A resolution nested in another is part of the outer one.
                resolved = counts(result) and outer is None
                if span is not None:
                    span.info["resolved"] = resolved
                if resolved:
                    self.requests.append((start, end))
                    self.calibrator.boundary()
                return result

            return wrapper

        self._patch("resolution", owner, attr, make)

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        """Wrap ``owner.attr`` in a span until ``close("span")``.
        ``before(*args)`` returns a state that ``after(state, span,
        *args)`` turns into ``span.info``."""

        def make(original):
            def wrapper(*args, **kwargs):
                state = before(*args) if before is not None else None
                span = self.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close_span(span)
                    if after is not None:
                        after(state, span, *args)

            return wrapper

        self._patch("span", owner, attr, make)

    # -- analysis ---------------------------------------------------------
    def self_times(self, spans: list[Span]) -> dict[int, float]:
        """Raw self time of each span (keyed by ``id``), calibration
        time excluded: its duration minus the part its child spans
        cover."""
        work = self.clock.raw_work
        own = {id(s): work(s.start, s.end) for s in spans}
        for s in spans:
            if s.parent is not None and id(s.parent) in own:
                own[id(s.parent)] -= work(s.start, s.end)
        return own
