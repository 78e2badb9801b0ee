"""Shared diagnostic record for every analysis pass.

All four passes (guest-program lint, pipeline sanitizer, architecture
lint, handler restartability) report through one
machine-readable shape so the CLI can render them uniformly
(``--format text`` / ``--format json`` / ``--format sarif``) and CI
can gate on severity without caring which pass produced a finding.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail the lint (non-zero exit); ``WARNING``
    findings are reported but only fail under ``--strict``.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding, locatable to a unit and (where known) a PC or line.

    ``unit`` names what was analyzed: a benchmark name, a handler, an
    example file, or a source module (architecture pass).  ``pc`` is an
    instruction index for guest findings, ``line`` a source line number
    for source-level and architecture findings; either may be ``None``
    when the finding is not tied to a single location.
    """

    passname: str  # "guest" | "arch" | "sanitizer"
    code: str  # stable finding identifier, e.g. "read-never-written"
    severity: Severity
    unit: str
    message: str
    pc: int | None = None
    line: int | None = None
    label: str | None = None
    file: str | None = None

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def to_dict(self) -> dict:
        """JSON-ready representation (severity flattened to its name)."""
        data = asdict(self)
        data["severity"] = self.severity.value
        return data

    def render(self) -> str:
        """One-line human-readable form."""
        where = self.unit
        if self.file:
            where = self.file
        if self.line is not None:
            where += f":{self.line}"
        elif self.pc is not None:
            where += f" pc={self.pc}"
            if self.label:
                where += f" ({self.label})"
        return f"{self.severity.value}[{self.code}] {where}: {self.message}"


def summarize(diagnostics: list[Diagnostic]) -> str:
    """A one-line count summary, e.g. ``2 errors, 1 warning``."""
    errors = sum(1 for d in diagnostics if d.is_error)
    warnings = len(diagnostics) - errors
    parts = []
    if errors:
        parts.append(f"{errors} error{'s' if errors != 1 else ''}")
    if warnings:
        parts.append(f"{warnings} warning{'s' if warnings != 1 else ''}")
    return ", ".join(parts) if parts else "clean"
