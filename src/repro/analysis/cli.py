"""``repro-lint`` / ``python -m repro.analysis`` — the analysis driver.

With no subcommand it lints the shipped tree: every suite benchmark
program, both PAL handler images, every assembly source embedded in
``examples/``, the architecture rules over ``src/repro``, and the
restartability pass over every mechanism's handler images.  Exit
status is non-zero iff any error-severity finding is reported (or any
finding at all under ``--strict``).

Subcommands narrow the run::

    repro-lint guest                 # shipped guest programs only
    repro-lint guest loop.s --priv   # lint an assembly file
    repro-lint guest compress        # lint one suite benchmark
    repro-lint arch                  # architecture lint only
    repro-lint restart               # handler restartability
    repro-lint restart handler.s     # ... over your own PAL image
    repro-lint --format json         # machine-readable findings
    repro-lint --format sarif        # GitHub code-scanning format
    repro-lint --baseline lint.json  # accept recorded pre-existing
                                     # findings; new ones still fail

``--baseline`` with ``--update-baseline`` records the current findings
(by ``pass:code:unit:pc`` fingerprint) instead of reporting them, so a
new pass can land strict without a flag day.

Example modules may declare ``LINT_OK = ("code", ...)`` to suppress
specific diagnostics for every program they build; assembly sources use
``; lint: ok(code)`` comments (see docs/ANALYSIS.md).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path
from typing import Iterable

import repro
from repro.analysis.archlint import check_tree
from repro.analysis.diagnostics import Diagnostic, summarize
from repro.analysis.guest import analyze_program, analyze_source
from repro.isa.program import Program
from repro.workloads import BENCHMARKS, build_benchmark


def _repo_root() -> Path:
    # src/repro/__init__.py -> src/repro -> src -> repo root
    return Path(repro.__file__).resolve().parents[2]


def _package_root() -> Path:
    return Path(repro.__file__).resolve().parent


# ----------------------------------------------------------------------
# Guest-program collection.
# ----------------------------------------------------------------------
def _lint_handlers() -> list[Diagnostic]:
    from repro.exceptions import handler_code

    diagnostics: list[Diagnostic] = []
    for name in dir(handler_code):
        if not name.endswith("_SOURCE"):
            continue
        source = getattr(handler_code, name)
        if not isinstance(source, str):
            continue
        unit = f"handler:{name.removesuffix('_SOURCE').lower()}"
        diagnostics.extend(
            analyze_source(
                source,
                privileged=True,
                unit=unit,
                file="src/repro/exceptions/handler_code.py",
                suppress=getattr(handler_code, "LINT_OK", ()),
            )
        )
    return diagnostics


def _lint_benchmark(name: str) -> list[Diagnostic]:
    module = sys.modules.get(BENCHMARKS[name].build.__module__)
    suppress = getattr(module, "LINT_OK", ()) if module else ()
    return analyze_program(
        build_benchmark(name), unit=f"benchmark:{name}", suppress=suppress
    )


def _import_example(path: Path):
    spec = importlib.util.spec_from_file_location(
        f"_repro_lint_example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lint_example(path: Path) -> list[Diagnostic]:
    """Lint the guest code an example ships: embedded assembly sources,
    module-level :class:`Program` objects, and zero-arg ``build_*``
    program builders (all example builders default every parameter)."""
    module = _import_example(path)
    suppress = tuple(getattr(module, "LINT_OK", ()))
    rel = path.name
    diagnostics: list[Diagnostic] = []
    for name in dir(module):
        if name.startswith("_"):
            continue
        value = getattr(module, name)
        unit = f"example:{path.stem}:{name}"
        if isinstance(value, str) and "SOURCE" in name:
            diagnostics.extend(
                analyze_source(
                    value,
                    unit=unit,
                    file=f"examples/{rel}",
                    suppress=suppress,
                )
            )
        elif isinstance(value, Program):
            diagnostics.extend(
                analyze_program(
                    value, unit=unit, file=f"examples/{rel}", suppress=suppress
                )
            )
        elif name.startswith("build_") and callable(value):
            try:
                program = value()
            except TypeError:
                continue  # requires arguments; not a default-buildable unit
            if isinstance(program, Program):
                diagnostics.extend(
                    analyze_program(
                        program,
                        unit=unit,
                        file=f"examples/{rel}",
                        suppress=suppress,
                    )
                )
    return diagnostics


def _lint_shipped_guests() -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for name in sorted(BENCHMARKS):
        diagnostics.extend(_lint_benchmark(name))
    diagnostics.extend(_lint_handlers())
    examples = _repo_root() / "examples"
    if examples.is_dir():
        for path in sorted(examples.glob("*.py")):
            diagnostics.extend(_lint_example(path))
    return diagnostics


def _lint_guest_targets(
    targets: Iterable[str], privileged: bool
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for target in targets:
        path = Path(target)
        if target in BENCHMARKS:
            diagnostics.extend(_lint_benchmark(target))
        elif path.suffix == ".s":
            diagnostics.extend(
                analyze_source(
                    path.read_text(),
                    privileged=privileged,
                    unit=f"file:{path.stem}",
                    file=str(path),
                )
            )
        elif path.suffix == ".py":
            diagnostics.extend(_lint_example(path))
        else:
            raise SystemExit(
                f"repro-lint: unknown guest target {target!r} (expected a "
                f"benchmark name {sorted(BENCHMARKS)}, a .s file, or an "
                "example .py file)"
            )
    return diagnostics


def _lint_restart_targets(targets: Iterable[str]) -> list[Diagnostic]:
    from repro.analysis.restart import (
        analyze_handler_source,
        lint_mechanism_handlers,
    )

    targets = list(targets)
    if not targets:
        return lint_mechanism_handlers()
    diagnostics: list[Diagnostic] = []
    for target in targets:
        path = Path(target)
        if path.suffix != ".s":
            raise SystemExit(
                f"repro-lint: unknown restart target {target!r} "
                "(expected a .s handler image)"
            )
        diagnostics.extend(
            analyze_handler_source(
                path.read_text(), unit=f"restart:file:{path.stem}", file=str(path)
            )
        )
    return diagnostics


# ----------------------------------------------------------------------
# Baselines.
# ----------------------------------------------------------------------
def _fingerprint(diag: Diagnostic) -> str:
    """Stable identity for baseline matching.

    Deliberately coarse (no message text, no file line): a recorded
    finding stays accepted across message rewording and unrelated file
    edits, while a finding with a new code, unit, or pc still fails.
    """
    return f"{diag.passname}:{diag.code}:{diag.unit}:{diag.pc}"


def _load_baseline(path: Path) -> set[str]:
    if not path.exists():
        return set()
    payload = json.loads(path.read_text())
    return set(payload.get("fingerprints", ()))


def _write_baseline(path: Path, diagnostics: list[Diagnostic]) -> None:
    payload = {
        "version": 1,
        "fingerprints": sorted({_fingerprint(d) for d in diagnostics}),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


# ----------------------------------------------------------------------
# Reporting.
# ----------------------------------------------------------------------
def _sarif_payload(diagnostics: list[Diagnostic]) -> dict:
    """Minimal SARIF 2.1.0 for GitHub code-scanning upload."""
    rules: dict[str, dict] = {}
    results = []
    for diag in diagnostics:
        rules.setdefault(
            diag.code,
            {
                "id": diag.code,
                "shortDescription": {"text": f"{diag.passname}: {diag.code}"},
            },
        )
        result = {
            "ruleId": diag.code,
            "level": "error" if diag.is_error else "warning",
            "message": {"text": f"{diag.unit}: {diag.message}"},
        }
        if diag.file:
            region = {}
            if diag.line is not None and diag.line >= 1:
                region = {"region": {"startLine": diag.line}}
            result["locations"] = [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": diag.file},
                        **region,
                    }
                }
            ]
        results.append(result)
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "docs/ANALYSIS.md",
                        "rules": [rules[k] for k in sorted(rules)],
                    }
                },
                "results": results,
            }
        ],
    }


def _report(
    diagnostics: list[Diagnostic],
    fmt: str,
    strict: bool,
    out=None,
    baseline: set[str] | None = None,
) -> int:
    out = out or sys.stdout
    suppressed = 0
    if baseline:
        kept = [d for d in diagnostics if _fingerprint(d) not in baseline]
        suppressed = len(diagnostics) - len(kept)
        diagnostics = kept
    errors = sum(1 for d in diagnostics if d.is_error)
    if fmt == "json":
        payload = {
            "diagnostics": [d.to_dict() for d in diagnostics],
            "errors": errors,
            "warnings": len(diagnostics) - errors,
        }
        print(json.dumps(payload, indent=2), file=out)
    elif fmt == "sarif":
        print(json.dumps(_sarif_payload(diagnostics), indent=2), file=out)
    else:
        for diag in diagnostics:
            print(diag.render(), file=out)
        summary = f"repro-lint: {summarize(diagnostics)}"
        if suppressed:
            summary += f" ({suppressed} baselined)"
        print(summary, file=out)
    if errors:
        return 1
    if strict and diagnostics:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    # SUPPRESS keeps a subparser's (unset) defaults from clobbering
    # values already parsed by the main parser, so the flags work both
    # before and after the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default=argparse.SUPPRESS,
        help="output format (default: text)",
    )
    common.add_argument(
        "--strict",
        action="store_true",
        default=argparse.SUPPRESS,
        help="exit non-zero on warnings too, not just errors",
    )
    common.add_argument(
        "--baseline",
        type=Path,
        default=argparse.SUPPRESS,
        help="baseline file of accepted pre-existing findings "
        "(see --update-baseline)",
    )
    common.add_argument(
        "--update-baseline",
        action="store_true",
        default=argparse.SUPPRESS,
        help="record the current findings into --baseline and exit 0",
    )
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        parents=[common],
        description="Static analysis for the simulator: guest-program "
        "lint, architecture lint, and handler restartability "
        "(see docs/ANALYSIS.md).",
    )
    sub = parser.add_subparsers(dest="command")

    guest = sub.add_parser(
        "guest",
        parents=[common],
        help="lint guest programs (default: all shipped)",
    )
    guest.add_argument(
        "targets",
        nargs="*",
        help="benchmark names, .s files, or example .py files "
        "(default: every shipped benchmark, handler, and example)",
    )
    guest.add_argument(
        "--privileged",
        action="store_true",
        help="assemble .s targets as PAL handler images",
    )

    arch = sub.add_parser(
        "arch",
        parents=[common],
        help="architecture lint over src/repro",
    )
    arch.add_argument(
        "--root",
        type=Path,
        default=None,
        help="package directory to lint (default: the installed repro)",
    )

    restart = sub.add_parser(
        "restart",
        parents=[common],
        help="handler-image restartability verification",
    )
    restart.add_argument(
        "targets",
        nargs="*",
        help=".s handler images to verify (default: every mechanism's "
        "shipped handler images)",
    )

    args = parser.parse_args(argv)
    fmt = getattr(args, "format", None) or "text"
    strict = bool(getattr(args, "strict", False))
    baseline_path = getattr(args, "baseline", None)
    update_baseline = bool(getattr(args, "update_baseline", False))
    if update_baseline and baseline_path is None:
        parser.error("--update-baseline requires --baseline")

    if args.command == "guest":
        if args.targets:
            diagnostics = _lint_guest_targets(args.targets, args.privileged)
        else:
            diagnostics = _lint_shipped_guests()
    elif args.command == "arch":
        diagnostics = check_tree(args.root or _package_root())
    elif args.command == "restart":
        diagnostics = _lint_restart_targets(args.targets)
    else:
        from repro.analysis.restart import lint_mechanism_handlers

        diagnostics = (
            _lint_shipped_guests()
            + check_tree(_package_root())
            + lint_mechanism_handlers()
        )

    if update_baseline:
        _write_baseline(baseline_path, diagnostics)
        print(
            f"repro-lint: recorded {len(diagnostics)} finding(s) into "
            f"{baseline_path}"
        )
        return 0
    baseline = _load_baseline(baseline_path) if baseline_path else None
    return _report(diagnostics, fmt, strict, baseline=baseline)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
