"""repro-lint CLI: exit codes, formats, and target handling."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

ERROR_FIXTURES = [
    "undefined_label.s",
    "duplicate_label.s",
    "read_never_written.s",
    "fall_through_end.s",
    "priv_outside_pal.s",
]


class TestExitCodes:
    @pytest.mark.parametrize("fixture", ERROR_FIXTURES)
    def test_each_seeded_bad_fixture_fails(self, fixture, capsys):
        assert main(["guest", str(FIXTURES / fixture)]) == 1
        out = capsys.readouterr().out
        assert "error[" in out

    def test_clean_fixture_passes(self, capsys):
        assert main(["guest", str(FIXTURES / "clean.s")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_warning_fixture_passes_unless_strict(self, capsys):
        target = str(FIXTURES / "unreachable.s")
        assert main(["guest", target]) == 0
        assert main(["guest", target, "--strict"]) == 1

    def test_shipped_tree_is_clean(self, capsys):
        assert main([]) == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_target_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["guest", "no-such-benchmark"])


class TestFormats:
    def test_json_payload_shape(self, capsys):
        code = main(
            ["guest", str(FIXTURES / "undefined_label.s"), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] >= 1
        (diag,) = payload["diagnostics"]
        assert diag["code"] == "undefined-label"
        assert diag["severity"] == "error"
        assert diag["passname"] == "guest"

    def test_format_flag_works_before_subcommand_too(self, capsys):
        assert main(["--format", "json", "arch"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"diagnostics": [], "errors": 0, "warnings": 0}


class TestTargets:
    def test_benchmark_by_name(self, capsys):
        assert main(["guest", "compress"]) == 0

    def test_arch_on_fixture_tree_fails(self, capsys):
        badarch = FIXTURES / "badarch"
        assert main(["arch", "--root", str(badarch)]) == 1
        out = capsys.readouterr().out
        assert "missing-slots" in out
        assert "layering" in out


class TestNewSubcommands:
    def test_restart_subcommand_is_clean(self, capsys):
        assert main(["restart"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_restart_on_broken_fixture_fails(self, capsys):
        bad = FIXTURES / "restart" / "no_reti.s"
        assert main(["restart", str(bad)]) == 1
        assert "restart-no-reti" in capsys.readouterr().out

    def test_default_sweep_runs_every_pass(self, capsys):
        assert main([]) == 0
        assert "clean" in capsys.readouterr().out


class TestSarif:
    def test_sarif_payload_shape(self, capsys):
        bad = FIXTURES / "restart" / "clobber_priv_latch.s"
        assert main(["restart", str(bad), "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert "sarif-2.1.0" in payload["$schema"]
        (run,) = payload["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "restart-clobber-priv-latch" in rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "restart-clobber-priv-latch"
        assert result["level"] == "error"
        assert result["message"]["text"]
        (loc,) = result["locations"]
        uri = loc["physicalLocation"]["artifactLocation"]["uri"]
        assert uri.endswith("clobber_priv_latch.s")

    def test_sarif_clean_run_has_empty_results(self, capsys):
        assert main(["arch", "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"] == []

    def test_json_format_unchanged_by_new_flags(self, capsys):
        # Byte-compat anchor: the json payload shape must not grow keys.
        assert main(["--format", "json", "arch"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"diagnostics": [], "errors": 0, "warnings": 0}


class TestBaseline:
    def test_update_baseline_records_findings(self, tmp_path, capsys):
        bad = FIXTURES / "restart" / "clobber_priv_latch.s"
        baseline = tmp_path / "baseline.json"
        code = main(
            ["restart", str(bad), "--baseline", str(baseline), "--update-baseline"]
        )
        assert code == 0
        payload = json.loads(baseline.read_text())
        assert payload["version"] == 1
        assert len(payload["fingerprints"]) == 1
        assert "restart-clobber-priv-latch" in payload["fingerprints"][0]

    def test_baseline_accepts_preexisting_findings(self, tmp_path, capsys):
        bad = FIXTURES / "restart" / "clobber_priv_latch.s"
        baseline = tmp_path / "baseline.json"
        main(["restart", str(bad), "--baseline", str(baseline), "--update-baseline"])
        capsys.readouterr()
        assert main(["restart", str(bad), "--baseline", str(baseline)]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_new_finding_still_fails_with_baseline(self, tmp_path, capsys):
        # Baseline only the latch clobber, then lint a file that also
        # trips a *new* code: the run must still fail on the new finding.
        baseline = tmp_path / "baseline.json"
        main(
            [
                "restart",
                str(FIXTURES / "restart" / "clobber_priv_latch.s"),
                "--baseline",
                str(baseline),
                "--update-baseline",
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "restart",
                str(FIXTURES / "restart" / "no_reti.s"),
                "--baseline",
                str(baseline),
            ]
        )
        assert code == 1
        assert "restart-no-reti" in capsys.readouterr().out

    def test_update_baseline_requires_baseline_path(self):
        with pytest.raises(SystemExit) as exc:
            main(["restart", "--update-baseline"])
        assert exc.value.code == 2
