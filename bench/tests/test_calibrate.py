"""The calibration loop and the normalised clock."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from bench import calibrate
from bench.calibrate import (
    REFERENCE_S,
    STARTUP_CODE,
    STARTUP_REFERENCE_S,
    NormClock,
)

SOURCE = Path(__file__).resolve().parents[1] / "calibrate.py"


def test_calibration_source_imports_nothing_from_repro():
    imported = set()
    for node in ast.walk(ast.parse(SOURCE.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "repro" for name in imported)


def test_calibration_loads_no_repro_module():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import bench.calibrate as c; c.calibrate();"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SOURCE.parents[1])],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_a_unit_is_scaled_by_the_mean_of_its_calibrations():
    clock = NormClock()
    ref = REFERENCE_S
    # Calibrations at raw [0, 1], [3, 4], [6, 7]: the loop ran at the
    # reference speed, then at half speed, then at a quarter.
    clock.calibrations = [(0.0, 1.0, ref), (3.0, 4.0, 2 * ref), (6.0, 7.0, 4 * ref)]
    # A unit from 1 to 6 has all three: factor ref / mean(1, 2, 4 ref).
    assert clock.factor(1.0, 6.0) == pytest.approx(3 / 7)
    # Its calibration time takes no normalised time.
    assert clock.raw_work(1.0, 6.0) == pytest.approx(4.0)
    assert clock.span(1.0, 6.0) == pytest.approx(4.0 * 3 / 7)
    # A unit between two calibrations uses just those two.
    assert clock.span(4.0, 6.0) == pytest.approx(2.0 * 2 / 6)


def test_a_unit_needs_calibration_on_both_sides():
    clock = NormClock()
    clock.calibrate(1)
    with pytest.raises(ValueError):
        clock.span(clock.calibrations[0][1], clock.now())


def test_a_short_interval_is_scaled_by_the_two_calibrations_around_it():
    clock = NormClock()
    ref = REFERENCE_S
    clock.calibrations = [(0.0, 1.0, ref), (3.0, 4.0, 2 * ref), (6.0, 7.0, 4 * ref)]
    assert clock.local_factor(2.0) == pytest.approx(2 / 3)
    assert clock.local_factor(5.0) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        clock.local_factor(8.0)


def test_startup_calibration_imports_nothing_from_repro():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(STARTUP_CODE))
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert imported
    assert not any(name.split(".")[0] == "repro" for name in imported)


def test_startup_work_is_scaled_by_the_calibrations_around_it(monkeypatch):
    ref = STARTUP_REFERENCE_S
    calibrations = iter([ref, 2 * ref, 4 * ref])
    ticks = iter([0.0, 1.0, 10.0, 12.0])
    monkeypatch.setattr(
        calibrate, "calibrate_startup", lambda cwd, env: next(calibrations)
    )
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: next(ticks))
    norm, raw = calibrate.startup_samples(lambda: None, 2, Path("."), {})
    assert raw == [1.0, 2.0]
    assert norm == pytest.approx([1.0 / 1.5, 2.0 / 3.0])
