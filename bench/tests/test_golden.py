"""A perturbed output or cell row counts as a failed operation."""

import copy

from bench import figures, service


def _stub_run(tmp, golden: dict[str, str], printed: str) -> figures.FigureRun:
    run = figures.FigureRun(tmp, golden)
    run.order = ("fig2",)
    run.experiments = {"fig2": lambda: print(printed)}
    return run


def test_matching_table_passes_and_perturbed_table_fails(tmp_path):
    table = "benchmark  traditional\ncompress         31.20\n"
    good = _stub_run(tmp_path, {"fig2": table}, table.rstrip("\n"))
    bad = _stub_run(
        tmp_path, {"fig2": table}, table.replace("31.20", "31.21").rstrip("\n")
    )
    try:
        assert good.run_pass(traced=False).failed == 0
        record = bad.run_pass(traced=False)
        assert (record.attempted, record.failed) == (1, 1)
    finally:
        good.probe.close()
        bad.probe.close()


def test_experiment_error_counts_as_failure(tmp_path):
    run = _stub_run(tmp_path, {"fig2": ""}, "")
    run.experiments = {"fig2": lambda: 1 / 0}
    try:
        assert run.run_pass(traced=False).failed == 1
    finally:
        run.probe.close()


def test_committed_figure_golden_covers_every_experiment():
    from repro.experiments.cli import ALL_ORDER

    assert set(figures.load_golden()) == set(ALL_ORDER)


def _response(cells, golden):
    rows = [
        {"workload": c["workload"], "mechanism": c["config"]["mechanism"],
         **golden[service.cell_key(c)]}
        for c in cells
    ]
    return [{"kind": "summary", "table": rows, "cached": 0, "deduped": 0,
             "simulated": len(rows)}]


def test_matching_row_passes_and_perturbed_row_fails():
    golden = service.load_golden()
    cells = service.primed_cells()[:3]
    events = _response(cells, golden)
    assert service.check_response(service.Request("hit", cells), events, golden)
    perturbed = copy.deepcopy(events)
    perturbed[0]["table"][1]["cycles"] += 1
    assert not service.check_response(service.Request("hit", cells), perturbed, golden)
    short = copy.deepcopy(events)
    short[0]["table"].pop()
    assert not service.check_response(service.Request("hit", cells), short, golden)


def test_committed_service_golden_covers_the_candidate_pool():
    golden = service.load_golden()
    assert {service.cell_key(c) for c in service.candidate_pool()} == set(golden)
