"""The service request sequence keeps its class shares for any seed."""

from collections import Counter

import pytest

from bench import service


def _pass(plan):
    return [req for _ in range(plan.rounds_per_pass()) for req in plan.round()]


@pytest.mark.parametrize("seed", [1, 2])
def test_request_class_shares_hold(seed):
    plan = service.RequestPlan(seed)
    pool = {service.cell_key(c) for c in service.candidate_pool()}
    seen = {service.cell_key(c) for c in service.primed_cells()}
    kinds = []
    for _ in range(plan.rounds_per_pass()):
        finished = set(seen)
        for kind, cells in plan.round():
            kinds.append(kind)
            keys = {service.cell_key(c) for c in cells}
            assert keys <= pool
            if kind == "miss":
                assert not keys & seen, "a miss must carry never-seen cells"
                seen |= keys
            elif kind == "hit":
                assert keys <= finished, "a hit re-fetches finished cells"
    assert len(kinds) >= 200, "10 requests must lie beyond the 95th percentile"
    assert sum(k != "miss" for k in kinds) / len(kinds) == pytest.approx(0.7)
    assert kinds.count("recent") / len(kinds) == pytest.approx(0.1)


def test_every_pass_misses_on_the_same_pairs_whatever_the_seed():
    def pairs(seed):
        plan = service.RequestPlan(seed)
        return [
            Counter(
                (c["workload"], c["config"]["mechanism"])
                for kind, cells in _pass(plan) if kind == "miss"
                for c in cells
            )
            for _ in range(plan.passes_left())
        ]

    one, two = pairs(1), pairs(2)
    assert len(one) == len(two) >= 2
    assert all(p == one[0] for p in one + two)
    assert set(one[0].values()) == {service.LAPS}


def test_seed_changes_the_sequence():
    def misses(seed):
        return [cells for kind, cells in _pass(service.RequestPlan(seed)) if kind == "miss"]

    assert misses(1) != misses(2)
    assert misses(1) == misses(1)
