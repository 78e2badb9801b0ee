"""The cycle kernel against the committed golden table.

``tests/golden/kernel.json`` pins cycles, architectural digest and every
``SimStats`` counter for each mechanism on each suite workload and on
each quick-matrix scenario.  Any change to what the kernel computes
shows up here as a named row; regenerate the table with
``python -m tests.checkpoint.make_kernel_golden`` only when the change
is meant.
"""

import json

import pytest

from tests.checkpoint import make_kernel_golden as gen

GOLDEN = json.loads(gen.OUT.read_text())


def _diff(fresh: dict, golden: dict) -> list[str]:
    out = []
    for key in sorted(set(fresh) | set(golden)):
        got, want = fresh.get(key), golden.get(key)
        if got == want:
            continue
        if got is None or want is None:
            out.append(f"{key}: {'missing' if got is None else 'unexpected'}")
            continue
        fields = [
            name for name in ("cycles", "arch_digest") if got[name] != want[name]
        ] + sorted(
            name
            for name in set(got["stats"]) | set(want["stats"])
            if got["stats"].get(name) != want["stats"].get(name)
        )
        out.append(f"{key}: {', '.join(fields[:6])}")
    return out


@pytest.mark.parametrize("part", ["suite", "scenarios"])
def test_kernel_reproduces_golden_table(part):
    fresh = gen.suite_rows() if part == "suite" else gen.scenario_rows()
    assert not _diff(fresh, GOLDEN[part])
