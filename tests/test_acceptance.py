"""Acceptance suite: the eight criteria, exact equality everywhere.

Every suite of `selftest.PLAN` runs once at its full args, which are the
acceptance ranges; criterion 1 adds the CLI route, and criteria 1 and 2
their pinned formula values.  Each test prints a single PASS line on success (visible
with `pytest -s`); a failure shows the offending witnesses instead.
Runtime-limited criteria assert their stated wall-clock budgets.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from primetrees.cli import run
from primetrees.counting import count_table
from primetrees.selftest import PLAN

FULL_ARGS = {name: full for name, _, _, _, full in PLAN}
BUDGET_S = {1: 120, 2: 300}


def _pass(message: str) -> None:
    print(f"PASS {message}")


@pytest.mark.parametrize("row", PLAN, ids=[row[0] for row in PLAN])
def test_plan_suite(row):
    name, criterion, sweep, _, full = row
    start = time.monotonic()
    exceptions = sweep(*full)
    elapsed = time.monotonic() - start
    assert exceptions == [], exceptions[:5]
    budget = BUDGET_S.get(criterion)
    assert budget is None or elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"
    _pass(f"criterion {criterion}: {name}" if criterion else name)


def test_readme_lists_the_plan():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    for name, criterion, _, quick, full in PLAN:
        assert f"| `{name}` | {criterion or '-'} | `{quick}` | `{full}` |" in lines, name


def test_criterion_1_minus2_critical_count_agrees_to_14():
    _, nmax = FULL_ARGS["count-critical2"]
    start = time.monotonic()
    report = run(["count", "--what", "critical2", "--nmax", str(nmax), "--verify"])
    elapsed = time.monotonic() - start
    assert report.exit_code == 0, "\n".join(report.lines)
    rows = {rec["n"]: rec for rec in report.records}
    assert set(rows) == set(range(5, nmax + 1))
    for n, rec in rows.items():
        assert rec["agree"], f"n={n}: formula {rec['formula']} != {rec['enumerated']}"
    assert rows[5]["formula"] == 1
    assert rows[6]["formula"] == 1
    assert rows[7]["enumerated"] == 2
    assert rows[8]["enumerated"] == 3
    assert elapsed < BUDGET_S[1], f"took {elapsed:.1f}s, budget {BUDGET_S[1]}s"
    _pass(f"criterion 1: count --verify agrees for 5..{nmax} ({elapsed:.1f}s)")


def test_criterion_2_three_minimal_count_agrees_to_14():
    # agreement and the budget are checked by the count-minimal3 plan row
    _, nmax = FULL_ARGS["count-minimal3"]
    rows = {row.n: row for row in count_table("minimal3", nmax, verify=False).rows}
    assert set(rows) == set(range(4, nmax + 1))
    assert rows[4].formula == 1 and rows[5].formula == 1 and rows[6].formula == 2
    _pass(f"criterion 2: 3-minimal formula rows 4..{nmax}")
