"""Acceptance suite: the eight criteria, exact equality everywhere.

Every suite of `selftest.PLAN` runs once at its full args, which are the
acceptance ranges; criterion 1 adds the CLI route, and criteria 1 and 2
their pinned formula values.  Each test prints a single PASS line on success (visible
with `pytest -s`); a failure shows the offending witnesses instead.
Runtime-limited criteria assert their stated wall-clock budgets.  The
family claims are also shown to catch a planted fault.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from primetrees import selftest
from primetrees.cli import run
from primetrees.counting import count_table
from primetrees.families import path
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


def test_empty_set_claim_is_checked_past_twelve_vertices(monkeypatch):
    emptied = []
    sigma = selftest.noncritical_vertices

    def patched(tree):
        found = sigma(tree)
        if tree.n == 13 and found.k == 2 and not emptied:
            emptied.append(tree)
            return found._replace(vertices=())
        return found

    # one prime tree on 13 vertices with two non-critical vertices reads as
    # having none; no other claim at n = 13 counts trees with k = 2
    monkeypatch.setattr(selftest, "noncritical_vertices", patched)
    assert selftest.uniqueness_exceptions(13) == [
        "n=13: 1 prime trees with empty set, expected 0",
    ]
    assert len(emptied) == 1


def test_family_claims_catch_paths_in_place_of_spiders_and_single_hubs(monkeypatch):
    monkeypatch.setattr(selftest, "spider", lambda m: path(2 * m + 1))
    monkeypatch.setattr(selftest, "pkt", lambda k, t: path(k + 2 * t))
    assert selftest.uniqueness_exceptions(10) == [
        "n=6: the k=1 tree is not the single-hub member",
        "n=7: the k=floor(n/2) tree is not the spider",
        "n=8: the k=1 tree is not the single-hub member",
        "n=9: the k=floor(n/2) tree is not the spider",
        "n=10: the k=1 tree is not the single-hub member",
    ]
    # a path's sigma is its two ends; each pkt(k, t) is now the path on k + 2t
    assert selftest.family_sigma_exceptions() == [
        "spider(2): sigma labels ['1', '5']",
        "spider(3): sigma labels ['1', '7']",
        "spider(4): sigma labels ['1', '9']",
        "spider(5): sigma labels ['1', '11']",
        "spider(6): sigma labels ['1', '13']",
        "pkt(5,1): sigma labels ['1', '7']",
        "pkt(5,2): sigma labels ['1', '9']",
        "pkt(5,3): sigma labels ['1', '11']",
        "pkt(6,1): sigma labels ['1', '8']",
        "pkt(6,2): sigma labels ['1', '10']",
        "pkt(6,3): sigma labels ['1', '12']",
        "pkt(7,1): sigma labels ['1', '9']",
        "pkt(7,2): sigma labels ['1', '11']",
        "pkt(7,3): sigma labels ['1', '13']",
        "pkt(8,1): sigma labels ['1', '10']",
        "pkt(8,2): sigma labels ['1', '12']",
        "pkt(8,3): sigma labels ['1', '14']",
        "pkt(4,1): sigma labels ['1', '6']",
        "pkt(4,2): sigma labels ['1', '8']",
        "pkt(4,3): sigma labels ['1', '10']",
        "n=7: pkt(5,1) isomorphic to path(7)",
        "n=8: pkt(6,1) isomorphic to path(8)",
        "n=9: pkt(5,2) isomorphic to path(9)",
        "n=9: pkt(7,1) isomorphic to path(9)",
        "n=10: pkt(6,2) isomorphic to path(10)",
        "n=10: pkt(8,1) isomorphic to path(10)",
        "n=11: pkt(5,3) isomorphic to path(11)",
        "n=11: pkt(7,2) isomorphic to path(11)",
        "n=11: pkt(9,1) isomorphic to path(11)",
        "n=12: pkt(6,3) isomorphic to path(12)",
        "n=12: pkt(8,2) isomorphic to path(12)",
        "n=12: pkt(10,1) isomorphic to path(12)",
        "n=13: pkt(5,4) isomorphic to path(13)",
        "n=13: pkt(7,3) isomorphic to path(13)",
        "n=13: pkt(9,2) isomorphic to path(13)",
        "n=13: pkt(11,1) isomorphic to path(13)",
        "n=14: pkt(6,4) isomorphic to path(14)",
        "n=14: pkt(8,3) isomorphic to path(14)",
        "n=14: pkt(10,2) isomorphic to path(14)",
        "n=14: pkt(12,1) isomorphic to path(14)",
    ]
