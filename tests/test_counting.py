from __future__ import annotations

import pytest

from primetrees import counting
from primetrees.counting import (
    COUNT_NMAX,
    count_3minimal_formula,
    count_minus2_critical_formula,
    count_table,
    partitions_three_parts,
    partitions_two_parts,
)
from primetrees.graph import GraphError


def partitions_exact(k: int, parts: int) -> int:
    """Direct enumeration oracle: weakly increasing positive tuples."""

    def rec(remaining, minimum, left):
        if left == 0:
            return 1 if remaining == 0 else 0
        return sum(
            rec(remaining - first, first, left - 1)
            for first in range(minimum, remaining + 1)
        )

    return rec(k, 1, parts)


def minus2_critical_closed_form(n: int) -> int:
    """The count of prime trees with k = 2 as a closed form in q = n // 4."""
    q, r = divmod(n, 4)
    return (q * q - 1, q * q, q * (q + 1) - 1, q * (q + 1))[r]


def three_minimal_closed_form(n: int) -> int:
    """The count of 3-minimal trees as a nearest-integer bracket, with the
    sizes below 7 pinned."""
    if n <= 6:
        return {4: 1, 5: 1, 6: 2}[n]
    nearest = (2 * (n - 1) ** 2 + 12) // 24  # (n-1)^2 / 12, never a half integer
    return nearest - (n - 4) // 2 + (n - 2) // 2 - 1


@pytest.mark.parametrize("k, expected", [(2, 1), (3, 1), (4, 2), (10, 5)])
def test_two_parts_examples(k, expected):
    assert partitions_two_parts(k) == expected
    assert partitions_exact(k, 2) == expected


@pytest.mark.parametrize("k, expected", [(2, 0), (3, 1), (6, 3), (9, 7)])
def test_three_parts_examples(k, expected):
    assert partitions_three_parts(k) == expected
    assert partitions_exact(k, 3) == expected


def test_partition_rejects_negative():
    with pytest.raises(ValueError):
        partitions_two_parts(-1)
    with pytest.raises(ValueError):
        partitions_three_parts(-1)
    # exact integer arithmetic: a float or a bool is refused, not counted
    for count, k in ((partitions_two_parts, 5.0), (partitions_three_parts, True)):
        with pytest.raises(GraphError, match=f"^k {k} is not an integer$"):
            count(k)


def test_bracket_never_half_integer():
    # (k^2 + 6) // 12 rounds k^2/12 to the nearest integer: k^2 mod 12 is 0/1/4/9, never 6
    for k in range(0, 201):
        assert k * k % 12 in {0, 1, 4, 9}


@pytest.mark.parametrize(
    "n, expected", [(5, 1), (6, 1), (7, 2), (8, 3), (9, 4), (12, 8), (14, 11)]
)
def test_minus2_critical_formula(n, expected):
    assert count_minus2_critical_formula(n) == expected


@pytest.mark.parametrize(
    "n, expected", [(4, 1), (5, 1), (6, 2), (7, 3), (8, 4), (9, 5), (14, 14)]
)
def test_3minimal_formula(n, expected):
    assert count_3minimal_formula(n) == expected


def test_formulas_reject_below_stated_range():
    with pytest.raises(ValueError):
        count_minus2_critical_formula(4)
    with pytest.raises(ValueError):
        count_3minimal_formula(3)


def test_formulas_reject_non_integers():
    for formula, n in ((count_minus2_critical_formula, 8.0), (count_3minimal_formula, 9.0)):
        with pytest.raises(GraphError, match=f"^n {n} is not an integer$"):
            formula(n)
    with pytest.raises(GraphError, match="^n True is not an integer$"):
        count_3minimal_formula(True)


def test_family_sums_match_the_closed_forms():
    for n in range(5, COUNT_NMAX + 1):
        assert count_minus2_critical_formula(n) == minus2_critical_closed_form(n), n
    for n in range(4, COUNT_NMAX + 1):
        assert count_3minimal_formula(n) == three_minimal_closed_form(n), n


def test_count_table_without_verification():
    table = count_table("critical2", 8, verify=False)
    assert [(row.n, row.formula) for row in table.rows] == [
        (5, 1),
        (6, 1),
        (7, 2),
        (8, 3),
    ]
    assert all(row.enumerated is None and row.agree is None for row in table.rows)


def test_count_table_rows_run_from_n_min_to_the_row_cap():
    # each bound on both sides: n_max = n_min gives one row and n_min - 1
    # is refused; n_max = COUNT_NMAX gives every row and one more is refused
    for kind, n_min, closed_form in (
        ("critical2", 5, minus2_critical_closed_form),
        ("minimal3", 4, three_minimal_closed_form),
    ):
        rows = count_table(kind, n_min, verify=False).rows
        assert [(row.n, row.formula, row.enumerated) for row in rows] == [(n_min, 1, None)]
        below = f"^n_max must be >= {n_min} for {kind}, got {n_min - 1}$"
        with pytest.raises(ValueError, match=below):
            count_table(kind, n_min - 1, verify=False)
        rows = count_table(kind, COUNT_NMAX, verify=False).rows
        assert len(rows) == COUNT_NMAX - n_min + 1
        assert (rows[-1].n, rows[-1].formula) == (COUNT_NMAX, closed_form(COUNT_NMAX))
        above = f"^n_max must be <= {COUNT_NMAX}, got {COUNT_NMAX + 1}$"
        with pytest.raises(ValueError, match=above):
            count_table(kind, COUNT_NMAX + 1, verify=False)


def test_count_table_with_verification():
    table = count_table("critical2", 9)
    assert table.all_agree
    assert [(row.n, row.formula, row.enumerated) for row in table.rows] == [
        (5, 1, 1),
        (6, 1, 1),
        (7, 2, 2),
        (8, 3, 3),
        (9, 4, 4),
    ]
    table = count_table("minimal3", 8)
    assert table.all_agree
    assert [(row.n, row.enumerated) for row in table.rows] == [
        (4, 1),
        (5, 1),
        (6, 2),
        (7, 3),
        (8, 4),
    ]


def test_count_table_rejections():
    with pytest.raises(ValueError, match="unknown count kind"):
        count_table("nope", 8)
    with pytest.raises(ValueError, match="n_max"):
        count_table("critical2", 4)
    # n_max is refused unless it is an int, before the kind or range is read
    for kind, n_max in (("critical2", 7.0), ("minimal3", True), ("nope", 2.5)):
        with pytest.raises(GraphError, match=f"^n_max {n_max} is not an integer$"):
            count_table(kind, n_max)


def test_count_table_refuses_past_the_class_guard_before_enumerating(monkeypatch):
    def unreachable(n):
        raise AssertionError(f"enumerated n = {n} before refusing")

    monkeypatch.setattr(counting, "all_trees", unreachable)
    with pytest.raises(GraphError, match="1..18 vertices, got 19"):
        count_table("critical2", 19)
    with pytest.raises(GraphError, match="1..18 vertices, got 30"):
        count_table("minimal3", 30)


def test_count_table_refuses_past_its_row_cap_before_building_rows(monkeypatch):
    def unreachable(n):
        raise AssertionError(f"built the row for n = {n} before refusing")

    monkeypatch.setitem(counting._PREDICATES, "critical2", (5, None, unreachable))
    with pytest.raises(ValueError, match=r"^n_max must be <= 100000, got 100001$"):
        count_table("critical2", 100_001, verify=False)
    with pytest.raises(ValueError, match=r"^n_max must be <= 100000, got 1000000$"):
        count_table("critical2", 10**6, verify=True)
