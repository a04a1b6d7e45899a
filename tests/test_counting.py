from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primetrees import counting
from primetrees.counting import (
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


@pytest.mark.parametrize("k, expected", [(2, 1), (3, 1), (4, 2), (10, 5)])
def test_two_parts_examples(k, expected):
    assert partitions_two_parts(k) == expected
    assert partitions_exact(k, 2) == expected


@pytest.mark.parametrize("k, expected", [(2, 0), (3, 1), (6, 3), (9, 7)])
def test_three_parts_examples(k, expected):
    assert partitions_three_parts(k) == expected
    assert partitions_exact(k, 3) == expected


@given(st.integers(min_value=0, max_value=120))
def test_partition_formulas_match_oracle(k):
    assert partitions_two_parts(k) == partitions_exact(k, 2)
    assert partitions_three_parts(k) == partitions_exact(k, 3)


def test_partition_rejects_negative():
    with pytest.raises(ValueError):
        partitions_two_parts(-1)
    with pytest.raises(ValueError):
        partitions_three_parts(-1)


def test_bracket_never_half_integer():
    # the nearest-integer bracket sees only squares, which are 0/1/4/9 mod 12
    for k in range(0, 201):
        assert (k + 3) ** 2 % 12 in {0, 1, 4, 9}
        assert (k - 1) ** 2 % 12 in {0, 1, 4, 9}


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


def test_count_table_without_verification():
    table = count_table("critical2", 8, verify=False)
    assert [(row.n, row.formula) for row in table.rows] == [
        (5, 1),
        (6, 1),
        (7, 2),
        (8, 3),
    ]
    assert all(row.enumerated is None and row.agree is None for row in table.rows)


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
