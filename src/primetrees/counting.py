"""Closed-form counts of special tree classes, paired with enumeration.

All arithmetic is exact integer arithmetic; the three-part partition
count is the integer nearest k^2/12, which is never a half integer because
squares are 0, 1, 4, or 9 mod 12.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Literal

from .critical import noncritical_vertices
from .enumeration import all_tree_codes, all_trees
from .graph import GraphError, TreeCert, _check_integer
from .minimal import is_k_minimal
from .modules import tree_is_prime

CountKind = Literal["critical2", "minimal3"]

# A table holds every row before any is printed: about 750 bytes a row in
# the CLI, so 10^5 rows peak near 90 MB.
COUNT_NMAX = 10**5


def partitions_two_parts(k: int) -> int:
    """Number of partitions of k into exactly 2 positive parts: floor(k/2)."""
    _check_integer(k, "k")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return k // 2


def partitions_three_parts(k: int) -> int:
    """Number of partitions of k into exactly 3 positive parts: the integer
    nearest k^2/12, (k^2 + 6) // 12, since k^2 mod 12 is never 6."""
    _check_integer(k, "k")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return (k * k + 6) // 12


def count_minus2_critical_formula(n: int) -> int:
    """Number of nonisomorphic prime trees on n vertices having exactly two
    non-critical vertices; stated for n >= 5.

    These are the path, Pkt(n - 2t, t) for each t with n - 2t >= 5, and
    Pmn(n - 2s, n1, n2) for each s = n1 + n2 in 2..S, S = (n - 4) // 2,
    with floor(s/2) pairs n1 <= n2 each: floor(S^2/4) in all.
    """
    _check_integer(n, "n")
    if n < 5:
        raise ValueError(f"the count is stated for n >= 5, got {n}")
    s_max = (n - 4) // 2
    return 1 + (n - 5) // 2 + s_max * s_max // 4


def count_3minimal_formula(n: int) -> int:
    """Number of nonisomorphic trees on n vertices minimal for some
    3-element vertex set; stated for n >= 4.

    These are the path and the spiders with three legs a <= b <= c summing
    to n - 1, but for the decomposable (1, 1, n - 3), whose place the path
    takes: one tree per partition of n - 1 into three parts.
    """
    _check_integer(n, "n")
    if n < 4:
        raise ValueError(f"the count is stated for n >= 4, got {n}")
    return partitions_three_parts(n - 1)


def predicate(expr: str) -> Callable[[TreeCert], bool]:
    """The tree predicate `expr` names: prime, critical=K (prime with
    exactly K non-critical vertices) or minimal=K."""
    if expr == "prime":
        return tree_is_prime
    name, _, value = expr.partition("=")
    if value.isascii() and value.isdigit():
        k = int(value)
        if name == "critical":
            return lambda tree: tree_is_prime(tree) and noncritical_vertices(tree).k == k
        if name == "minimal":
            return lambda tree: is_k_minimal(tree, k)
    raise GraphError(f"unknown predicate {expr!r}; use prime, critical=K, or minimal=K")


is_minus2_critical = predicate("critical=2")
is_3_minimal = predicate("minimal=3")

_PREDICATES: dict[str, tuple[int, Callable[[TreeCert], bool], Callable[[int], int]]] = {
    "critical2": (5, is_minus2_critical, count_minus2_critical_formula),
    "minimal3": (4, is_3_minimal, count_3minimal_formula),
}


class CountRow(namedtuple("CountRow", "n formula enumerated", defaults=(None,))):
    """The formula value at n, next to the enumerated count when verified."""

    __slots__ = ()

    @property
    def agree(self) -> bool | None:
        if self.enumerated is None:
            return None
        return self.formula == self.enumerated


class CountTable(namedtuple("CountTable", "kind rows")):
    """A count kind and its rows in increasing n."""

    __slots__ = ()

    @property
    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows)

    def disagreements(self) -> tuple[CountRow, ...]:
        return tuple(row for row in self.rows if row.agree is False)


def count_table(
    kind: CountKind, n_max: int, verify: bool = True
) -> CountTable:
    """Formula values for each n up to n_max, with enumeration next to them.

    With verify=False only the formula column is filled; with verify=True
    every n is also counted by exhaustive enumeration over the isomorphism
    classes, so a False `agree` pinpoints a wrong formula or a wrong
    predicate, never sampling noise.  n_max above COUNT_NMAX is refused
    before any row is built.
    """
    _check_integer(n_max, "n_max")
    if kind not in _PREDICATES:
        raise ValueError(f"unknown count kind {kind!r}")
    n_min, predicate, formula = _PREDICATES[kind]
    if n_max < n_min:
        raise ValueError(f"n_max must be >= {n_min} for {kind}, got {n_max}")
    if n_max > COUNT_NMAX:
        raise ValueError(f"n_max must be <= {COUNT_NMAX}, got {n_max}")
    if verify:
        all_tree_codes(n_max)  # refuse past the class guard before enumerating
    rows = []
    for n in range(n_min, n_max + 1):
        enumerated = sum(1 for tree in all_trees(n) if predicate(tree)) if verify else None
        rows.append(CountRow(n, formula(n), enumerated))
    return CountTable(kind, tuple(rows))
