"""Module (interval) detection and primality tests.

A module of a graph is a vertex set M such that every vertex outside M is
adjacent to all of M or to none of M.  The empty set, singletons, and the
full vertex set are trivial modules; a graph on at least four vertices whose
modules are all trivial is prime, otherwise decomposable.

Two independent routes are kept side by side on purpose: a subset-scan brute
force that works on any small graph, and the leaf-distance criterion that
works only on trees.  The scan is the criterion's oracle, so neither may be
rewritten in terms of the other; `tests/test_ledger.py` states this pairing
with every other and checks that no route calls its own oracle.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from typing import Iterable, Iterator

from .graph import BRUTE_FORCE_GUARD, Graph, GraphError, TreeCert, as_tree, vertex_set


class ModuleWitness(namedtuple("ModuleWitness", "members")):
    """A nontrivial module: 2 <= |members| < n, members a sorted tuple."""

    __slots__ = ()


def is_module(graph: Graph, members: Iterable[int]) -> bool:
    """Check the defining property: outsiders see all of M or none of M."""
    mset = set(members)
    for v in mset:
        graph.check_vertex(v)
    size = len(mset)
    if size <= 1:
        return True
    for v in range(graph.n):
        if v in mset:
            continue
        hits = sum(1 for w in graph.adj[v] if w in mset)
        if hits not in (0, size):
            return False
    return True


def _check_guard(graph: Graph, guard: int) -> None:
    if graph.n > guard:
        raise GraphError(
            f"graph on {graph.n} vertices is too large for brute force (guard {guard})"
        )


def iter_nontrivial_modules(
    graph: Graph, guard: int = BRUTE_FORCE_GUARD
) -> Iterator[tuple[int, ...]]:
    """Enumerate every nontrivial module, by increasing size then lexicographic.

    Each vertex subset is tested on adjacency bitmasks (at most `guard` bits):
    M is a module exactly when every member has the first member's neighbors
    outside M, so the masks of N(first) ^ N(v) over the members must all lie
    inside M.
    """
    _check_guard(graph, guard)
    n = graph.n
    nbrs = [sum(1 << w for w in ws) for ws in graph.adj]
    bits = [1 << v for v in range(n)]
    for size in range(2, n):
        for members in combinations(range(n), size):
            first = nbrs[members[0]]
            inside = differ = 0
            for v in members:
                inside |= bits[v]
                differ |= first ^ nbrs[v]
            if not differ & ~inside:
                yield members


def find_nontrivial_module(
    graph: Graph, guard: int = BRUTE_FORCE_GUARD
) -> ModuleWitness | None:
    """First nontrivial module in the fixed search order, or None if prime-like."""
    members = next(iter_nontrivial_modules(graph, guard), None)
    return None if members is None else ModuleWitness(members)


def is_prime_brute_force(graph: Graph, guard: int = BRUTE_FORCE_GUARD) -> bool:
    """Primality by exhaustive module search: n >= 4 and only trivial modules."""
    return graph.n >= 4 and find_nontrivial_module(graph, guard) is None


def tree_is_prime(tree: TreeCert) -> bool:
    """Primality of a tree: n >= 4 and every two distinct leaves at distance >= 3.

    Two leaves at distance 2 share a support, and distance 1 is impossible
    beyond a single edge, so the criterion reduces to every support having
    exactly one leaf neighbor, i.e. as many supports as leaves.
    """
    return tree.n >= 4 and len(tree.leaves) == len(tree.supports)


def is_prime(graph: Graph, guard: int = BRUTE_FORCE_GUARD) -> bool:
    """Primality of any graph: tree criterion when the graph is a tree, else brute force."""
    tree = as_tree(graph)
    if tree is not None:
        return tree_is_prime(tree)
    return is_prime_brute_force(graph, guard)


def tree_module_witness(tree: TreeCert) -> ModuleWitness | None:
    """Smallest pair of distinct leaves sharing a support, or None.

    Nontrivial modules of a tree are exactly the sets of two or more leaves
    hanging off one support, so a shared-support leaf pair exists iff the
    tree is decomposable with some nontrivial module.  None is returned both
    for prime trees and for trees below four vertices whose modules are all
    trivial (single vertex, single edge).
    """
    best: tuple[int, int] | None = None
    for support in tree.supports:
        children = tree.leaf_neighbors(support)
        if len(children) >= 2:
            pair = (children[0], children[1])
            if best is None or pair < best:
                best = pair
    if best is None:
        return None
    return ModuleWitness(vertex_set(best))
