"""Extraction, which carries one certificate and reads its leaf table, against
a local copy of the greedy it replaced, which re-induces the subtree from the
input on every step: the same subtree and id map on every prime tree with
4 <= n <= 9 and every pinned subset, and on random prime trees with random
pinned sets.  A faster extraction must keep this greedy order."""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import prime_trees
from primetrees.critical import unique_module_of_leaf_deletion
from primetrees.enumeration import all_trees
from primetrees.graph import Graph, TreeCert, certify_tree
from primetrees.minimal import _pair_deletion_is_prime, extract_minimal_subtree
from primetrees.modules import tree_is_prime

# ---------------------------------------------------------------------------
# oracle: the greedy on input ids, re-inducing and re-certifying every step


def _oracle_step(graph: Graph, keep: set[int], pinned: set[int]) -> set[int] | None:
    current, idmap = graph.induced_subgraph(keep)
    cert = certify_tree(current)
    for leaf in cert.leaves:
        if idmap[leaf] not in pinned and unique_module_of_leaf_deletion(cert, leaf) is None:
            return {idmap[leaf]}
    for leaf in cert.leaves:
        y, support = idmap[leaf], idmap[cert.support_of(leaf)]
        if y not in pinned and support not in pinned and _pair_deletion_is_prime(cert, leaf):
            return {y, support}
    return None


def extraction_oracle(tree: TreeCert, pinned) -> tuple[tuple, tuple[int, ...]]:
    pinned = set(pinned)
    keep = set(range(tree.n))
    while (step := _oracle_step(tree.graph, keep, pinned)) is not None:
        keep -= step
    sub, idmap = tree.graph.induced_subgraph(keep)
    return sub.adj, idmap


# ---------------------------------------------------------------------------


def _extracted(tree: TreeCert, pinned) -> tuple[tuple, tuple[int, ...]]:
    sub, idmap = extract_minimal_subtree(tree, pinned)
    return sub.graph.adj, idmap


def test_extraction_matches_the_oracle_on_every_pinned_subset():
    cases = 0
    for n in range(4, 10):
        for tree in all_trees(n):
            if not tree_is_prime(tree):
                continue
            for size in range(n + 1):  # the empty set included
                for pinned in combinations(range(n), size):
                    expected = extraction_oracle(tree, pinned)
                    assert _extracted(tree, pinned) == expected, (tree, pinned)
                    cases += 1
    assert cases == 7216


@settings(max_examples=100, deadline=None)
@given(prime_trees(), st.data())
def test_extraction_matches_the_oracle_on_random_prime_trees(tree, data):
    pinned = data.draw(st.sets(st.integers(0, tree.n - 1), max_size=6), label="pinned")
    assert _extracted(tree, pinned) == extraction_oracle(tree, pinned)
