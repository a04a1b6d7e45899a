from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given

from conftest import labeled_trees, simple_graphs
from primetrees.enumeration import all_trees
from primetrees.graph import GraphError, build_graph, certify_tree
from primetrees.modules import (
    find_nontrivial_module,
    is_module,
    is_prime,
    is_prime_brute_force,
    iter_nontrivial_modules,
    tree_is_prime,
    tree_module_witness,
)


def p(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star(k):
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])


@given(simple_graphs())
def test_trivial_sets_are_modules(g):
    assert is_module(g, [])
    for v in range(g.n):
        assert is_module(g, [v])
    assert is_module(g, range(g.n))


def test_path_inner_pair_is_not_a_module():
    assert not is_module(p(4), [1, 2])


def test_find_nontrivial_module():
    assert find_nontrivial_module(p(4)) is None
    witness = find_nontrivial_module(star(3))
    assert witness.members == (1, 2)
    with pytest.raises(GraphError, match="guard"):
        find_nontrivial_module(build_graph(21, []))


def test_is_prime_examples():
    assert is_prime(p(4))
    assert not is_prime(p(3))
    assert not is_prime(star(3))
    assert is_prime_brute_force(p(4))
    assert not is_prime_brute_force(p(3))
    # non-trees take the subset scan: C4 and K4 have a module, C5 has none
    c4, c5 = (build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in (4, 5))
    assert not is_prime(c4)
    assert is_prime(c5)
    assert not is_prime(build_graph(4, list(combinations(range(4), 2))))


def test_is_indecomposable_has_no_size_floor():
    assert find_nontrivial_module(build_graph(1, [])) is None
    assert find_nontrivial_module(build_graph(2, [(0, 1)])) is None
    assert find_nontrivial_module(build_graph(2, [])) is None
    assert find_nontrivial_module(p(3)) is not None
    assert not is_prime(build_graph(2, [(0, 1)]))


def test_tree_is_prime_examples():
    assert tree_is_prime(certify_tree(p(5)))
    assert not tree_is_prime(certify_tree(star(3)))
    # a path 0-1-2-3 with an extra leaf on vertex 1 has leaves at distance 2
    chair = build_graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    assert not tree_is_prime(certify_tree(chair))
    assert not is_prime_brute_force(chair)
    assert find_nontrivial_module(chair).members == (0, 4)


def test_tree_module_witness_examples():
    assert tree_module_witness(certify_tree(star(3))).members == (1, 2)
    assert tree_module_witness(certify_tree(p(6))) is None
    double_star = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert tree_module_witness(certify_tree(double_star)).members == (2, 3)


@given(labeled_trees(min_n=2, max_n=9))
def test_tree_module_witness_soundness(tree):
    witness = tree_module_witness(tree)
    if witness is None:
        assert tree.n < 4 or tree_is_prime(tree)
    else:
        members = witness.members
        assert len(members) == 2 and members != tuple(range(tree.n))
        assert is_module(tree.graph, members)


def per_subset_modules(graph):
    """Oracle: the scan the bitmask test replaced, `is_module` on each subset
    in (size, lex) order."""
    return [
        members
        for size in range(2, graph.n)
        for members in combinations(range(graph.n), size)
        if is_module(graph, members)
    ]


def test_module_scan_matches_is_module_on_every_small_graph():
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for picked in range(2 ** len(pairs)):
            graph = build_graph(n, [e for i, e in enumerate(pairs) if picked >> i & 1])
            assert list(iter_nontrivial_modules(graph)) == per_subset_modules(graph), graph


@given(simple_graphs(max_n=9))
def test_module_scan_matches_is_module_on_random_graphs(graph):
    assert list(iter_nontrivial_modules(graph)) == per_subset_modules(graph)


def test_prime_graphs_are_connected():
    for n in range(1, 8):
        for tree in all_trees(n):
            for drop in range(n):
                sub, _ = tree.graph.without({drop})
                if is_prime_brute_force(sub):
                    assert sub.is_connected()


def test_prime_trees_have_as_many_supports_as_leaves():
    # primality filtered by the independent subset scan; the support count
    # equals the leaf count and stays within floor(n/2)
    for n in range(4, 10):
        for tree in all_trees(n):
            if is_prime_brute_force(tree.graph):
                assert len(tree.supports) == len(tree.leaves) <= n // 2


def test_tree_modules_are_stable_leaf_sets():
    # nontrivial modules of a decomposable tree are independent sets of leaves
    for n in range(4, 9):
        for tree in all_trees(n):
            if tree_is_prime(tree):
                continue
            for members in iter_nontrivial_modules(tree.graph):
                for v in members:
                    assert tree.is_leaf(v)
                for u in members:
                    for v in members:
                        assert v not in tree.graph.adj[u]


@given(labeled_trees(min_n=4, max_n=9))
def test_is_prime_dispatches_to_tree_route(tree):
    assert is_prime(tree.graph) == tree_is_prime(tree) == is_prime_brute_force(tree.graph)
