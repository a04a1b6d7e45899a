"""Leaf rules and both checkers on random prime trees past the
exhaustive ranges (the trees of `conftest.prime_trees`)."""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import prime_trees
from primetrees.critical import (
    check_noncritical_set,
    noncritical_vertices,
    unique_module_of_leaf_deletion,
)
from primetrees.graph import certify_tree, vertex_set
from primetrees.minimal import check_minimal_set
from primetrees.modules import tree_is_prime, tree_module_witness


@settings(max_examples=150, deadline=None)
@given(prime_trees(), st.data())
def test_leaf_rules_and_checkers_on_random_prime_trees(tree, data):
    sigma = noncritical_vertices(tree).vertices
    assert sigma == tuple(
        x for x in tree.leaves if tree_is_prime(certify_tree(tree.graph.without({x})[0]))
    )
    for x in tree.leaves:
        remainder, idmap = tree.graph.without({x})
        witness = tree_module_witness(certify_tree(remainder))
        expected = None if witness is None else vertex_set(idmap[v] for v in witness.members)
        rule = unique_module_of_leaf_deletion(tree, x)
        assert (None if rule is None else rule.members) == expected

    assert check_noncritical_set(tree, sigma).overall
    other = data.draw(st.sets(st.integers(0, tree.n - 1), min_size=1), label="X")
    assume(vertex_set(other) != sigma)
    assert not check_noncritical_set(tree, other).overall

    extra = data.draw(st.sets(st.integers(0, tree.n - 1)), label="extra")
    assert check_minimal_set(tree, set(tree.leaves) | extra).overall
