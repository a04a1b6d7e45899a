"""Leaf rules and both checkers on random prime trees past the
exhaustive ranges (the trees of `conftest.prime_trees`), the minimality
checker and extraction against the definition, and the strategy's reach
into narrow size windows."""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import prime_trees
from primetrees.critical import (
    check_noncritical_set,
    noncritical_vertices,
    unique_module_of_leaf_deletion,
)
from primetrees.graph import GUARD_CAP, certify_tree, vertex_set
from primetrees.minimal import (
    check_minimal_set,
    extract_minimal_subtree,
    is_minimal_brute_force,
    prime_proper_subgraph_witness,
)
from primetrees.modules import tree_is_prime, tree_module_witness


def certified_sigma(tree):
    """Oracle: the leaves whose deletion leaves a prime tree, each remainder
    certified anew (internal deletions disconnect)."""
    return tuple(
        x for x in tree.leaves if tree_is_prime(certify_tree(tree.graph.without({x})[0]))
    )


def certified_module(tree, x):
    """Oracle: the module witness of the certified remainder T - x, on the
    input ids, or None."""
    remainder, idmap = tree.graph.without({x})
    witness = tree_module_witness(certify_tree(remainder))
    return None if witness is None else vertex_set(idmap[v] for v in witness.members)


@settings(max_examples=150, deadline=None)
@given(prime_trees(), st.data())
def test_leaf_rules_and_checkers_on_random_prime_trees(tree, data):
    sigma = noncritical_vertices(tree).vertices
    assert sigma == certified_sigma(tree)
    for x in tree.leaves:
        rule = unique_module_of_leaf_deletion(tree, x)
        assert (None if rule is None else rule.members) == certified_module(tree, x)

    assert check_noncritical_set(tree, sigma).overall
    other = data.draw(st.sets(st.integers(0, tree.n - 1), min_size=1), label="X")
    assume(vertex_set(other) != sigma)
    assert not check_noncritical_set(tree, other).overall

    extra = data.draw(st.sets(st.integers(0, tree.n - 1)), label="extra")
    assert check_minimal_set(tree, set(tree.leaves) | extra).overall


def minimality_matches_the_definition(tree, data):
    """The checker's verdict on the leaves plus random extras (minimal) and on
    a random set (often not) equals the definition's, and extraction's
    result is minimal by the definition; the guard GUARD_CAP bounds the
    definitional scan's work and changes no answer."""
    extra = data.draw(st.sets(st.integers(0, tree.n - 1)), label="extra")
    free = data.draw(st.sets(st.integers(0, tree.n - 1), min_size=1), label="X")
    for chosen in (set(tree.leaves) | extra, free):
        definition = prime_proper_subgraph_witness(tree, chosen, GUARD_CAP) is None
        assert check_minimal_set(tree, chosen).overall == definition, sorted(chosen)
        sub, idmap = extract_minimal_subtree(tree, chosen)
        back = {orig: new for new, orig in enumerate(idmap)}
        assert is_minimal_brute_force(sub, [back[v] for v in chosen], GUARD_CAP)


# past the exhaustive range of `minimal-characterization` and up to n = 20,
# where listing the definitional subtrees still costs at most a few
# hundredths of a second; CI runs the same body for 21 <= n <= 24
@settings(max_examples=100, deadline=None)
@given(prime_trees(min_n=13, max_n=20), st.data())
def test_minimality_checker_and_extraction_match_the_definition(tree, data):
    minimality_matches_the_definition(tree, data)


def test_prime_trees_fill_narrow_size_windows():
    for low, high in ((13, 20), (21, 24)):
        sizes = []

        @settings(max_examples=100, deadline=None, database=None)
        @given(prime_trees(min_n=low, max_n=high))
        def record(tree):
            sizes.append(tree.n)

        record()
        # the size is drawn, not filtered: no draw is rejected
        assert len(sizes) >= 90
        assert low <= min(sizes) and max(sizes) <= high
