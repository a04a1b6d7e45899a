from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import labeled_trees
from primetrees.enumeration import all_trees
from primetrees.families import pkt, skmn
from primetrees.graph import (
    MINIMALITY_GUARD,
    GraphError,
    as_tree,
    build_graph,
    certify_tree,
    vertex_set,
)
from primetrees.minimal import (
    check_minimal_set,
    classify_three_minimal,
    extract_minimal_subtree,
    is_k_minimal,
    is_minimal_brute_force,
    prime_proper_subgraph_witness,
)
from primetrees.modules import tree_is_prime


def p(n):
    return certify_tree(build_graph(n, [(i, i + 1) for i in range(n - 1)]))


def test_brute_force_examples():
    assert is_minimal_brute_force(p(4), (0,))
    assert is_minimal_brute_force(p(6), (0, 5))
    assert not is_minimal_brute_force(p(6), (0, 3))
    assert prime_proper_subgraph_witness(p(6), (0, 3)) == (0, 1, 2, 3)
    assert prime_proper_subgraph_witness(p(6), (0, 5)) is None


def superset_scan_witness(tree, members):
    """Oracle: the superset scan the subtree list replaced, which induces and
    certifies every proper superset of X in (size, lex) order."""
    chosen = vertex_set(members)
    rest = [v for v in range(tree.n) if v not in set(chosen)]
    for size in range(len(rest)):
        for extra in combinations(rest, size):
            candidate = vertex_set(chosen + extra)
            sub = as_tree(tree.graph.induced_subgraph(candidate)[0])
            if sub is not None and tree_is_prime(sub):
                return candidate
    return None


def test_witness_matches_the_superset_scan_on_every_subset():
    for n in range(4, 10):
        for tree in all_trees(n):
            if not tree_is_prime(tree):
                continue
            for chosen in _all_subsets(n):
                assert prime_proper_subgraph_witness(tree, chosen) == superset_scan_witness(
                    tree, chosen
                ), (tree, chosen)


def test_definitional_scan_runs_at_its_guard_and_refuses_past_it():
    # the path on `guard` vertices is scanned, and only the whole path holds
    # both ends; one vertex more is refused before any subtree is listed
    for guard in (6, MINIMALITY_GUARD):
        assert prime_proper_subgraph_witness(p(guard), (0, guard - 1), guard) is None
        refusal = f"^tree on {guard + 1} vertices .* \\(guard {guard}\\)$"
        with pytest.raises(GraphError, match=refusal):
            prime_proper_subgraph_witness(p(guard + 1), (0, guard), guard)
    assert prime_proper_subgraph_witness(p(MINIMALITY_GUARD), (0, 1)) == (0, 1, 2, 3)
    with pytest.raises(GraphError, match=f"guard {MINIMALITY_GUARD}"):
        prime_proper_subgraph_witness(p(MINIMALITY_GUARD + 1), (0, 1))


def test_brute_force_rejections():
    star = certify_tree(build_graph(4, [(0, 1), (0, 2), (0, 3)]))
    with pytest.raises(GraphError, match="prime"):
        is_minimal_brute_force(star, (0,))
    big = certify_tree(build_graph(17, [(i, i + 1) for i in range(16)]))
    with pytest.raises(GraphError, match="guard"):
        is_minimal_brute_force(big, (0,))


def test_conditions_positive_examples():
    family = skmn(1, 2, 2)
    chosen = vertex_set(family.labels[x] for x in ("a1", "b1", "c1"))
    assert check_minimal_set(family.cert, chosen).overall
    family = skmn(1, 2, 4)
    chosen = vertex_set(family.labels[x] for x in ("a1", "b1", "c4"))
    assert check_minimal_set(family.cert, chosen).overall
    # an internal non-support vertex may sit in a minimal set
    assert check_minimal_set(p(5), (0, 2, 4)).overall
    assert is_minimal_brute_force(p(5), (0, 2, 4))


def test_condition_2_failure():
    report = check_minimal_set(p(6), (0,))
    cond2 = report.conditions[1]
    assert not cond2.holds and cond2.witness == (5,)
    assert not report.overall


def test_condition_3_failure():
    # both supports of the 5-path, no leaf at distance 2 in the set
    report = check_minimal_set(p(5), (1, 3))
    cond3 = report.conditions[2]
    assert not cond3.holds and cond3.witness == (1,)


def test_checker_rejects_small_or_empty():
    with pytest.raises(GraphError, match=">= 5"):
        check_minimal_set(p(4), (0,))
    with pytest.raises(GraphError, match=">= 5"):
        check_minimal_set(p(4), ())  # the size check comes before the set checks
    with pytest.raises(GraphError, match="nonempty"):
        check_minimal_set(p(5), ())
    with pytest.raises(GraphError, match=r"^vertex 9 out of range 0\.\.4$"):
        check_minimal_set(p(5), (9,))
    with pytest.raises(GraphError, match=r"^vertex -1 out of range 0\.\.4$"):
        check_minimal_set(p(5), (-1, 7))  # the smallest bad id is named


def test_checker_normalizes_members():
    tree = p(5)
    assert check_minimal_set(tree, [0, 0, 4]) == check_minimal_set(tree, (0, 4))
    assert check_minimal_set(tree, (v for v in (4, 0))) == check_minimal_set(tree, (0, 4))


def test_monotone_under_superset():
    # growing the pinned set can only keep minimality
    for n in range(5, 8):
        for tree in all_trees(n):
            if not tree_is_prime(tree):
                continue
            minimal_sets = [
                chosen
                for chosen in _all_subsets(n)
                if chosen and is_minimal_brute_force(tree, chosen)
            ]
            for chosen in minimal_sets:
                for extra in range(n):
                    grown = vertex_set(chosen + (extra,))
                    assert is_minimal_brute_force(tree, grown)


def _all_subsets(n):
    out = []
    for size in range(n + 1):
        out.extend(combinations(range(n), size))
    return out


def test_extract_keeps_whole_tree_when_minimal():
    cert, idmap = extract_minimal_subtree(p(6), (0, 5))
    assert cert.n == 6 and idmap == (0, 1, 2, 3, 4, 5)


def test_extract_shrinks_to_inner_path():
    cert, idmap = extract_minimal_subtree(p(6), (0, 3))
    assert idmap == (0, 1, 2, 3)
    assert cert.n == 4


def test_extract_everything_pinned():
    cert, idmap = extract_minimal_subtree(p(7), tuple(range(7)))
    assert cert.n == 7 and idmap == tuple(range(7))


def test_extract_needs_pair_deletion():
    # pinning the two non-critical vertices of the 7-vertex single-hub tree:
    # no single vertex is deletable, but dropping a pendant 2-path is
    family = pkt(5, 1)
    pinned = vertex_set(family.labels[x] for x in ("3", "7"))
    cert, idmap = extract_minimal_subtree(family.cert, pinned)
    assert cert.n == 5
    assert {family.id_to_label[v] for v in idmap} == {"3", "4", "5", "6", "7"}
    back = {orig: new for new, orig in enumerate(idmap)}
    assert is_minimal_brute_force(cert, vertex_set(back[v] for v in pinned))


def test_extract_empty_set_reaches_smallest_prime_tree():
    cert, idmap = extract_minimal_subtree(p(7), ())
    assert cert.n == 4


@given(labeled_trees(min_n=4, max_n=9), st.data())
def test_extract_invariants_on_random_instances(tree, data):
    assume(tree_is_prime(tree))
    pinned = data.draw(
        st.sets(st.integers(0, tree.n - 1), min_size=1, max_size=tree.n).map(tuple)
    )
    sub, idmap = extract_minimal_subtree(tree, pinned)
    assert set(pinned) <= set(idmap)
    assert tree_is_prime(sub)
    back = {orig: new for new, orig in enumerate(idmap)}
    inner = vertex_set(back[v] for v in pinned)
    assert is_minimal_brute_force(sub, inner)


def test_extract_rejects_decomposable():
    star = certify_tree(build_graph(4, [(0, 1), (0, 2), (0, 3)]))
    with pytest.raises(GraphError, match="prime"):
        extract_minimal_subtree(star, (0,))


def test_is_k_minimal():
    assert is_k_minimal(p(4), 1)
    assert is_k_minimal(p(4), 3)
    assert is_k_minimal(p(5), 2)
    assert is_k_minimal(p(5), 3)
    assert not is_k_minimal(p(5), 1)
    assert is_k_minimal(skmn(2, 2, 2).cert, 3)
    assert not is_k_minimal(skmn(2, 2, 2).cert, 2)
    star = certify_tree(build_graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert not is_k_minimal(star, 3)
    # k is refused unless it is an int, before the sign or primality is read
    for tree, k in ((p(6), 2.5), (p(6), True), (p(6), -1.5), (star, 3.0)):
        with pytest.raises(GraphError, match=f"^k {k} is not an integer$"):
            is_k_minimal(tree, k)
    with pytest.raises(GraphError, match="^k must be >= 0, got -1$"):
        is_k_minimal(p(6), -1)


def test_is_k_minimal_matches_the_definition_on_every_small_tree():
    # the definition: some k-subset passes the subtree scan; a decomposable
    # tree is minimal for nothing
    for n in range(1, 11):
        for tree in all_trees(n):
            sizes = set()
            if tree_is_prime(tree):
                sizes = {len(c) for c in _all_subsets(n) if is_minimal_brute_force(tree, c)}
            for k in range(n + 2):
                assert is_k_minimal(tree, k) == (k in sizes), (tree.graph.edges(), k)


def test_small_k_minimal_trees_are_paths():
    # the 4-path is the only 1-minimal tree; each n has one 2-minimal tree,
    # the path (pinning its two leaves)
    for n in range(4, 10):
        one_minimal = [t for t in all_trees(n) if is_k_minimal(t, 1)]
        assert [t.n for t in one_minimal] == ([4] if n == 4 else [])
        two_minimal = [t for t in all_trees(n) if is_k_minimal(t, 2)]
        assert len(two_minimal) == 1
        assert max(two_minimal[0].graph.degree(v) for v in range(n)) <= 2


def test_classify_three_minimal_forms():
    assert str(classify_three_minimal(p(4), (0, 1, 2))) == "P4"
    assert str(classify_three_minimal(p(5), (0, 2, 4))) == "PK(5)"
    family = skmn(2, 2, 3)
    leaves = vertex_set(family.labels[x] for x in ("a2", "b2", "c3"))
    assert str(classify_three_minimal(family.cert, leaves)) == "SKMN(2, 2, 3)"
    family = skmn(1, 2, 2)

    def pick(*names):
        return vertex_set(family.labels[x] for x in names)

    assert str(classify_three_minimal(family.cert, pick("a1", "b1", "c1"))) == "S122"
    assert str(classify_three_minimal(family.cert, pick("a1", "b1", "c2"))) == "S12N(2)"
    assert str(classify_three_minimal(family.cert, pick("a1", "b2", "c2"))) == "SKMN(1, 2, 2)"
    family = skmn(1, 2, 4)
    assert str(classify_three_minimal(family.cert, pick("a1", "b1", "c4"))) == "S12N(4)"


def test_classify_three_minimal_negatives():
    assert str(classify_three_minimal(p(6), (0, 1, 2))) == "NotMinimal"
    star = certify_tree(build_graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert str(classify_three_minimal(star, (0, 1, 2))) == "NotMinimal"
    # members are read and checked first, then counted
    for members, message in (
        ((0, 1), "classification needs exactly 3 distinct vertices, got 2"),
        ((0, 1, 2, 2, 3), "classification needs exactly 3 distinct vertices, got 4"),
        ((0, 1, 9), "vertex 9 out of range 0..5"),
        ((0, 9), "vertex 9 out of range 0..5"),
    ):
        with pytest.raises(GraphError) as caught:
            classify_three_minimal(p(6), members)
        assert str(caught.value) == message, members


def test_classify_matches_brute_force_small():
    for n in range(4, 10):
        for tree in all_trees(n):
            for chosen in combinations(range(n), 3):
                form = classify_three_minimal(tree, chosen)
                if tree_is_prime(tree):
                    minimal = is_minimal_brute_force(tree, chosen)
                    assert (form.kind != "NotMinimal") == minimal
                else:
                    assert form.kind == "NotMinimal"
