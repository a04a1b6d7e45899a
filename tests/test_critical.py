from __future__ import annotations

import pytest

from primetrees.critical import (
    CriticalFamily,
    check_noncritical_set,
    classify_critical_family,
    noncritical_vertices,
    noncritical_vertices_brute_force,
    unique_module_of_leaf_deletion,
)
from primetrees.enumeration import all_trees, canonical_form
from primetrees.families import path, pkt, pmn, skmn, spider
from primetrees.graph import GraphError, build_graph, certify_tree
from primetrees.modules import iter_nontrivial_modules, tree_is_prime


def p(n):
    return certify_tree(build_graph(n, [(i, i + 1) for i in range(n - 1)]))


def test_noncritical_examples():
    assert noncritical_vertices(p(4)).vertices == ()
    assert noncritical_vertices(p(4)).k == 0
    assert noncritical_vertices(p(5)).vertices == (0, 4)
    family = pkt(4, 1)
    sigma = noncritical_vertices(family.cert)
    assert [family.id_to_label[v] for v in sigma.vertices] == ["3"]
    assert sigma.k == 1


def test_noncritical_routes_agree():
    for n in range(4, 9):
        for tree in all_trees(n):
            if not tree_is_prime(tree):
                continue
            fast = noncritical_vertices(tree)
            slow = noncritical_vertices_brute_force(tree.graph)
            assert fast == slow


def test_noncritical_rejects_decomposable():
    star = certify_tree(build_graph(4, [(0, 1), (0, 2), (0, 3)]))
    with pytest.raises(GraphError, match="prime"):
        noncritical_vertices(star)
    with pytest.raises(GraphError, match="prime"):
        noncritical_vertices(p(3))
    with pytest.raises(GraphError, match="prime"):
        noncritical_vertices_brute_force(p(3).graph)


def test_noncritical_works_on_prime_nontree():
    # deleting any vertex of the 5-cycle leaves a prime 4-path
    cycle5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    sigma = noncritical_vertices(cycle5)
    assert sigma.vertices == (0, 1, 2, 3, 4)
    assert sigma.k == 5


def test_conditions_all_pass_for_computed_sets():
    family = spider(3)
    sigma = noncritical_vertices(family.cert)
    report = check_noncritical_set(family.cert, sigma.vertices)
    assert report.overall and len(report.conditions) == 4
    report = check_noncritical_set(p(6), (0, 5))
    assert report.overall


def test_condition_1_failure_carries_leaf_pair():
    bad = skmn(1, 1, 2).cert  # two legs of length 1: leaves at distance 2
    report = check_noncritical_set(bad, (1,))
    cond1 = report.conditions[0]
    assert not cond1.holds and len(cond1.witness) == 2
    assert not report.overall


def test_condition_2_failure_on_non_leaf_member():
    family = spider(3)
    support = family.labels["1"]
    report = check_noncritical_set(family.cert, (support,))
    cond2 = report.conditions[1]
    assert not cond2.holds and cond2.witness == (support,)


def test_condition_2_failure_on_oversized_set():
    tree = p(6)
    report = check_noncritical_set(tree, (0, 5, 1, 2))
    assert not report.conditions[1].holds


def test_condition_3_failure():
    report = check_noncritical_set(p(6), (0,))
    cond3 = report.conditions[2]
    assert not cond3.holds and cond3.witness == (5,)


def test_condition_4_failure():
    family = pkt(5, 1)
    # pendant-pair leaf (label 1) plus the hub-end leaf (label 3): the
    # pendant leaf has a degree-2 support but label 3 sits at distance 3
    chosen = (family.labels["1"], family.labels["3"])
    report = check_noncritical_set(family.cert, chosen)
    cond4 = report.conditions[3]
    assert not cond4.holds
    assert set(cond4.witness) == {family.labels["1"], family.labels["3"]}


def test_checker_rejects_small_or_empty():
    with pytest.raises(GraphError, match=">= 5"):
        check_noncritical_set(p(4), (0,))
    with pytest.raises(GraphError, match=">= 5"):
        check_noncritical_set(p(4), ())  # the size check comes before the set checks
    with pytest.raises(GraphError, match="nonempty"):
        check_noncritical_set(p(5), ())
    with pytest.raises(GraphError, match=r"^vertex 9 out of range 0\.\.4$"):
        check_noncritical_set(p(5), (9,))
    with pytest.raises(GraphError, match=r"^vertex -1 out of range 0\.\.4$"):
        check_noncritical_set(p(5), (-1, 7))  # the smallest bad id is named


def test_checker_normalizes_members():
    tree = p(5)
    assert check_noncritical_set(tree, [0, 0, 4]) == check_noncritical_set(tree, (0, 4))
    assert check_noncritical_set(tree, (v for v in (4, 0))) == check_noncritical_set(tree, (0, 4))


def test_unique_module_after_leaf_deletion():
    family = pkt(4, 1)
    witness = unique_module_of_leaf_deletion(family.cert, family.labels["6"])
    assert {family.id_to_label[v] for v in witness.members} == {"3", "5"}
    # cross-check by exhaustive module enumeration of the remainder
    remainder, idmap = family.cert.graph.without({family.labels["6"]})
    modules = [tuple(idmap[v] for v in m) for m in iter_nontrivial_modules(remainder)]
    assert modules == [witness.members]


def test_unique_module_none_when_deletion_stays_prime():
    assert unique_module_of_leaf_deletion(p(5), 0) is None


def test_unique_module_rejections():
    star = certify_tree(build_graph(4, [(0, 1), (0, 2), (0, 3)]))
    with pytest.raises(GraphError, match="prime"):
        unique_module_of_leaf_deletion(star, 1)
    with pytest.raises(GraphError, match="not a leaf"):
        unique_module_of_leaf_deletion(p(5), 2)


def test_is_k_critical():
    assert noncritical_vertices(p(7)).k == 2
    assert noncritical_vertices(spider(4).cert).k == 4
    assert noncritical_vertices(p(4)).k == 0


def test_classify_named_families():
    assert str(classify_critical_family(p(9))) == "Path(9)"
    assert str(classify_critical_family(spider(5).cert)) == "Spider(5)"
    assert str(classify_critical_family(pkt(4, 2).cert)) == "Pkt(4, 2)"
    assert str(classify_critical_family(pkt(6, 2).cert)) == "Pkt(6, 2)"
    assert str(classify_critical_family(pmn(4, 1, 2).cert)) == "Pmn(4, 1, 2)"
    assert str(classify_critical_family(skmn(2, 2, 3).cert)) == "Other"
    # the 5-vertex spider and the 5-path coincide; paths take precedence
    assert str(classify_critical_family(spider(2).cert)) == "Path(5)"


def test_classify_rejects_decomposable():
    with pytest.raises(GraphError, match="prime"):
        classify_critical_family(p(3))


def _family_table(n: int) -> dict[bytes, CriticalFamily]:
    """Every path, spider, Pkt and Pmn member on n vertices, keyed by code.

    Members are listed family by family in precedence order, Pmn with
    n1 <= n2, and the first family to claim a code keeps it.
    """
    members = [("Path", path(n))]
    if n % 2 == 1:
        members.append(("Spider", spider((n - 1) // 2)))
    for t in range(1, (n - 4) // 2 + 1):
        members.append(("Pkt", pkt(n - 2 * t, t)))
    for s in range(2, (n - 4) // 2 + 1):
        for n1 in range(1, s // 2 + 1):
            members.append(("Pmn", pmn(n - 2 * s, n1, s - n1)))
    table: dict[bytes, CriticalFamily] = {}
    for kind, member in members:
        table.setdefault(canonical_form(member.cert), CriticalFamily(kind, member.params))
    return table


def test_classification_matches_a_table_of_every_family_member():
    checked = 0
    for n in range(5, 17):
        table = _family_table(n)
        for tree in all_trees(n):
            if tree_is_prime(tree):
                expected = table.get(canonical_form(tree), CriticalFamily("Other"))
                assert classify_critical_family(tree) == expected, tree.graph.edges()
                checked += 1
    assert checked == 3149


def test_classification_round_trip_against_computed_k():
    # every named family tag implies the right non-critical count
    for n in range(5, 12):
        for tree in all_trees(n):
            if not tree_is_prime(tree):
                continue
            family = classify_critical_family(tree)
            k = noncritical_vertices(tree).k
            if family.kind == "Path":
                assert k == 2
            elif family.kind == "Spider":
                assert k == tree.n // 2
            elif family.kind == "Pkt":
                assert k == (1 if family.params[0] == 4 else 2)
            elif family.kind == "Pmn":
                assert k == 2


def test_every_two_noncritical_tree_is_a_named_family():
    # converse of the family census: k=2 lands in Path/Pkt/Pmn (single-hub
    # only with backbone >= 5), k=1 is always Pkt(4, t), k=floor(n/2) is the
    # spider (or the 5-path, which is the same tree)
    for n in range(5, 13):
        for tree in all_trees(n):
            if not tree_is_prime(tree):
                continue
            k = noncritical_vertices(tree).k
            family = classify_critical_family(tree)
            if k == 2:
                assert family.kind in {"Path", "Pkt", "Pmn"}, (n, tree.graph.edges())
                if family.kind == "Pkt":
                    assert family.params[0] >= 5
            if k == 1:
                assert family.kind == "Pkt" and family.params[0] == 4
            if k == n // 2:
                assert family.kind in {"Spider", "Path"}
                if family.kind == "Path":
                    assert n == 5


def test_noncritical_subset_of_leaves_and_bounded():
    for n in range(4, 11):
        for tree in all_trees(n):
            if not tree_is_prime(tree):
                continue
            sigma = noncritical_vertices(tree)
            assert set(sigma.vertices) <= set(tree.leaves)
            assert sigma.k <= tree.n // 2
