from __future__ import annotations

import pytest

from primetrees import families
from primetrees.critical import noncritical_vertices
from primetrees.enumeration import canonical_form
from primetrees.families import FAMILY_NMAX, build_family, path, pkt, pmn, skmn, spider
from primetrees.graph import GraphError
from primetrees.modules import tree_is_prime
from primetrees.selftest import family_sigma_exceptions


def sigma_labels(family):
    back = family.id_to_label
    return {back[v] for v in noncritical_vertices(family.cert).vertices}


def test_path_basics():
    assert path(1).cert.n == 1
    assert path(3).cert.n == 3 and not tree_is_prime(path(3).cert)
    assert tree_is_prime(path(4).cert)
    assert path(4).labels == {"1": 0, "2": 1, "3": 2, "4": 3}
    with pytest.raises(GraphError):
        path(0)


def test_spider_basics():
    family = spider(3)
    assert family.cert.n == 7
    assert family.cert.graph.degree(family.labels["0"]) == 3
    assert sigma_labels(family) == {"4", "5", "6"}
    assert canonical_form(spider(2).cert) == canonical_form(path(5).cert)
    with pytest.raises(GraphError):
        spider(1)


def test_pkt_basics():
    family = pkt(5, 1)
    assert family.cert.n == 7
    assert sigma_labels(family) == {"3", "7"}
    assert sigma_labels(pkt(4, 1)) == {"3"}
    with pytest.raises(GraphError):
        pkt(3, 1)
    with pytest.raises(GraphError):
        pkt(4, 0)


def test_pmn_basics():
    family = pmn(4, 1, 1)
    assert family.cert.n == 8
    assert sigma_labels(family) == {"5", "8"}
    with pytest.raises(GraphError):
        pmn(3, 1, 1)
    with pytest.raises(GraphError):
        pmn(4, 0, 1)


def test_skmn_basics():
    family = skmn(1, 2, 2)
    assert family.cert.n == 6
    assert set(family.labels) == {"r", "a1", "b1", "b2", "c1", "c2"}
    assert family.cert.graph.degree(family.labels["r"]) == 3
    assert skmn(2, 2, 2).cert.n == 7
    assert canonical_form(skmn(2, 2, 2).cert) == canonical_form(spider(3).cert)
    with pytest.raises(GraphError, match="1 <= k <= m <= n"):
        skmn(2, 1, 3)
    with pytest.raises(GraphError):
        skmn(0, 1, 2)


def test_vertex_counts():
    assert pkt(6, 2).cert.n == 10
    assert pmn(5, 2, 1).cert.n == 11
    assert skmn(1, 2, 5).cert.n == 9
    assert spider(4).cert.n == 9


def test_skmn_primality_boundary():
    # legs of length 1 and 1 put two leaves at distance 2
    assert not tree_is_prime(skmn(1, 1, 3).cert)
    assert tree_is_prime(skmn(1, 2, 2).cert)


def test_all_members_certify_with_advertised_size():
    for k in range(4, 8):
        for t in range(1, 4):
            assert pkt(k, t).cert.n == 2 * t + k
    for m in range(4, 8):
        for n1 in range(1, 3):
            for n2 in range(1, 3):
                assert pmn(m, n1, n2).cert.n == m + 2 * (n1 + n2)


def test_family_noncritical_sets_and_distinctness():
    assert family_sigma_exceptions() == []


def test_pmn_mirror_parameters_are_isomorphic():
    assert canonical_form(pmn(5, 1, 2).cert) == canonical_form(pmn(5, 2, 1).cert)


def test_build_family_dispatch():
    assert build_family("A", [3]).cert.n == 7
    assert build_family("path", [4]).tag == "path"
    with pytest.raises(GraphError, match="unknown family"):
        build_family("Q", [1])
    with pytest.raises(GraphError, match="parameter"):
        build_family("Pkt", [4])


@pytest.mark.parametrize(
    "tag, params",
    [  # each one vertex past the cap
        ("path", [FAMILY_NMAX + 1]),
        ("A", [FAMILY_NMAX // 2]),
        ("Pkt", [FAMILY_NMAX - 1, 1]),
        ("Pmn", [FAMILY_NMAX - 3, 1, 1]),
        ("Skmn", [1, 1, FAMILY_NMAX - 2]),
    ],
)
def test_family_size_cap_refuses_before_building(monkeypatch, tag, params):
    def unreachable(*args):
        raise AssertionError("build_graph reached above the family cap")

    monkeypatch.setattr(families, "build_graph", unreachable)
    n = FAMILY_NMAX + 1
    message = f"family {tag} member on {n} vertices is above the size cap {FAMILY_NMAX}"
    with pytest.raises(GraphError, match=message):
        build_family(tag, params)
    # parameter checks still come first
    with pytest.raises(GraphError, match="needs"):
        build_family(tag, [0] * len(params))
