from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import islice, product
from math import factorial, isqrt, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import labeled_trees
from primetrees import enumeration
from primetrees.enumeration import (
    _prufer_trees,
    all_tree_codes,
    all_trees,
    canonical_form,
    decode_canonical,
    labeled_tree_class_codes,
    prufer_decode,
)
from primetrees.families import path, pkt, spider
from primetrees.graph import GraphError, TreeCert, build_graph, certify_tree
from primetrees.modules import tree_is_prime


def p(n):
    return certify_tree(build_graph(n, [(i, i + 1) for i in range(n - 1)]))


def relabeled(tree, rng):
    perm = list(range(tree.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in tree.graph.edges()]
    return certify_tree(build_graph(tree.n, edges))


def test_canonical_equalities():
    assert canonical_form(p(5)) == canonical_form(spider(2).cert)
    star4 = certify_tree(build_graph(5, [(0, i) for i in range(1, 5)]))
    assert canonical_form(p(5)) != canonical_form(star4)
    assert canonical_form(p(6)) == canonical_form(p(6))
    assert canonical_form(p(7)) != canonical_form(spider(3).cert)


def test_pkt_matches_hand_built_edge_set():
    # the 6-vertex single-hub member: shifted 4-path 3-4-5-6 plus the
    # pendant pair 1-2 attached at 4 (1-based labels)
    hand = certify_tree(
        build_graph(6, [(2, 3), (3, 4), (4, 5), (0, 1), (3, 1)])
    )
    assert canonical_form(hand) == canonical_form(pkt(4, 1).cert)


@given(labeled_trees(), st.randoms(use_true_random=False))
def test_canonical_invariant_under_relabeling(tree, rng):
    assert canonical_form(relabeled(tree, rng)) == canonical_form(tree)


def test_canonical_invariant_fifty_relabelings_per_tree():
    rng = random.Random(987)
    for n in range(1, 11):
        for tree in all_trees(n):
            code = canonical_form(tree)
            for _ in range(50):
                assert canonical_form(relabeled(tree, rng)) == code


def test_class_counts_match_published_table():
    # number of unlabeled trees (OEIS A000055)
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]
    for n, count in enumerate(expected, start=1):
        assert len(all_tree_codes(n)) == count


def test_class_codes_are_pinned_byte_for_byte():
    # the other code tests compare the coder with itself; this pins its bytes
    data = b"".join(c + b"\n" for n in range(1, 15) for c in all_tree_codes(n))
    digest = "78bbef247e0d19c2917859f68aba7295dd9c56ef76289a912ea09ced623fb3e4"
    assert hashlib.sha256(data).hexdigest() == digest


def automorphism_count(tree):
    """|Aut T| by AHU naming: each vertex contributes k! for every k equal
    child names, and a bicentroidal tree with equal halves one factor 2."""
    n, adj = tree.n, tree.graph.adj
    ids = {}

    def bfs(root, banned):
        parent = {root: banned}
        order = [root]
        for u in order:
            for w in adj[u]:
                if w != parent[u]:
                    parent[w] = u
                    order.append(w)
        return order, parent

    def rooted(root, banned):
        """(name, automorphisms) of the subtree at root that avoids banned."""
        order, parent = bfs(root, banned)
        name, aut = {}, {}
        for u in reversed(order):
            kids = [w for w in adj[u] if w != parent[u]]
            names = sorted(name[w] for w in kids)
            aut[u] = prod(aut[w] for w in kids) * prod(map(factorial, Counter(names).values()))
            name[u] = ids.setdefault(tuple(names), len(ids))
        return name[root], aut[root]

    order, parent = bfs(0, -1)
    size = dict.fromkeys(order, 1)
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    weight = {
        u: max([n - size[u]] + [size[w] for w in adj[u] if w != parent[u]]) for u in order
    }
    least = min(weight.values())
    cents = [u for u in order if weight[u] == least]
    if len(cents) == 1:
        return rooted(cents[0], -1)[1]
    (a, aut_a), (b, aut_b) = rooted(cents[0], cents[1]), rooted(cents[1], cents[0])
    return aut_a * aut_b * (2 if a == b else 1)


def test_orbit_counts_sum_to_cayley():
    # each class is hit by n!/|Aut T| labeled trees, n^(n-2) in all
    assert automorphism_count(p(4)) == 2
    assert automorphism_count(certify_tree(build_graph(5, [(0, i) for i in range(1, 5)]))) == 24
    for n in range(1, 17):
        total = sum(factorial(n) // automorphism_count(tree) for tree in all_trees(n))
        assert total == n ** max(n - 2, 0), n


def test_no_duplicate_codes_and_sorted_order():
    for n in range(1, 10):
        codes = all_tree_codes(n)
        assert len(set(codes)) == len(codes)
        assert list(codes) == sorted(codes)


def test_decode_round_trip():
    for n in range(1, 9):
        for code in all_tree_codes(n):
            tree = decode_canonical(code)
            assert tree.n == n
            assert canonical_form(tree) == code


def test_decode_rejects_malformed():
    with pytest.raises(GraphError):
        decode_canonical(b"110")
    with pytest.raises(GraphError):
        decode_canonical(b"10extra")
    with pytest.raises(GraphError):
        decode_canonical(b"")


def test_prufer_decode_is_a_tree():
    for seq in [(0, 0), (1, 2), (3, 3), (0, 2)]:
        edges = prufer_decode(seq, 4)
        cert = certify_tree(build_graph(4, edges))
        assert cert.n == 4


def test_prufer_decode_edges_are_pinned():
    # the decoder's edges, pinned byte for byte over random sequences
    rng = random.Random(20260101)
    digest = hashlib.sha256()
    for _ in range(20_000):
        n = rng.randint(2, 30)
        seq = tuple(rng.randrange(n) for _ in range(n - 2))
        digest.update(repr(prufer_decode(seq, n)).encode() + b"\n")
    expected = "6f02584a5cecf122f8130819a4de46948c13ebbb6c807608ecfc05ab3b3deacb"
    assert digest.hexdigest() == expected


def adjacency_rooted_code(adj, root):
    """AHU code of the tree rooted at `root`: 1 <sorted child codes> 0, each
    pending code cleared once its parent is encoded (the adjacency coder that
    the parent-array coder replaced)."""
    parent = [-1] * len(adj)
    order = [root]
    for u in order:
        for w in adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    kids = [[] for _ in order]
    for u in reversed(order):
        k = kids[u]
        k.sort()
        code = b"".join((b"1", *k, b"0"))
        k.clear()
        if parent[u] >= 0:
            kids[parent[u]].append(code)
    return code


def adjacency_canonical(adj):
    """Oracle for `canonical_form`: the rooted code at the centroid, or the
    smaller one at the two centroids, each found from its component sizes."""
    n, order, parent = len(adj), [0], [-1] * len(adj)
    for u in order:
        for w in adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    size = [1] * n
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    heaviest = [max([n - size[u]] + [size[w] for w in adj[u] if w != parent[u]]) for u in range(n)]
    least = min(heaviest)
    return min(adjacency_rooted_code(adj, u) for u in range(n) if heaviest[u] == least)


def parent_adjacency(parent):
    adj = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            adj[v].append(p)
            adj[p].append(v)
    return adj


@st.composite
def relabeled_trees(draw, max_half: int = 150) -> TreeCert:
    """A random tree on up to 2 * max_half vertices, relabeled; half of them
    bicentroidal, made by joining two random trees of equal size by an edge."""
    one = draw(labeled_trees(max_n=max_half))
    if draw(st.booleans()):
        other = draw(labeled_trees(min_n=one.n, max_n=one.n))
        ends = (draw(st.integers(0, one.n - 1)), one.n + draw(st.integers(0, one.n - 1)))
        edges = one.graph.edges() + [(u + one.n, v + one.n) for u, v in other.graph.edges()]
        one = certify_tree(build_graph(2 * one.n, [*edges, ends]))
    perm = draw(st.permutations(range(one.n)))
    return certify_tree(build_graph(one.n, [(perm[u], perm[v]) for u, v in one.graph.edges()]))


@given(relabeled_trees())
def test_parent_array_coder_matches_the_adjacency_coder(tree):
    assert canonical_form(tree) == adjacency_canonical(tree.graph.adj)


def test_parent_array_coder_matches_the_adjacency_coder_on_long_paths_and_brooms():
    rng = random.Random(1401)
    for n in (1000, 1001, 2000, 4000):
        handle = n - n // 10  # a broom: a path whose last vertex has n // 10 bristles
        broom = [(i, i + 1) for i in range(handle - 1)]
        broom += [(handle - 1, v) for v in range(handle, n)]
        for tree in (path(n).cert, certify_tree(build_graph(n, broom))):
            code = adjacency_canonical(tree.graph.adj)
            assert canonical_form(tree) == code
            assert canonical_form(relabeled(tree, rng)) == code


def test_decoder_names_rooted_trees_as_the_byte_coder_does():
    # the walk over every sequence with 3 <= n <= 7 yields the first tree of
    # each rooted name only: one per rooted tree on n vertices (OEIS A000081),
    # so the names split no class and merge none; equal names <=> equal AHU
    # codes rooted at n-1
    for n, rooted in zip(range(3, 8), (2, 4, 9, 20, 48)):
        heads = product(range(n), repeat=n - 3)
        codes = [
            adjacency_rooted_code(parent_adjacency(parent), n - 1)
            for parent in _prufer_trees(n, heads, range(n), {})
        ]
        assert len(codes) == len(set(codes)) == rooted


def test_prufer_decode_reads_no_prime_on_large_trees(monkeypatch):
    # decoding gives every subtree the name 1, so no prime is read however
    # many distinct subtrees the tree has
    def no_primes():
        raise AssertionError("prufer_decode read a prime")
        yield  # a generator: the error comes with the first next()

    monkeypatch.setattr(enumeration, "_primes", no_primes)
    n = 10**5
    star = prufer_decode((0,) * (n - 2), n)
    assert star == [(0, v) for v in range(1, n)]
    path_edges = prufer_decode(tuple(range(1, n - 1)), n)
    assert path_edges == [(v, v + 1) for v in range(n - 1)]


def test_the_walk_names_every_rooted_subtree_of_a_large_tree():
    # a new product takes the next prime of an unbounded stream, so the walk
    # names all 630 distinct rooted subtrees below this tree's root n-1, more
    # than there are rooted trees on at most 9 vertices (486)
    rng = random.Random(7)
    n = 2000
    seq = [rng.randrange(n) for _ in range(n - 2)]
    names = {}
    (parent,) = _prufer_trees(n, [seq[:-1]], seq[-1:], names)
    kids = [[] for _ in parent]
    for v, p in enumerate(parent[:-1]):
        kids[p].append(v)
    order = [n - 1]
    for u in order:
        order += kids[u]
    ahu, ids = {}, [0] * n  # interned AHU tuples of sorted child ids
    for u in reversed(order):
        ids[u] = ahu.setdefault(tuple(sorted(ids[w] for w in kids[u])), len(ahu))
    assert len(names) == len(set(ids[:-1])) == 630
    assert sorted(names.values()) == list(islice(enumeration._primes(), 630))


def test_prime_stream_yields_the_primes_in_order():
    first = list(islice(enumeration._primes(), 500))
    primes = [m for m in range(2, first[-1] + 1) if all(m % d for d in range(2, isqrt(m) + 1))]
    assert first == primes


def test_prufer_decode_rejections():
    with pytest.raises(GraphError):
        prufer_decode((0,), 4)
    with pytest.raises(GraphError):
        prufer_decode((9, 0), 4)
    for entry in (1.0, "a", None, True):
        with pytest.raises(GraphError, match="not an integer"):
            prufer_decode((entry,), 3)
    with pytest.raises(GraphError, match="vertex count 3.0 is not an integer"):
        prufer_decode((0,), 3.0)
    with pytest.raises(GraphError, match="vertex count True is not an integer"):
        prufer_decode((), True)


def test_guards():
    with pytest.raises(GraphError, match="1..18"):
        all_tree_codes(19)
    with pytest.raises(GraphError, match="1..9"):
        labeled_tree_class_codes(10)
    with pytest.raises(GraphError):
        all_tree_codes(0)
    all_tree_codes(5)  # cached: the float must still be refused
    with pytest.raises(GraphError, match="vertex count 5.0 is not an integer"):
        all_tree_codes(5.0)
    with pytest.raises(GraphError, match="vertex count 4.0 is not an integer"):
        labeled_tree_class_codes(4.0)
    all_tree_codes(1)  # cached: a bool must not be served as 1
    for count in (True, False):
        with pytest.raises(GraphError, match=f"vertex count {count} is not an integer"):
            all_tree_codes(count)
        with pytest.raises(GraphError, match=f"vertex count {count} is not an integer"):
            labeled_tree_class_codes(count)


def test_count_by_predicate():
    assert sum(1 for _ in all_trees(4)) == 2
    assert sum(1 for _ in all_trees(7)) == 11
    assert sum(1 for _ in all_trees(1)) == 1
    assert sum(1 for t in all_trees(6) if tree_is_prime(t)) == 2
    assert sum(1 for t in all_trees(5) if tree_is_prime(t)) == 1
