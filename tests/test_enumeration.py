from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter
from itertools import combinations_with_replacement, islice, product
from math import factorial, isqrt, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import labeled_trees
from primetrees import enumeration
from primetrees.enumeration import (
    _decode,
    _degree_shapes,
    _new_root_names,
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
    # most code tests compare the coder with itself; this pins the generated bytes
    data = b"".join(c + b"\n" for n in range(1, 15) for c in all_tree_codes(n))
    digest = "78bbef247e0d19c2917859f68aba7295dd9c56ef76289a912ea09ced623fb3e4"
    assert hashlib.sha256(data).hexdigest() == digest
    # one size at a time past 14, in the CI class-guard step's format
    pins = {
        15: (7741, "834c10e12d8b3b10d5f777169c367e5d49879f5b93b6bf8855aa65c3f72e12b0"),
        16: (19320, "7adb74717e5c6653bfd5552d6ed6ad8ecd15bea635300dac92ebfc08e081033d"),
    }
    for n, (count, digest) in pins.items():
        codes = all_tree_codes(n)
        got = hashlib.sha256(b"".join(c + b"\n" for c in codes)).hexdigest()
        assert (len(codes), got) == (count, digest), n


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
    # the generator never calls the coder, so this compares two constructions
    for n in range(1, 14):
        for code in all_tree_codes(n):
            tree = decode_canonical(code)
            assert tree.n == n
            assert canonical_form(tree) == code


def test_decode_rejects_malformed():
    for code, message in (
        (b"110", "malformed tree code: unbalanced"),
        (b"10extra", "malformed tree code: byte 0x65"),
        (b"100", "malformed tree code: unbalanced"),
        (b"", "malformed tree code: unbalanced"),
        (b"01", "malformed tree code: unbalanced"),
        # two roots: the certificate, not the parse, refuses a forest
        (b"1010", "not a tree: 0 edges on 2 vertices"),
    ):
        with pytest.raises(GraphError) as caught:
            decode_canonical(code)
        assert str(caught.value) == message, code


def _stack_parse(code):
    """The vertex count and parent-child edges of a well-formed 1/0 code,
    ids in preorder."""
    edges, stack, n = [], [], 0
    for ch in code:
        if ch == ord("1"):
            if stack:
                edges.append((stack[-1], n))
            stack.append(n)
            n += 1
        else:
            stack.pop()
    return n, edges


def _random_code(rng, n):
    """A well-formed 1/0 code of a random rooted tree on n vertices."""
    out, depth, left = ["1"], 0, n - 1  # depth below the root, '1's to write
    while left or depth:
        if left and (depth == 0 or rng.random() < 0.5):
            out.append("1")
            depth, left = depth + 1, left - 1
        else:
            out.append("0")
            depth -= 1
    return "".join(out).encode() + b"0"


def test_decode_matches_build_graph_on_a_stack_parse():
    # the decoder writes its neighbour tuples itself; build_graph on the
    # edges of a plain parse must give the same graph
    rng = random.Random(20261021)
    codes = [code for n in range(1, 14) for code in all_tree_codes(n)]
    codes += [_random_code(rng, rng.randint(1, 40)) for _ in range(3000)]
    for code in codes:
        assert decode_canonical(code).graph == build_graph(*_stack_parse(code)), code


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


def new_root_names(n, tails):
    """The namer's first sequence of each rooted name over `tails`, one
    stream of names and one set of seen roots shared by all of them."""
    names, primes, seen = {}, enumeration._primes(), set()
    return [seq for tail in tails for seq in _new_root_names(n, tail, names, primes, seen)]


def test_decoder_names_rooted_trees_as_the_byte_coder_does():
    # the walk over every sequence with 3 <= n <= 7 (every arrangement of
    # every multiset of n-2 entries, n-2 and n-1 included) gives the first
    # sequence of each rooted name only: one per rooted tree on n vertices
    # (OEIS A000081), so the names split no class and merge none; equal
    # names <=> equal AHU codes rooted at n-1
    for n, rooted in zip(range(3, 8), (2, 4, 9, 20, 48)):
        tails = combinations_with_replacement(range(n), n - 2)
        codes = [
            adjacency_rooted_code(parent_adjacency(_decode(seq, n)[0]), n - 1)
            for seq in new_root_names(n, tails)
        ]
        assert len(codes) == len(set(codes)) == rooted


def test_walk_over_the_low_labels_names_every_tree_rooted_at_a_leaf():
    # a vertex appears deg - 1 times in a Prüfer sequence, so the sequences
    # over 0..n-3 are the labeled trees in which n-2 and n-1 are leaves; the
    # walk gives one per rooted name at the leaf n-1: a rooted tree on n-1
    # vertices below it (OEIS A000081), so every rooted tree is reached; the
    # same holds for the degree shapes alone, one sorted tail per partition
    for n, rooted in zip(range(3, 10), (1, 2, 4, 9, 20, 48, 115)):
        for tails in (
            combinations_with_replacement(range(n - 2), n - 2),
            _degree_shapes(n - 2),
        ):
            codes = []
            for seq in new_root_names(n, tails):
                parent, _ = _decode(seq, n)
                assert n - 2 not in parent and parent.count(n - 1) == 1
                codes.append(adjacency_rooted_code(parent_adjacency(parent), n - 1))
            assert len(codes) == len(set(codes)) == rooted


def test_decode_lists_every_vertex_after_its_children():
    # the removal order, then the root n-1, feeds the byte coder directly
    for n in range(2, 8):
        for seq in product(range(n), repeat=n - 2):
            parent, order = _decode(seq, n)
            at = {v: i for i, v in enumerate(order)}
            assert sorted(order) == list(range(n)) and order[-1] == n - 1
            assert parent[n - 1] == -1
            assert all(at[v] < at[parent[v]] for v in range(n - 1)), seq


def test_degree_shapes_are_the_partitions_of_the_tail_length():
    # one sorted tail per partition of k (OEIS A000041), label i taking the
    # i-th largest part; their arrangements number OEIS A005651(k)
    partitions = (1, 2, 3, 5, 7, 11, 15, 22)
    arrangements = (1, 3, 10, 47, 246, 1602, 11481, 95503)
    for k, parts, total in zip(range(1, 9), partitions, arrangements):
        tails = list(_degree_shapes(k))
        assert len(tails) == len(set(tails)) == parts
        walked = 0
        for tail in tails:
            counts = [tail.count(label) for label in range(max(tail) + 1)]
            assert list(tail) == sorted(tail) and len(tail) == k
            assert counts == sorted(counts, reverse=True) and min(counts) > 0
            walked += factorial(k) // prod(map(factorial, counts))
        assert walked == total


def test_labeled_oracle_matches_the_generator():
    # the one comparison of the oracle with Otter's join past the selftest's
    # n = 9; CI runs n = 11 and 12, the guard
    for n in range(1, 11):
        assert labeled_tree_class_codes(n) == frozenset(all_tree_codes(n)), n


def test_prufer_decode_reads_no_prime_on_large_trees(monkeypatch):
    # decoding names no subtree, so no prime is read however many distinct
    # subtrees the tree has
    def no_primes():
        raise AssertionError("prufer_decode read a prime")
        yield  # a generator: the error comes with the first next()

    monkeypatch.setattr(enumeration, "_primes", no_primes)
    n = 10**5
    star = prufer_decode((0,) * (n - 2), n)
    assert star == [(0, v) for v in range(1, n)]
    path_edges = prufer_decode(tuple(range(1, n - 1)), n)
    assert path_edges == [(v, v + 1) for v in range(n - 1)]


def test_prufer_decode_walks_its_sequence_in_a_loop():
    # the decoder steps through the whole sequence in a plain loop: no
    # recursion, however long the sequence
    n = 10**5
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        star = prufer_decode((0,) * (n - 2), n)
        path_edges = prufer_decode(tuple(range(1, n - 1)), n)
    finally:
        sys.setrecursionlimit(limit)
    assert star == [(0, v) for v in range(1, n)]
    assert path_edges == [(v, v + 1) for v in range(n - 1)]


def test_the_sweep_interns_one_prime_per_rooted_tree_below_its_root(monkeypatch):
    # a new product takes the next prime of an unbounded stream; at n = 10
    # the sweep names every rooted tree on 1..9 vertices once, sum of OEIS
    # A000081(1..9) = 486, and each of the 286 on 9 vertices below the leaf
    # n-1 is a new root name
    walk, calls = enumeration._new_root_names, []

    def recorded(n, tail, names, primes, seen):
        calls.append((names, seen))
        return walk(n, tail, names, primes, seen)

    monkeypatch.setattr(enumeration, "_new_root_names", recorded)
    assert labeled_tree_class_codes(10) == frozenset(all_tree_codes(10))
    names, seen = calls[-1]
    assert all(call[0] is names and call[1] is seen for call in calls)
    assert len(names) == 486 and len(seen) == 286
    assert sorted(names.values()) == list(islice(enumeration._primes(), 486))


def test_prime_stream_yields_the_primes_in_order():
    first = list(islice(enumeration._primes(), 500))
    primes = [m for m in range(2, first[-1] + 1) if all(m % d for d in range(2, isqrt(m) + 1))]
    assert first == primes


def test_prufer_decode_rejections():
    with pytest.raises(GraphError):
        prufer_decode((0,), 4)
    with pytest.raises(GraphError, match="^sequence decoding needs n >= 2$"):
        prufer_decode((), 1)
    for seq, kind in (((x for x in (0, 1)), "generator"), (None, "NoneType")):
        with pytest.raises(GraphError, match=f"^sequence must have a length, got a {kind}$"):
            prufer_decode(seq, 4)
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
    with pytest.raises(GraphError, match="1..12"):
        labeled_tree_class_codes(13)
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
