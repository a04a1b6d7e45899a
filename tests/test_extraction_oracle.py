"""Extraction, a worklist on the input ids, against a local copy of the greedy
it replaced, which re-induces and certifies the subtree on every step and
tests each pair step by definition: the same subtree and id map on every
prime tree with 4 <= n <= 9 and every pinned subset, on random prime trees
with random pinned sets, and on seeded relabeled family members up to about
300 vertices; that the oracle, which tries single steps again after every
step, never takes a single step after a pair step, so extraction may run
them in two phases; and the radius of a step's effect that the worklist
relies on.  A faster extraction must keep this greedy order."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import prime_trees
from primetrees.critical import _leaf_table, unique_module_of_leaf_deletion
from primetrees.enumeration import all_trees
from primetrees.families import path, pkt, pmn, spider
from primetrees.graph import Graph, TreeCert, as_tree, build_graph, certify_tree
from primetrees.minimal import extract_minimal_subtree
from primetrees.modules import tree_is_prime

# ---------------------------------------------------------------------------
# oracle: the greedy on input ids, re-inducing and re-certifying every step


def _pair_deletion_is_prime(cert: TreeCert, leaf: int) -> bool:
    """By definition: T - {leaf, its support} is a tree, and a prime one."""
    rest = as_tree(cert.graph.without((leaf, cert.support_of(leaf)))[0])
    return rest is not None and tree_is_prime(rest)


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


def extraction_oracle(
    tree: TreeCert, pinned
) -> tuple[tuple, tuple[int, ...], list[int]]:
    """The subtree's adjacency, its id map and the size of every step taken."""
    pinned = set(pinned)
    keep = set(range(tree.n))
    sizes = []
    while (step := _oracle_step(tree.graph, keep, pinned)) is not None:
        keep -= step
        sizes.append(len(step))
    sub, idmap = tree.graph.induced_subgraph(keep)
    return sub.adj, idmap, sizes


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
                    adj, idmap, sizes = extraction_oracle(tree, pinned)
                    assert _extracted(tree, pinned) == (adj, idmap), (tree, pinned)
                    # the oracle tries single steps again after every step,
                    # yet a single step never follows a pair step: the
                    # lemma that lets extraction run them in two phases
                    assert sizes == sorted(sizes), (tree, pinned, sizes)
                    cases += 1
    assert cases == 7216


@settings(max_examples=100, deadline=None)
@given(prime_trees(), st.data())
def test_extraction_matches_the_oracle_on_random_prime_trees(tree, data):
    pinned = data.draw(st.sets(st.integers(0, tree.n - 1), max_size=6), label="pinned")
    assert _extracted(tree, pinned) == extraction_oracle(tree, pinned)[:2]


def _distances(graph: Graph, source: int) -> list[int]:
    dist = [-1] * graph.n
    dist[source] = 0
    queue = [source]
    for v in queue:
        for w in graph.adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


@settings(max_examples=100, deadline=None)
@given(prime_trees())
def test_a_single_step_changes_verdicts_only_near_its_support(tree):
    # the radius the worklist relies on: deleting a deletable leaf x with
    # support s changes the verdict of leaves within distance 3 of s only,
    # and the leaves it makes deletable are s itself and the leaves whose
    # partner was x
    partners = _leaf_table(tree).partners
    for x in tree.leaves:
        if x in partners:
            continue
        s = tree.support_of(x)
        dist = _distances(tree.graph, s)
        rest, idmap = tree.graph.without({x})
        after = certify_tree(rest)
        partners_after = _leaf_table(after).partners
        for new in after.leaves:
            y = idmap[new]
            was = tree.graph.degree(y) == 1 and y not in partners
            now = new not in partners_after
            if was != now:
                assert dist[y] <= 3, (x, y)
            if now and not was:
                assert y == s or partners.get(y) == (x,), (x, y)


def _long_legged_spider(legs: int) -> TreeCert:
    """A center with `legs` legs of three edges, a prime tree outside the
    named families."""
    edges = []
    for i in range(legs):
        a, b, c = 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(0, a), (a, b), (b, c)]
    return certify_tree(build_graph(3 * legs + 1, edges))


def test_extraction_matches_the_oracle_on_relabeled_family_members():
    rng = random.Random(2021)
    members = [
        path(300).cert, spider(150).cert, pkt(150, 75).cert, pmn(100, 50, 50).cert,
        spider(40).cert, pmn(9, 3, 30).cert, _long_legged_spider(100), _long_legged_spider(12),
    ]
    cases = 0
    for tree in members:
        for relabeled in (False, True):
            if relabeled:
                perm = list(range(tree.n))
                rng.shuffle(perm)
                edges = [(perm[u], perm[v]) for u, v in tree.graph.edges()]
                tree = certify_tree(build_graph(tree.n, edges))
            for size in (0, 2, 5):
                pinned = rng.sample(range(tree.n), size)
                expected = extraction_oracle(tree, pinned)[:2]
                assert _extracted(tree, pinned) == expected, (tree, pinned)
                cases += 1
    assert cases == 48
