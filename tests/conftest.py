from __future__ import annotations

from itertools import combinations

from hypothesis import strategies as st

from primetrees.enumeration import prufer_decode
from primetrees.graph import Graph, TreeCert, build_graph, certify_tree
from primetrees.modules import tree_is_prime


@st.composite
def labeled_trees(draw, min_n: int = 1, max_n: int = 9) -> TreeCert:
    """Random labeled tree, uniform over sequences for each n."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if n == 1:
        return certify_tree(build_graph(1, []))
    if n == 2:
        return certify_tree(build_graph(2, [(0, 1)]))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return certify_tree(build_graph(n, prufer_decode(tuple(seq), n)))


@st.composite
def prime_trees(draw, min_n: int = 5, max_n: int = 60) -> TreeCert:
    """Random prime tree on min_n..max_n vertices; every one can be drawn.

    From n >= 4 on, a tree is prime exactly when each support has one leaf.
    Deleting the leaves leaves a core tree on m vertices and the set S of
    supports, which holds every leaf of the core, with m + |S| = n, so
    n / 2 <= m <= n - 2.  The size n is drawn first, then m, then a core with
    at most n - m leaves: a core's leaves are the labels its sequence (length
    m - 2) misses, so the sequence uses at least 2m - n distinct labels.  S is
    the core's leaves and more core vertices, each given one pendant leaf,
    and the tree is relabeled.
    """
    n = draw(st.integers(min_value=max(min_n, 4), max_value=max_n))
    m = draw(st.integers(min_value=(n + 1) // 2, max_value=n - 2))
    if m == 2:
        core = [(0, 1)]
    else:
        labels = st.integers(0, m - 1)
        used = draw(st.lists(labels, min_size=max(2 * m - n, 1), max_size=m - 2, unique=True))
        rest = m - 2 - len(used)
        repeats = draw(st.lists(st.sampled_from(used), min_size=rest, max_size=rest))
        core = prufer_decode(tuple(draw(st.permutations(used + repeats))), m)
    degree = [0] * m
    for u, v in core:
        degree[u] += 1
        degree[v] += 1
    leaves = [v for v in range(m) if degree[v] == 1]
    others = draw(st.permutations([v for v in range(m) if degree[v] > 1]))
    supports = leaves + others[: n - m - len(leaves)]
    edges = core + [(s, m + i) for i, s in enumerate(supports)]
    perm = draw(st.permutations(range(n)))
    tree = certify_tree(build_graph(n, [(perm[u], perm[v]) for u, v in edges]))
    assert tree_is_prime(tree)
    return tree


@st.composite
def simple_graphs(draw, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_value=0, max_value=max_n))
    possible = list(combinations(range(n), 2))
    if possible:
        edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible), unique=True))
    else:
        edges = []
    return build_graph(n, edges)
