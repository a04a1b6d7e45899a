from __future__ import annotations

from itertools import combinations

from hypothesis import assume
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
    """Random prime tree: a random labeled tree made prime by subdividing the
    edge to every leaf but the smallest at each support with several leaves,
    then relabeled, so it covers shapes well beyond the corona trees."""
    base = draw(labeled_trees(min_n=3, max_n=max_n // 2))
    edges = base.graph.edges()
    fresh = base.n
    for support in base.supports:
        for leaf in base.leaf_neighbors(support)[1:]:
            edges.remove((min(support, leaf), max(support, leaf)))
            edges += [(support, fresh), (fresh, leaf)]
            fresh += 1
    assume(fresh >= min_n)
    perm = draw(st.permutations(range(fresh)))
    tree = certify_tree(build_graph(fresh, [(perm[u], perm[v]) for u, v in edges]))
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
