from __future__ import annotations

import tracemalloc
from itertools import chain, combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import labeled_trees, simple_graphs
import primetrees.graph
from primetrees.graph import (
    GUARD_CAP,
    GraphError,
    build_graph,
    certify_tree,
    format_edge_list,
    read_edge_list,
)
from primetrees.graph import _blocks


def p4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3)])


def star4():
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])


def test_build_path():
    g = p4()
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_build_single_vertex():
    g = build_graph(1, [])
    assert g.n == 1
    assert g.edges() == []


def test_build_rejects_self_loop():
    with pytest.raises(GraphError, match=r"self-loop \(0, 0\)"):
        build_graph(3, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError, match=r"\(1, 7\)"):
        build_graph(3, [(0, 1), (1, 7)])


def test_build_collapses_duplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edges() == [(0, 1)]


def test_degree():
    g = p4()
    assert g.degree(0) == 1
    assert g.degree(1) == 2
    assert star4().degree(0) == 3
    with pytest.raises(GraphError):
        g.degree(4)


def test_connected_components():
    assert p4().is_connected()
    assert build_graph(0, []).is_connected() and build_graph(1, []).is_connected()
    assert not build_graph(3, []).is_connected()
    sub, remap = p4().induced_subgraph([0, 2, 3])
    assert remap == (0, 2, 3)
    assert not sub.is_connected()


def test_induced_subgraph():
    sub, remap = p4().induced_subgraph([0, 1, 2])
    assert remap == (0, 1, 2)
    assert sub.edges() == [(0, 1), (1, 2)]
    whole, remap = p4().induced_subgraph(range(4))
    assert whole.edges() == p4().edges()
    empty, _ = p4().induced_subgraph([0, 3])
    assert empty.edges() == []
    with pytest.raises(GraphError):
        p4().induced_subgraph([0, 9])


def test_certify_tree_examples():
    cert = certify_tree(p4())
    assert cert.leaves == (0, 3)
    assert cert.supports == (1, 2)
    cert = certify_tree(star4())
    assert cert.leaves == (1, 2, 3)
    assert cert.supports == (0,)
    assert cert.leaf_neighbors(0) == (1, 2, 3)
    assert cert.support_of(1) == 0


def test_certify_tree_rejections():
    cycle = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(GraphError, match="not a tree"):
        certify_tree(cycle)
    disconnected = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError, match="not a tree"):
        certify_tree(disconnected)
    with pytest.raises(GraphError, match="not a tree"):
        certify_tree(build_graph(0, []))


@given(labeled_trees(max_n=40))
def test_tree_cert_facts_match_their_definitions(tree):
    g = tree.graph
    leaf = [g.degree(v) == 1 for v in range(g.n)]
    assert tree.leaves == tuple(v for v in range(g.n) if leaf[v])
    assert tree.supports == tuple(v for v in range(g.n) if any(leaf[w] for w in g.adj[v]))
    for v in range(g.n):
        assert tree.leaf_neighbors(v) == tuple(w for w in g.adj[v] if leaf[w])


def test_support_of_rejects_internal():
    cert = certify_tree(p4())
    with pytest.raises(GraphError, match="not a leaf"):
        cert.support_of(1)


@given(simple_graphs())
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


@given(simple_graphs())
def test_induced_on_everything_is_identity(g):
    sub, remap = g.induced_subgraph(range(g.n))
    assert remap == tuple(range(g.n))
    assert sub.edges() == g.edges()


@given(simple_graphs())
def test_components_partition_vertices(g):
    # union-find over the edges: connected iff at most one class is left
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges():
        root[find(u)] = find(v)
    assert g.is_connected() == (len({find(v) for v in range(g.n)}) <= 1)


def test_edge_list_round_trip():
    text = "# family: demo\n# labels: a=0 b=1\n4\n0 1\n1 2\n2 3\n"
    g, annotations = read_edge_list(text)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert annotations == {"family": "demo", "labels": "a=0 b=1"}
    emitted = format_edge_list(g, annotations)
    again, annotations2 = read_edge_list(emitted)
    assert again == g and annotations2 == annotations
    assert format_edge_list(again, annotations2) == emitted
    for bad in ({"command": "x --set 1,\n 7"}, {"a\rb": "c"}, {"note": "x\u2028"}):
        with pytest.raises(GraphError, match="line break"):
            format_edge_list(g, bad)


def test_edge_list_ignores_plain_comments_and_blanks():
    g, annotations = read_edge_list("# just a note\n\n2\n\n0 1\n")
    assert g.edges() == [(0, 1)]
    assert annotations == {}


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "missing vertex count"),
        ("x\n", "vertex count"),
        ("3\n0\n", "expected 'u v'"),
        ("3\n0 a\n", "integers"),
        ("2 3\n0 1\n", "expected vertex count"),
    ],
)
def test_edge_list_rejects_malformed(text, message):
    with pytest.raises(GraphError, match=message):
        read_edge_list(text)


def test_edge_list_refuses_oversized_header_before_allocating(monkeypatch):
    def refuse(n, edges):
        raise AssertionError(f"build_graph reached with n={n}")

    monkeypatch.setattr(primetrees.graph, "build_graph", refuse)
    for text in ("200000000\n0 1\n", f"{GUARD_CAP + 1}\n"):
        with pytest.raises(GraphError, match="guard cap"):
            read_edge_list(text)
    # enough edge lines, but duplicated or clustered on a few vertices, so
    # some vertex is isolated
    n = 3000
    clustered = "".join(f"{u} {v}\n" for u, v in list(combinations(range(80), 2))[: n - 1])
    for body in ("0 1\n" * (n - 1), clustered):
        assert body.count("\n") == n - 1
        with pytest.raises(GraphError, match="guard cap.*appear in no edge line"):
            read_edge_list(f"{n}\n{body}")


def test_edge_list_parse_holds_a_few_bytes_per_edge_line():
    lines = 150_000
    text = f"{lines + 1}\n" + "0 1\n" * lines
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="appear in no edge line"):
            read_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two list slots per line, with the list's spare room, plus one block of
    # lines; a list of every line and a tuple per edge took about 125 bytes
    # per line
    assert peak < 24 * lines + 2**21


def test_edge_list_parse_of_a_long_path_builds_no_set_per_vertex():
    n = 10**5
    text = f"{n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))
    tracemalloc.start()
    try:
        graph, _ = read_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.edge_count == n - 1
    # about 23 MB: the endpoint list, a short neighbor list per vertex and
    # the finished Graph; a set per vertex (about 216 bytes even for a leaf)
    # took about 36 MB
    assert peak < 28_000_000


@given(st.text(alphabet="ab \n\r\x0b\x0c\x1c\x85\u2028", max_size=40), st.integers(1, 6))
def test_edge_list_blocks_keep_the_line_breaks(text, size):
    pieces = list(_blocks(text, size))
    assert "".join(pieces) == text
    assert list(chain.from_iterable(map(str.splitlines, pieces))) == text.splitlines()


def test_edge_list_keeps_small_or_edge_backed_headers():
    assert read_edge_list(f"{GUARD_CAP}\n")[0].n == GUARD_CAP
    star = "".join(f"0 {i}\n" for i in range(1, 30))
    assert read_edge_list(f"30\n{star}")[0].n == 30


@given(simple_graphs())
def test_format_is_byte_stable(g):
    once = format_edge_list(g)
    assert format_edge_list(read_edge_list(once)[0]) == once
