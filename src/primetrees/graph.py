"""Immutable undirected simple graphs and certified trees.

Vertices are integer ids 0..n-1. Graphs never change after construction;
deleting vertices is expressed as taking the induced subgraph on the
remaining ids, which returns a fresh graph together with the id remap.
All queries are therefore safe under concurrent reads.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

# Largest `--guard` the CLI accepts (2^24 subsets); read_edge_list refuses
# a graph past it with too few edges to be connected.
GUARD_CAP = 24

# Default guards of the exponential oracles: module subset scans are 2^n and
# definitional minimality scans 2^(n-|X|) subsets; past these they stop being
# desk-scale.  They sit with the cap so the CLI's defaults load no oracle.
BRUTE_FORCE_GUARD = 20
MINIMALITY_GUARD = 16


class GraphError(ValueError):
    """Rejected input: malformed graph, bad vertex id, or guard violation."""


def _check_integer(value: object, name: str) -> None:
    """Refuse a value that is not an int, or is a bool, naming it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise GraphError(f"{name} {value!r} is not an integer")


def vertex_set(vertices: Iterable[int]) -> tuple[int, ...]:
    """Normalize an iterable of vertex ids into a sorted duplicate-free tuple."""
    return tuple(sorted(set(vertices)))


class Graph:
    """Undirected simple graph backed by sorted per-vertex neighbor tuples.

    Construct through :func:`build_graph`, which validates the edge list.
    """

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...]):
        self.n = n
        self.adj = adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range 0..{self.n - 1}")

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    def is_connected(self) -> bool:
        """Every vertex is reachable from vertex 0 (true for n <= 1)."""
        if self.n == 0:
            return True
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        while stack:
            for w in self.adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
        """Induced subgraph on the given vertices.

        Returns the new graph plus the id remap: element i of the remap is
        the original id of new vertex i.
        """
        keep = vertex_set(vertices)
        for v in keep:
            self.check_vertex(v)
        index = {orig: new for new, orig in enumerate(keep)}
        adj = tuple(
            tuple(index[w] for w in self.adj[orig] if w in index) for orig in keep
        )
        return Graph(len(keep), adj), keep

    def without(self, removed: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
        """Induced subgraph on the complement of `removed`, with id remap."""
        gone = set(removed)
        for v in gone:
            self.check_vertex(v)
        return self.induced_subgraph(v for v in range(self.n) if v not in gone)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph on vertices 0..n-1; duplicate edges collapse.

    Rejects self-loops and out-of-range endpoints, naming the offending edge.
    Neighbors gather in lists, not sets (about 216 bytes even for a leaf).
    """
    if n < 0:
        raise GraphError(f"vertex count must be >= 0, got {n}")
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        nbrs[u].append(v)
        nbrs[v].append(u)
    return Graph(n, tuple(tuple(sorted(set(ws))) if len(ws) > 1 else tuple(ws) for ws in nbrs))


class TreeCert:
    """A graph certified to be a tree, with its leaves and supports cached.

    A leaf is a degree-1 vertex; a support is a vertex adjacent to a leaf.
    Obtain instances through :func:`certify_tree` or :func:`as_tree`.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        leaf_children: dict[int, list[int]] = {}
        leaves = []
        for v, ws in enumerate(graph.adj):
            if len(ws) == 1:
                leaves.append(v)
                leaf_children.setdefault(ws[0], []).append(v)
        self.leaves = tuple(leaves)
        self.supports = tuple(sorted(leaf_children))
        self._leaf_children = {s: tuple(ls) for s, ls in leaf_children.items()}
        # per-tree caches of the kernels, built on first use: the prime-tree
        # leaf table and the definitional minimality scan's subtree list
        self._leaf_table = None
        self._prime_subtrees = None

    @property
    def n(self) -> int:
        return self.graph.n

    def is_leaf(self, v: int) -> bool:
        return self.graph.degree(v) == 1

    def support_of(self, leaf: int) -> int:
        """The unique neighbor of a leaf."""
        if not self.is_leaf(leaf):
            raise GraphError(f"vertex {leaf} is not a leaf")
        return self.graph.adj[leaf][0]

    def leaf_neighbors(self, v: int) -> tuple[int, ...]:
        """The leaves adjacent to v (empty when v is not a support)."""
        self.graph.check_vertex(v)
        return self._leaf_children.get(v, ())

    def __repr__(self) -> str:
        return f"TreeCert(n={self.n}, leaves={list(self.leaves)})"


def as_tree(graph: Graph) -> TreeCert | None:
    """The certificate of a tree (nonempty, exactly n-1 edges, connected),
    or None; the edge count rules out most non-trees before any traversal."""
    if graph.n >= 1 and graph.edge_count == graph.n - 1 and graph.is_connected():
        return TreeCert(graph)
    return None


def certify_tree(graph: Graph) -> TreeCert:
    """Certify that a graph is a tree (connected, exactly n-1 edges).

    Raises GraphError with the failing reason otherwise.
    """
    tree = as_tree(graph)
    if tree is not None:
        return tree
    if graph.n == 0:
        raise GraphError("not a tree: empty graph")
    if graph.edge_count != graph.n - 1:
        raise GraphError(
            f"not a tree: {graph.edge_count} edges on {graph.n} vertices"
        )
    raise GraphError("not a tree: graph is disconnected")


def _blocks(text: str, size: int = 1 << 16) -> Iterator[str]:
    """`text` cut into pieces of about `size` characters, each but the last
    ending just after a newline.  No line break spans a cut, so the pieces'
    `splitlines` together are the text's."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start + size) + 1 or end
        yield text[start:stop]
        start = stop


def read_edge_list(text: str) -> tuple[Graph, dict[str, str]]:
    """Parse the edge-list text format.

    The first non-comment line is the vertex count n, then one `u v` pair per
    line (0-based ids, whitespace-separated).  Lines starting with `#` are
    skipped; comments of the form `# key: value` are collected and returned
    as annotations.  A count above GUARD_CAP is refused before any per-vertex
    allocation when it exceeds the edge lines + 1 or some vertex id appears in
    no edge line (duplicate or clustered edges): the graph is disconnected and
    no scan may take it.  Lines are read a block at a time into one flat
    list of endpoints, so parsing holds two list slots per edge line (16
    bytes, plus the endpoint ints past the interpreter's small-int cache).
    """
    annotations: dict[str, str] = {}
    n: int | None = None
    ends: list[int] = []  # u, v of each edge line in turn
    put = ends.append
    lines = chain.from_iterable(map(str.splitlines, _blocks(text)))
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0][0] == "#":
            body = raw.strip()[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                if key.strip():
                    annotations[key.strip()] = value.strip()
            continue
        if n is None:
            if len(parts) != 1:
                raise GraphError(f"line {lineno}: expected vertex count, got {raw.strip()!r}")
            try:
                n = int(parts[0])
            except ValueError:
                raise GraphError(f"line {lineno}: vertex count must be an integer") from None
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: edge endpoints must be integers") from None
        put(u)
        put(v)
    if n is None:
        raise GraphError("missing vertex count line")
    count = len(ends) // 2
    if n > GUARD_CAP:
        if n > count + 1:
            raise GraphError(
                f"vertex count {n} is above the guard cap {GUARD_CAP} with only {count} "
                f"edge line(s): the graph is disconnected and too large to scan"
            )
        seen = bytearray(n)  # n bytes, at most the edge lines + 1
        for w in ends:
            if 0 <= w < n:
                seen[w] = 1
        missing = seen.count(0)
        if missing:
            raise GraphError(
                f"vertex count {n} is above the guard cap {GUARD_CAP} but {missing} vertex "
                f"id(s) appear in no edge line: the graph is disconnected and too large to scan"
            )
    it = iter(ends)
    return build_graph(n, zip(it, it)), annotations


def format_edge_list(graph: Graph, annotations: dict[str, str] | None = None) -> str:
    """Serialize a graph in the edge-list format, byte-stable.

    Annotations are emitted first as `# key: value` comments in the given
    order; edges follow in lexicographic order.  A key or value holding a
    line break is refused: its tail would be read back as a line of its own.
    """
    lines = []
    for key, value in (annotations or {}).items():
        for text in (key, value):
            if text.splitlines() not in ([], [text]):
                raise GraphError(f"annotation {key!r} cannot hold a line break: {text!r}")
        lines.append(f"# {key}: {value}")
    lines.append(str(graph.n))
    for u, v in graph.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
