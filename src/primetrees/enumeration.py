"""Unlabeled tree enumeration, canonical codes, and the labeled-tree oracle.

Canonical codes make "nonisomorphic" countable: two trees get equal codes
exactly when they are isomorphic.  The encoder roots a tree at its centroid
(the vertex minimizing the largest component left by its removal) and writes
the classic 1...0 parenthesis string with children sorted by their encoded
byte strings; a bicentroidal tree takes the lexicographically smaller of its
two rooted encodings.

Unlabeled generation runs the level-sequence successor over all rooted trees
and de-duplicates by canonical code.  The independent oracle enumerates all
n^(n-2) labeled trees from their sequences and collapses them the same way.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import product
from typing import Iterator

from .graph import GraphError, TreeCert, build_graph, certify_tree

CLASS_GUARD = 18
LABELED_GUARD = 9


# ---------------------------------------------------------------------------
# canonical codes


def _tree_bfs(
    adj: list[tuple[int, ...]] | list[list[int]], root: int
) -> tuple[list[int], list[int]]:
    """BFS order and parent array of a tree; parent of the root is -1.

    Tree-specific: any neighbor other than the parent is undiscovered, so no
    visited array is needed.
    """
    n = len(adj)
    parent = [-1] * n
    order = [root]
    for u in order:
        pu = parent[u]
        for w in adj[u]:
            if w != pu:
                parent[w] = u
                order.append(w)
    return order, parent


def _centroids(adj: list[tuple[int, ...]] | list[list[int]]) -> list[int]:
    """The one or two centroids of a tree given as adjacency lists."""
    n = len(adj)
    order, parent = _tree_bfs(adj, 0)
    size = [1] * n
    heaviest = [0] * n
    for i in range(n - 1, 0, -1):
        u = order[i]
        p = parent[u]
        size[p] += size[u]
        if size[u] > heaviest[p]:
            heaviest[p] = size[u]
    best = n
    out: list[int] = []
    for v in range(n):
        weight = n - size[v]
        if heaviest[v] > weight:
            weight = heaviest[v]
        if weight < best:
            best = weight
            out = [v]
        elif weight == best:
            out.append(v)
    return out


def _rooted_code(adj: list[tuple[int, ...]] | list[list[int]], root: int) -> bytes:
    """AHU encoding of the tree rooted at `root`: 1 <sorted child codes> 0."""
    n = len(adj)
    order, parent = _tree_bfs(adj, root)
    codes: list[bytes] = [b""] * n
    for i in range(n - 1, -1, -1):
        u = order[i]
        pu = parent[u]
        kids = [codes[w] for w in adj[u] if w != pu]
        if kids:
            kids.sort()
            codes[u] = b"1" + b"".join(kids) + b"0"
        else:
            codes[u] = b"10"
    return codes[root]


def _canonical_from_adj(adj: list[tuple[int, ...]] | list[list[int]]) -> bytes:
    cents = _centroids(adj)
    code = _rooted_code(adj, cents[0])
    if len(cents) == 2:
        other = _rooted_code(adj, cents[1])
        if other < code:
            code = other
    return code


def canonical_form(tree: TreeCert) -> bytes:
    """Canonical code of a tree; equal codes <=> isomorphic trees."""
    return _canonical_from_adj(list(tree.graph.adj))


def decode_canonical(code: bytes) -> TreeCert:
    """Rebuild a tree from a canonical (or any well-formed 1/0) code."""
    edges: list[tuple[int, int]] = []
    stack: list[int] = []
    count = 0
    for ch in code:
        if ch == 0x31:  # '1'
            v = count
            count += 1
            if stack:
                edges.append((stack[-1], v))
            stack.append(v)
        elif ch == 0x30:  # '0'
            if not stack:
                raise GraphError("malformed tree code: unbalanced")
            stack.pop()
        else:
            raise GraphError(f"malformed tree code: byte {ch:#x}")
    if stack or count == 0:
        raise GraphError("malformed tree code: unbalanced")
    return certify_tree(build_graph(count, edges))


# ---------------------------------------------------------------------------
# rooted level sequences (successor generation) and unlabeled trees


def _rooted_level_sequences(n: int) -> Iterator[list[int]]:
    """All level sequences of rooted trees on n vertices, root at level 0.

    Starts from the path [0, 1, ..., n-1]; the successor truncates at the
    rightmost level >= 2 and tiles the tail from the matching earlier block.
    Each rooted tree on n vertices appears exactly once.
    """
    levels = list(range(n))
    while True:
        yield levels
        p = max((i for i in range(n) if levels[i] >= 2), default=-1)
        if p < 0:
            return
        q = max(i for i in range(p) if levels[i] == levels[p] - 1)
        d = p - q
        nxt = levels[:p]
        for i in range(p, n):
            nxt.append(nxt[i - d])
        levels = nxt


def _levels_to_adj(levels: list[int]) -> list[list[int]]:
    n = len(levels)
    adj: list[list[int]] = [[] for _ in range(n)]
    last_at_level = [0] * n
    for i in range(1, n):
        p = last_at_level[levels[i] - 1]
        adj[p].append(i)
        adj[i].append(p)
        last_at_level[levels[i]] = i
    return adj


@lru_cache(maxsize=None)
def all_tree_codes(n: int) -> tuple[bytes, ...]:
    """Canonical codes of all isomorphism classes of trees on n vertices, sorted."""
    if not 1 <= n <= CLASS_GUARD:
        raise GraphError(f"tree enumeration supports 1..{CLASS_GUARD} vertices, got {n}")
    seen: set[bytes] = set()
    for levels in _rooted_level_sequences(n):
        seen.add(_canonical_from_adj(_levels_to_adj(levels)))
    return tuple(sorted(seen))


def all_trees(n: int) -> Iterator[TreeCert]:
    """One representative per isomorphism class, in canonical-code order."""
    for code in all_tree_codes(n):
        yield decode_canonical(code)


# ---------------------------------------------------------------------------
# labeled trees (independent oracle)


def _prufer_adjacency(seq: tuple[int, ...], n: int) -> list[list[int]]:
    """Adjacency lists of the labeled tree on 0..n-1 with the given sequence.

    Unchecked: the sequence must have length n-2 >= 0 and entries in 0..n-1.
    """
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    adj: list[list[int]] = [[] for _ in range(n)]
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        adj[leaf].append(x)
        adj[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    adj[leaf].append(n - 1)
    adj[n - 1].append(leaf)
    return adj


def prufer_decode(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, in lexicographic order, of the labeled tree on
    0..n-1 with the given sequence (length n-2)."""
    if n < 2:
        raise GraphError("sequence decoding needs n >= 2")
    if len(seq) != n - 2:
        raise GraphError(f"sequence length must be n-2 = {n - 2}, got {len(seq)}")
    for x in seq:
        if not 0 <= x < n:
            raise GraphError(f"sequence entry {x} out of range")
    adj = _prufer_adjacency(seq, n)
    return sorted((u, v) for u in range(n) for v in adj[u] if u < v)


def _labeled_sweep_chunk(task: tuple[int, tuple[int, ...]]) -> frozenset[bytes]:
    """Canonical codes of all labeled trees whose sequence starts with `prefix`."""
    n, prefix = task
    codes: set[bytes] = set()
    for tail in product(range(n), repeat=(n - 2) - len(prefix)):
        codes.add(_canonical_from_adj(_prufer_adjacency(prefix + tail, n)))
    return frozenset(codes)


def labeled_tree_class_codes(n: int, jobs: int | None = None) -> frozenset[bytes]:
    """Canonical codes reached by the full labeled sweep (oracle for all_tree_codes).

    The sequence space splits by first entry into n tasks across at most n
    worker processes; the set union is independent of worker scheduling.
    """
    if not 1 <= n <= LABELED_GUARD:
        raise GraphError(f"labeled enumeration supports 1..{LABELED_GUARD} vertices, got {n}")
    if n == 1:
        return frozenset({b"10"})
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or n < 7:
        return _labeled_sweep_chunk((n, ()))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, n)) as pool:
        parts = pool.map(_labeled_sweep_chunk, [(n, (first,)) for first in range(n)])
        return frozenset().union(*parts)
