"""Unlabeled tree enumeration, canonical codes, and the labeled-tree oracle.

Canonical codes make "nonisomorphic" countable: two trees get equal codes
exactly when they are isomorphic.  The encoder roots a tree at its centroid
(the vertex minimizing the largest component left by its removal) and writes
the classic 1...0 parenthesis string with children sorted by their encoded
byte strings; a bicentroidal tree takes the lexicographically smaller of its
two rooted encodings.

Unlabeled generation is the free-tree generator of Wright, Richmond, Odlyzko
and McKay (SIAM J. Comput. 15(2), 1986): it walks centre-rooted level
sequences and yields exactly one per free tree, so each class is encoded
once.  The independent oracle decodes all n^(n-2) labeled trees from their
sequences, naming each subtree while decoding (its sorted tuple of child
names interned to a small int; Aho, Hopcroft and Ullman 1974).  It keys each
tree by its name rooted at n-1, re-roots at the centroid once per rooted
key, and encodes to bytes once per class.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import product
from typing import Iterator

from .graph import GraphError, TreeCert, build_graph, certify_tree

CLASS_GUARD = 18
LABELED_GUARD = 9
_Names = dict[tuple[int, ...], int]  # AHU names: sorted child-name tuple -> int


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


def _rooted_code(adj: list[tuple[int, ...]] | list[list[int]], root: int) -> bytes:
    """AHU encoding of the tree rooted at `root`: 1 <sorted child codes> 0.

    Each finished code waits in its parent's pending list, which is cleared
    once the parent is encoded, so the live codes belong to disjoint subtrees
    and take O(n) bytes; copying codes into their parents costs O(n · height).
    """
    order, parent = _tree_bfs(adj, root)
    kids: list[list[bytes]] = [[] for _ in order]
    for u in reversed(order):
        k = kids[u]
        if k:
            k.sort()
            code = b"".join((b"1", *k, b"0"))
            k.clear()
        else:
            code = b"10"
        p = parent[u]
        if p >= 0:
            kids[p].append(code)
    return code


def _canonical_from_adj(adj: list[tuple[int, ...]] | list[list[int]]) -> bytes:
    """The code rooted at the centroid, or the smaller of the two rooted codes
    of a bicentroidal tree.

    Centroid rule: in an order that lists every vertex after its children,
    the first vertex whose subtree holds at least half the tree is a
    centroid; when it holds exactly half, its parent is the other centroid.
    Here the order is the BFS order from vertex 0, reversed.
    """
    n = len(adj)
    order, parent = _tree_bfs(adj, 0)
    size = [1] * n
    for c in reversed(order):
        if 2 * size[c] >= n:
            break
        size[parent[c]] += size[c]
    code = _rooted_code(adj, c)
    if 2 * size[c] == n:
        other = _rooted_code(adj, parent[c])
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
# free trees as centre-rooted level sequences


def _free_level_sequences(n: int) -> Iterator[list[int]]:
    """One level sequence per free tree on n vertices, rooted at its centre.

    Wright, Richmond, Odlyzko and McKay (1986).  Rooted level sequences are
    walked in decreasing order from the path rooted at its centre.  A
    sequence is kept when the root's first subtree ("left") is no higher than
    the rest of the tree and, at equal heights, has no more vertices and is
    not lexicographically later; that roots every tree at its centre and a
    bicentral tree at one of its two centres only.  A rejected sequence's
    successor is taken at the end of its left subtree, skipping every
    sequence that keeps that subtree; when that subtree ended deeper than
    level 2, the tail is replaced by a path from the root that reaches as
    deep as the new left subtree, so the rest is higher than it.  The
    yielded list is reused; copy it to keep it.
    """
    if n <= 2:
        yield list(range(n))
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        try:
            m = levels.index(1, 2)  # where the root's second subtree starts
        except ValueError:
            m = n
        left = [x - 1 for x in levels[1:m]]
        rest = [0] + levels[m:]
        lh, rh = max(left), max(rest)
        if rh > lh or (rh == lh and (len(left), left) <= (len(rest), rest)):
            yield levels
            p = n - 1
            while levels[p] == 1:
                p -= 1
            if p == 0:
                return
            raise_tail = False
        else:
            p = m - 1
            raise_tail = levels[p] > 2
        # level-sequence successor at p: tile the tail from p's parent block
        q = p - 1
        while levels[q] != levels[p] - 1:
            q -= 1
        for i in range(p, n):
            levels[i] = levels[i - p + q]
        if raise_tail:
            # the tiled tail (levels >= 2) joined the left subtree
            h = max(levels)
            levels[n - h:] = range(1, h + 1)


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
    codes = (_canonical_from_adj(_levels_to_adj(lv)) for lv in _free_level_sequences(n))
    return tuple(sorted(codes))


def all_trees(n: int) -> Iterator[TreeCert]:
    """One representative per isomorphism class, in canonical-code order."""
    for code in all_tree_codes(n):
        yield decode_canonical(code)


# ---------------------------------------------------------------------------
# labeled trees (independent oracle)


def _prufer_parents(
    seq: tuple[int, ...], n: int, names: _Names
) -> tuple[list[int], list[int], int]:
    """Parent array, children-first order and name of the labeled tree on
    0..n-1 with the given sequence, rooted at n-1 (whose parent is -1).

    Each step removes the smallest leaf and joins it to the next entry (n-1
    after the last), its parent.  The leaf's subtree is then final, so its
    name, its sorted tuple of child names interned in `names`, joins its
    parent's list.  `order` lists the vertices as removed, then n-1.
    Unchecked: the sequence must have length n-2 >= 0 and entries in 0..n-1.
    """
    degree = [1] * n + [1]  # the slot past n-1 stops the last step's scan
    for x in seq:
        degree[x] += 1
    parent = [-1] * n
    order: list[int] = []
    kids: list[list[int]] = [[] for _ in range(n)]
    leaf = ptr = degree.index(1)
    for x in (*seq, n - 1):
        parent[leaf] = x
        order.append(leaf)
        k = kids[leaf]
        k.sort()
        kids[x].append(names.setdefault(tuple(k), len(names)))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = ptr = degree.index(1, ptr + 1)
    order.append(n - 1)
    return parent, order, names.setdefault(tuple(sorted(kids[n - 1])), len(names))


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
    parent, _, _ = _prufer_parents(seq, n, {(): 0})
    return sorted((min(v, p), max(v, p)) for v, p in enumerate(parent) if p >= 0)


def _centroid_key(parent: list[int], order: list[int], names: _Names) -> int | tuple[int, int]:
    """Name of the centroid-rooted tree, or the sorted pair of half-tree names
    of a bicentroidal one, so equal keys mean isomorphic trees.  The centroid
    is found by the rule in `_canonical_from_adj`; only the path from the
    (upper) centroid to the old root n-1 is renamed."""
    n = len(parent)
    kids: list[list[int]] = [[] for _ in range(n)]
    size = [1] * n
    name = [0] * n
    low = -1
    for v in order:
        k = kids[v]
        if k:
            k.sort()
            name[v] = names.setdefault(tuple(k), len(names))
        if low < 0 and 2 * size[v] >= n:
            low = v
        p = parent[v]
        if p >= 0:
            kids[p].append(name[v])
            size[p] += size[v]
    cent = low if 2 * size[low] > n else parent[low]
    # (vertex, old child dropped from its children) from cent up to n-1
    path = [(cent, low if cent != low else -1)]
    while path[-1][0] != n - 1:
        u = path[-1][0]
        path.append((parent[u], u))
    up = -1  # name of the part above the vertex being renamed
    for u, below in reversed(path):
        k = kids[u][:]
        if below >= 0:
            k.remove(name[below])
        if up >= 0:
            k.append(up)
        k.sort()
        up = names.setdefault(tuple(k), len(names))
    return up if cent == low else (min(up, name[low]), max(up, name[low]))


def _labeled_sweep_chunk(task: tuple[int, tuple[int, ...]]) -> frozenset[bytes]:
    """Canonical codes of all labeled trees whose sequence starts with `prefix`:
    the first tree of each rooted name is re-rooted at its centroid, and one
    representative per centroid key is encoded to bytes."""
    n, prefix = task
    names: _Names = {(): 0}
    rooted_seen: set[int] = set()
    reps: dict[int | tuple[int, int], list[int]] = {}
    for tail in product(range(n), repeat=(n - 2) - len(prefix)):
        parent, order, rooted = _prufer_parents(prefix + tail, n, names)
        if rooted not in rooted_seen:
            rooted_seen.add(rooted)
            reps.setdefault(_centroid_key(parent, order, names), parent)
    codes: set[bytes] = set()
    for parent in reps.values():
        adj: list[list[int]] = [[] for _ in range(n)]
        for v in range(n - 1):
            adj[v].append(parent[v])
            adj[parent[v]].append(v)
        codes.add(_canonical_from_adj(adj))
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
