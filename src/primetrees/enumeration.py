"""Unlabeled tree enumeration, canonical codes, and the labeled-tree oracle.

Canonical codes make "nonisomorphic" countable: two trees get equal codes
exactly when they are isomorphic.  The encoder roots a tree at its centroid
(the vertex minimizing the largest component left by its removal) and writes
the classic 1...0 parenthesis string with children sorted by their encoded
byte strings; a bicentroidal tree takes the lexicographically smaller of its
two rooted encodings.  It reads a parent array and a children-first order,
so a BFS or a Prüfer decoding feeds it without adjacency.

Unlabeled generation writes those codes without building a tree, by
Otter's centroid decomposition (Ann. Math. 49, 1948).  A rooted code of k
vertices is 1, the codes of a multiset of rooted trees of k-1 vertices in
all, then 0; drawing each multiset in order from a byte-sorted pool writes
its codes already sorted.  A tree with one centroid is that centroid with a
multiset of branches of under n/2 vertices each; a tree with two is an edge
joining two rooted halves of n/2 vertices, coded at the root that gives the
smaller code.  The independent oracle decodes labeled trees in which n-2
and n-1 are leaves, their Prüfer sequences over 0..n-3.  Relabeling 0..n-3
keeps a tree's class, so it takes one degree shape per partition of n-2 (the
labels in order of falling degree) and every labeling of that shape, the
arrangements of one sorted sequence: A005651(n-2) sequences in all, which
include a labeling of every tree.  Two parts do that work.  The namer walks
the sequences without building a tree, keeping degrees and name products: it
names each subtree as its leaf is removed (Aho, Hopcroft and Ullman 1974),
a prime interned by the product of its children's names, which by unique
factorisation fixes their multiset, so equal names mean isomorphic rooted
trees.  Sequences arranging one multiset share their steps up to their
first difference, in one depth-first walk.  The decoder, a plain loop and
the only code that builds a tree from a sequence, serves `prufer_decode`
and rebuilds the tree of each sequence whose name at n-1 is new, for the
one byte coder.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from typing import Iterator

from .graph import Graph, GraphError, TreeCert, _check_integer, certify_tree

CLASS_GUARD = 18
LABELED_GUARD = 12


# ---------------------------------------------------------------------------
# canonical codes


def _centroid(parent: list[int], order: list[int] | range) -> tuple[int, bool]:
    """The centroid rule, for a parent array (-1 at the root) and an order
    that lists every vertex after its children: the first vertex in that
    order whose subtree holds at least half the tree is a centroid, `low`.
    Returns it and whether it holds exactly half; then low's parent is the
    other centroid."""
    n = len(parent)
    size = [1] * n
    for low in order:
        if 2 * size[low] >= n:
            break
        size[parent[low]] += size[low]
    return low, 2 * size[low] == n


def _canonical_from_parents(parent: list[int], order: list[int] | range) -> bytes:
    """The code rooted at the centroid, or the smaller of the two rooted codes
    of a bicentroidal tree, from a parent array (-1 at the root) and an order
    that lists every vertex after its children.

    The subtrees off the path from the centroid `low` (`_centroid`) up to
    the root are encoded bottom-up, then the path top-down, each vertex with
    the part above it as one more child.  A finished code waits in its
    parent's pending list, cleared once the parent is encoded, so the live
    codes belong to disjoint subtrees and take O(n) bytes; copying codes
    into their parents costs O(n · height).
    """
    low, halves = _centroid(parent, order)
    path = [low]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    on_path = set(path)
    kids: list[list[bytes]] = [[] for _ in parent]
    for v in order:
        if v not in on_path:
            k = kids[v]
            if k:
                k.sort()
                code = b"".join((b"1", *k, b"0"))
                k.clear()
            else:
                code = b"10"
            kids[parent[v]].append(code)
    up: list[bytes] = []  # the code of the part above the vertex being encoded
    for u in reversed(path[1:]):
        k = kids[u]
        k += up
        k.sort()
        up = [b"".join((b"1", *k, b"0"))]
        if u != path[1]:
            k.clear()
    k = kids[low]
    code = b"".join((b"1", *sorted(k + up), b"0"))
    if halves:  # low's parent, the other centroid, takes low's half
        k.sort()
        above = kids[path[1]]
        above.append(b"".join((b"1", *k, b"0")))
        above.sort()
        code = min(code, b"".join((b"1", *above, b"0")))
    return code


def canonical_form(tree: TreeCert) -> bytes:
    """Canonical code of a tree; equal codes <=> isomorphic trees."""
    adj = tree.graph.adj
    parent = [-1] * len(adj)
    order = [0]
    for u in order:  # BFS: in a tree, every neighbour but the parent is new
        pu = parent[u]
        for w in adj[u]:
            if w != pu:
                parent[w] = u
                order.append(w)
    return _canonical_from_parents(parent, order[::-1])


def decode_canonical(code: bytes) -> TreeCert:
    """Rebuild a tree from a canonical (or any well-formed 1/0) code.  Ids
    follow preorder, so each list (parent, then children in turn) is sorted."""
    adj: list[list[int]] = []
    stack: list[int] = []
    for ch in code:
        if ch == 0x31:  # '1'
            v = len(adj)
            if stack:
                adj[stack[-1]].append(v)
            adj.append(stack[-1:])  # [parent], or [] at a root
            stack.append(v)
        elif ch == 0x30:  # '0'
            if not stack:
                raise GraphError("malformed tree code: unbalanced")
            stack.pop()
        else:
            raise GraphError(f"malformed tree code: byte {ch:#x}")
    if stack or not adj:
        raise GraphError("malformed tree code: unbalanced")
    return certify_tree(Graph(len(adj), tuple(map(tuple, adj))))


# ---------------------------------------------------------------------------
# free trees from their centroids


def _multisets(pool: list[bytes], total: int) -> list[tuple[bytes, ...]]:
    """Every multiset of codes from `pool` whose sizes (half their lengths)
    sum to `total`, as a tuple in pool order.  An unbounded knapsack from the
    pool's end: each code goes in front of the multisets of the codes after
    it, as often as it fits, so a byte-sorted pool gives sorted tuples."""
    table: list[list[tuple[bytes, ...]]] = [[()]] + [[] for _ in range(total)]
    for code in reversed(pool):
        size = len(code) // 2
        for r in range(size, total + 1):
            table[r] += [(code, *rest) for rest in table[r - size]]
    return table[total]


@lru_cache(maxsize=None, typed=True)  # typed: 5.0 is refused, not served as 5
def all_tree_codes(n: int) -> tuple[bytes, ...]:
    """Canonical codes of all isomorphism classes of trees on n vertices, sorted."""
    _check_integer(n, "vertex count")
    if not 1 <= n <= CLASS_GUARD:
        raise GraphError(f"tree enumeration supports 1..{CLASS_GUARD} vertices, got {n}")
    kids: dict[bytes, tuple[bytes, ...]] = {b"10": ()}  # rooted code: its children
    for k in range(2, n // 2 + 1):  # rooted codes of k vertices, from the smaller ones
        for parts in _multisets(sorted(kids), k - 1):
            kids[b"".join((b"1", *parts, b"0"))] = parts
    pool = sorted(kids)
    # one centroid, the root: every branch holds under half the tree
    codes = [
        b"".join((b"1", *parts, b"0"))
        for parts in _multisets([c for c in pool if len(c) < n], n - 1)
    ]
    # two centroids (n even): an edge joins halves a and b; root at either
    halves = [c for c in pool if len(c) == n]
    for i, a in enumerate(halves):
        for b in halves[i:]:
            at_a = b"".join((b"1", *sorted((*kids[a], b)), b"0"))
            at_b = b"".join((b"1", *sorted((*kids[b], a)), b"0"))
            codes.append(min(at_a, at_b))
    return tuple(sorted(codes))


def all_trees(n: int) -> Iterator[TreeCert]:
    """One representative per isomorphism class, in canonical-code order."""
    for code in all_tree_codes(n):
        yield decode_canonical(code)


# ---------------------------------------------------------------------------
# labeled trees (independent oracle)


def _decode(seq, n: int) -> tuple[list[int], list[int]]:
    """The labeled tree on 0..n-1 with Prüfer sequence `seq`: its parent
    array, rooted at n-1 (parent -1), and its vertices in the order they
    are removed, then n-1, which lists every vertex after its children.
    Each step joins the smallest leaf to the next entry; the last leaf
    joins n-1.  Unchecked: n >= 2, n-2 entries in 0..n-1."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    parent, order = [-1] * n, []
    leaf = ptr = degree.index(1)
    for x in seq:
        parent[leaf] = x
        order.append(leaf)
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = ptr = degree.index(1, ptr + 1)
    parent[leaf] = n - 1
    order += (leaf, n - 1)
    return parent, order


def _new_root_names(n: int, tail, names: dict, primes: Iterator[int], seen: set) -> list:
    """The first sequence of each rooted name at n-1 not in `seen` among the
    arrangements of the sorted `tail`, in depth-first order; each new name
    is added to `seen`.  Each step removes the smallest leaf, names its
    subtree names[the product of its children's names], a new product
    taking the next prime of `primes`, and multiplies that name into the
    next entry's product.  The arrangements share their steps up to their
    first difference: the walk branches over the next entry, drawn from the
    labels its caller still had to place, and undoes each step on return,
    keeping degrees and products, no tree.  The last entry is finished
    inline.  Unchecked: n >= 3, n-2 entries in 0..n-1."""
    last, get = n - 1, names.get
    degree = [tail.count(v) + 1 for v in range(n)]
    prod, seq, found = [1] * n, list(tail), []

    def intern(p: int) -> int:
        names[p] = q = next(primes)
        return q

    def branch(k: int, leaf: int, ptr: int, labels: list) -> None:  # seq[-k:] left, from labels
        q = get(prod[leaf]) or intern(prod[leaf])
        if k == 1:  # the last entry, x
            for x in labels:
                if degree[x] > 1:
                    break
            if x != last:  # the leaf joins x, then x joins n-1
                root = prod[last] * (get(prod[x] * q) or intern(prod[x] * q))
            else:  # the leaf joins n-1, then so does the leaf past ptr
                w = prod[degree.index(1, ptr + 1)]
                root = prod[last] * q * (get(w) or intern(w))
            if root not in seen:
                seen.add(root)
                found.append((*seq[:-1], x))
            return
        nxt = degree.index(1, ptr + 1)  # the smallest leaf past ptr
        rest = [x for x in labels if degree[x] > 1]
        for x in rest:
            d, p, seq[-k] = degree[x], prod[x], x
            degree[x], prod[x] = d - 1, p * q
            leaf2 = ptr2 = nxt if d > 2 or x > nxt else x  # x, if now a leaf below nxt
            if leaf2 < ptr:
                ptr2 = ptr
            branch(k - 1, leaf2, ptr2, rest)
            degree[x], prod[x] = d, p

    leaf = degree.index(1)
    branch(n - 2, leaf, leaf, sorted(set(tail)))
    return found


def prufer_decode(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, in lexicographic order, of the labeled tree on
    0..n-1 with the given sequence (length n-2)."""
    _check_integer(n, "vertex count")
    if n < 2:
        raise GraphError("sequence decoding needs n >= 2")
    try:
        length = len(seq)
    except TypeError:
        raise GraphError(f"sequence must have a length, got a {type(seq).__name__}") from None
    if length != n - 2:
        raise GraphError(f"sequence length must be n-2 = {n - 2}, got {length}")
    for x in seq:
        _check_integer(x, "sequence entry")
        if not 0 <= x < n:
            raise GraphError(f"sequence entry {x} out of range")
    parent, _ = _decode(seq, n)
    return sorted((min(v, p), max(v, p)) for v, p in enumerate(parent) if p >= 0)


def _primes() -> Iterator[int]:
    """The primes in increasing order, by trial division of each odd number
    by the primes before it, up to its square root."""
    yield 2
    found = [2]
    for p in count(3, 2):
        for q in found:
            if p % q == 0:
                break
            if q * q > p:
                found.append(p)
                yield p
                break


def _degree_shapes(k: int, most: int | None = None, label: int = 0) -> Iterator[tuple[int, ...]]:
    """One sorted Prüfer tail of length k per partition of k: label `label`
    m_0 times, label + 1 m_1 times, ..., with most >= m_0 >= m_1 >= ... > 0."""
    if k == 0:
        yield ()
    for m in range(min(k, most or k), 0, -1):
        for rest in _degree_shapes(k - m, m, label + 1):
            yield (label,) * m + rest


def labeled_tree_class_codes(n: int, jobs: int | None = None) -> frozenset[bytes]:
    """Canonical codes reached by the labeled sweep (oracle for all_tree_codes).

    A vertex appears deg - 1 times in a Prüfer sequence, so the sequences
    over 0..n-3 are the labeled trees in which n-2 and n-1 are leaves: a
    labeling of every tree with n >= 3.  Relabeling 0..n-3 keeps the class
    and those two leaves, so each class also has such a labeling in which
    label i appears m_i times with m_0 >= m_1 >= ...: the walk takes one
    sorted tail per partition of n-2 (`_degree_shapes`) and every
    arrangement of it, the labeled trees of that degree sequence.  The
    namer gives the first sequence of each new name rooted at n-1, and
    only that tree is decoded and encoded.  `jobs` is accepted and
    ignored: the sweep runs in this process.
    """
    _check_integer(n, "vertex count")
    if not 1 <= n <= LABELED_GUARD:
        raise GraphError(f"labeled enumeration supports 1..{LABELED_GUARD} vertices, got {n}")
    if n <= 2:  # the star rooted at n-1 is the only tree
        return frozenset({_canonical_from_parents([n - 1] * (n - 1) + [-1], range(n))})
    names, primes, seen, codes = {}, _primes(), set(), set()
    for tail in _degree_shapes(n - 2):
        for seq in _new_root_names(n, tail, names, primes, seen):
            codes.add(_canonical_from_parents(*_decode(seq, n)))
    return frozenset(codes)
