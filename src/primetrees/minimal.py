"""Minimality of prime trees for a pinned vertex set.

A prime graph is minimal for a set X when no proper induced subgraph
containing X is prime.  On three or more vertices a disconnected graph has a
component of two or more vertices, or else any two vertices, as a module, so
only the subtrees of a tree can be its prime induced subgraphs.  The definitional test therefore
lists, once per tree, the prime proper subtrees; it is exponential and
guarded, and serves as the oracle for the three-condition checker, which
reads the support structure in linear time.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from heapq import heappop, heappush, heapreplace
from operator import xor as ixor

from .critical import (
    Condition,
    ConditionReport,
    CriticalFamily,
    _member_mark,
    _other_neighbor,
    _read_members,
    _report,
)
from .graph import MINIMALITY_GUARD, Graph, GraphError, TreeCert, _check_integer, certify_tree
from .modules import tree_is_prime

_C2_HOLDS = Condition(2, True, None, "every leaf or its support is in the set")
_C3_HOLDS = Condition(
    3, True, None,
    "support members without their pendant leaf have degree 2 and a member leaf at distance 2",
)


def _mask_members(mask: int) -> tuple[int, ...]:
    """The ids of a vertex mask, increasing."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


def _prime_proper_subtrees(tree: TreeCert) -> tuple[int, ...]:
    """The tree's prime proper subtree masks, listed on first use and cached
    on the tree.  Threads that race to list them build equal lists."""
    masks = tree._prime_subtrees
    if masks is None:
        masks = tree._prime_subtrees = _list_prime_proper_subtrees(tree.graph)
    return masks


def _list_prime_proper_subtrees(graph: Graph) -> tuple[int, ...]:
    """Vertex masks of the prime proper subtrees of a tree, by increasing
    size then lexicographic order.

    Each subtree is grown once, from its minimum vertex r: a set is extended
    by a vertex of its extension list, and the new vertex adds to that list
    only its neighbors above r that are not already next to the set, so no
    set is reached twice.  A set of at least 4 vertices is prime when its
    leaves and its supports are equal in number.  Only the adjacency is
    read, never the checkers' leaf table.
    """
    n = graph.n
    nbrs = [sum(1 << w for w in ws) for ws in graph.adj]
    full = (1 << n) - 1
    found = []
    for r in range(n):
        above = full ^ ((2 << r) - 1)
        stack = [(1 << r, nbrs[r] & above, nbrs[r] | 1 << r)]
        while stack:
            sub, ext, seen = stack.pop()
            if sub != full and sub.bit_count() >= 4:
                leaves = supports = 0
                rest = sub
                while rest:
                    low = rest & -rest
                    rest ^= low
                    inside = nbrs[low.bit_length() - 1] & sub
                    if not inside & (inside - 1):
                        leaves += 1
                        supports |= inside
                if leaves == supports.bit_count():
                    found.append(sub)
            while ext:
                low = ext & -ext
                ext ^= low
                w = nbrs[low.bit_length() - 1]
                stack.append((sub | low, ext | (w & above & ~seen), seen | w))
    found.sort(key=lambda mask: (mask.bit_count(), _mask_members(mask)))
    return tuple(found)


def prime_proper_subgraph_witness(
    tree: TreeCert, members, guard: int = MINIMALITY_GUARD
) -> tuple[int, ...] | None:
    """Smallest proper vertex set W >= X with T[W] prime, or None.

    None means T is minimal for X by definition.  Search order is increasing
    size, then lexicographic, so the witness is deterministic; it is the
    first of the tree's prime proper subtrees, in that order, to contain X.
    """
    if not tree_is_prime(tree):
        raise GraphError("minimality is defined for prime trees only")
    if tree.n > guard:
        raise GraphError(
            f"tree on {tree.n} vertices is too large for the definitional scan (guard {guard})"
        )
    want = sum(1 << v for v in _member_mark(tree, members)[0])
    for mask in _prime_proper_subtrees(tree):
        if mask & want == want:
            return _mask_members(mask)
    return None


def is_minimal_brute_force(tree: TreeCert, members, guard: int = MINIMALITY_GUARD) -> bool:
    """Definitional minimality: no proper induced prime subgraph contains X."""
    return prime_proper_subgraph_witness(tree, members, guard) is None


def check_minimal_set(tree: TreeCert, members) -> ConditionReport:
    """Verdicts of the three conditions equivalent to "this prime tree is
    minimal for this vertex set", for trees with at least 5 vertices.

    All conditions are evaluated even after a failure.  Condition 3 speaks
    about a support's unique pendant leaf; a support with several pendant
    leaves (condition 1 already failed then) is skipped.  A support member
    whose pendant leaf is outside needs degree 2 and a member among that
    leaf's partners, the leaves at distance 2 from the support; only leaves
    of degree-2 supports have partners.  The per-tree facts come from the
    tree's leaf table and the per-set facts from the set of `members` (any
    iterable) and its member mark, so a call costs O(|X| + leaves) steps,
    plus sorting the support members and zeroing the n-slot mark.
    """
    table, chosen, mark = _read_members(tree, members, marked=True)
    failures, partners, pendant = table.failures, table.partners, table.pendant

    c2 = _C2_HOLDS
    for x, support, _, _ in table.rows:
        if not (mark[x] or mark[support]):
            key = ("uncovered leaf", x)
            c2 = failures.get(key) or failures.setdefault(
                key,
                Condition(2, False, (x,), f"leaf {x} and its support {support} are both outside"),
            )
            break

    c3 = _C3_HOLDS
    for xi in sorted(chosen.intersection(pendant)):
        leaf = pendant[xi]
        if mark[leaf] or not chosen.isdisjoint(partners.get(leaf, ())):
            continue
        key = ("support member", xi)
        c3 = failures.get(key) or failures.setdefault(key, Condition(
            3, False, (xi,), f"support member {xi} (pendant leaf outside): degree "
            f"{len(table.adj[xi])}, no member leaf at distance 2"
        ))
        break
    return _report(((table.leaf_distance, c2, c3),))


class _SingleSteps:
    """The unpinned leaves that may be single extraction steps, on input
    ids; `pop` returns the smallest one whose deletion the partner rule
    allows, or None.

    Leaves are checked lazily, when they reach the top.  A leaf with a
    partner (its support s has degree 2 and s's other neighbor w has a
    leaf) is parked in w's group, and `wake(w)`, called when w loses that
    leaf, queues the whole group again as one entry keyed by its smallest
    member.  So a hub that gains and loses a leaf many times costs one entry
    each time, not one per leaf that waits on it.  Heap entries are key *
    stride + tag: tag 0 is the leaf `key`, tag w + 1 the group parked at w.
    `keys` holds the key of each group's queued entry, its smallest member;
    a group gains members only while w has a leaf, so an entry whose key
    is no longer there is stale and is dropped when popped.
    """

    __slots__ = ("heap", "stride", "groups", "keys")

    def __init__(self, leaves: list[int], stride: int):
        self.heap = [x * stride for x in leaves]  # increasing, so a heap
        self.stride = stride
        self.groups: dict[int, list[int]] = {}
        self.keys: dict[int, int] = {}

    def push(self, x: int) -> None:
        heappush(self.heap, x * self.stride)

    def wake(self, w: int) -> None:
        group = self.groups.get(w)
        if group and group[0] < self.keys.get(w, self.stride):
            self.keys[w] = group[0]
            heappush(self.heap, group[0] * self.stride + w + 1)

    def pop(self, deg: list[int], xor: list[int], pend: list[int]) -> int | None:
        heap, stride, groups, keys = self.heap, self.stride, self.groups, self.keys
        while heap:
            x, tag = divmod(heap[0], stride)
            if not tag:
                heappop(heap)
            elif keys.get(tag - 1) != x or pend[tag - 1] >= 0:
                # stale, or w has a leaf again and wake(w) queues the group
                if keys.get(tag - 1) == x:
                    del keys[tag - 1]
                heappop(heap)
                continue
            else:
                group = groups[tag - 1]
                x = heappop(group)  # the key itself
                if group:
                    keys[tag - 1] = group[0]
                    heapreplace(heap, group[0] * stride + tag)
                else:
                    del keys[tag - 1]
                    heappop(heap)
            s = xor[x]
            if deg[s] != 2 or pend[xor[s] ^ x] < 0:
                return x
            heappush(groups.setdefault(xor[s] ^ x, []), x)
        return None


def extract_minimal_subtree(tree: TreeCert, members) -> tuple[TreeCert, tuple[int, ...]]:
    """Greedily shrink a prime tree to a subtree minimal for the given set.

    Returns the subtree plus the id remap (new id -> id in the input tree).
    The result contains the set, is prime, and passes the minimality
    conditions (or is the 4-vertex path, which is minimal for everything).

    Each step deletes vertices outside the set and leaves a prime tree;
    deleting an internal vertex alone disconnects it.  Phase 1 deletes,
    while it can, the unpinned leaf with the smallest id that the partner
    rule of the leaf table allows: its support s has degree >= 3, or s's
    other neighbor w has no leaf.  That can stall before minimality (a
    pendant 2-path can be removable only as a whole), so phase 2 passes
    once over the ids in increasing order and, while the tree has at least
    6 vertices, deletes each unpinned leaf x that has an unpinned support s
    together with s.  A greedy that tried single steps again after every
    pair step takes the same steps, since a pair step never enables one:
    - when phase 1 stops, every unpinned leaf x has a partner, so deg(s) = 2
      and w has a leaf ℓ;
    - on at least 6 vertices ℓ is pinned, or ℓ would have a partner too and
      the tree would be x-s-w-ℓ; for the same reason deg(w) >= 3;
    - deleting {x, s} changes only deg(w), and w's one leaf is pinned, so
      the tree stays prime, no leaf gains a single step, no new leaf
      appears, and every other candidate keeps its partner.

    Degrees, the XOR of each vertex's live neighbors (a degree-2 vertex's
    other neighbor is one XOR away) and each support's leaf live on the
    input ids, and phase 1 keeps a heap of candidate leaves, checked when
    popped.  A single step at s changes roles only at s and, when s becomes
    a leaf, at its one neighbor, and the partner rule reads at most three
    edges from its leaf, so only the new leaf s and the leaves whose
    partner was s's leaf can become deletable, and only they are queued
    again (`_SingleSteps`).  The result is certified once, and its leaf
    table answers the closing self-check.
    """
    if not tree_is_prime(tree):
        raise GraphError("extraction needs a prime tree")
    n, adj = tree.n, tree.graph.adj
    _, pin = _member_mark(tree, members)
    deg = list(map(len, adj))
    xor = [reduce(ixor, nbrs, 0) for nbrs in adj]
    pend = [-1] * n
    for x in tree.leaves:
        pend[adj[x][0]] = x
    singles = _SingleSteps([x for x in tree.leaves if not pin[x]], n + 1)
    size = n
    while (x := singles.pop(deg, xor, pend)) is not None:
        s = xor[x]
        deg[x], size = 0, size - 1
        deg[s] -= 1
        xor[s] ^= x
        pend[s] = -1
        singles.wake(s)
        if deg[s] == 1:
            pend[xor[s]] = s
            if not pin[s]:
                singles.push(s)
    for x in range(n):  # only leaves and their supports are read from here
        if size < 6:
            break
        if deg[x] == 1 and not pin[x] and not pin[xor[x]]:
            deg[x] = deg[xor[x]] = 0  # w keeps degree >= 2, so it stays live
            size -= 2

    if size == n:
        cert, idmap = tree, tuple(range(n))
    else:
        sub, idmap = tree.graph.induced_subgraph([v for v in range(n) if deg[v]])
        cert = certify_tree(sub)
    if cert.n > 4:
        inner = [new for new, orig in enumerate(idmap) if pin[orig]]
        if not inner or not check_minimal_set(cert, inner).overall:
            raise RuntimeError("extraction stopped at a non-minimal subtree")
    return cert, idmap


def is_k_minimal(tree: TreeCert, k: int) -> bool:
    """Minimal for some k-element vertex set.

    The 4-vertex prime tree is minimal for every subset.  Above that, it is
    exactly leaves <= k <= n: condition 2 of `check_minimal_set` needs each
    leaf or its support in X, and those pairs are disjoint in a prime tree;
    conversely, an X holding every leaf passes condition 2 and makes
    condition 3 vacuous, and condition 1 holds in every prime tree.
    """
    _check_integer(k, "k")
    if k < 0:
        raise GraphError(f"k must be >= 0, got {k}")
    if not tree_is_prime(tree):
        return False
    if tree.n == 4:
        return k <= 4
    return len(tree.leaves) <= k <= tree.n


class MinimalForm(namedtuple("MinimalForm", "kind params", defaults=((),))):
    """Shape tag for a tree/3-set pair tested for minimality: a kind name
    and a tuple of integer parameters."""

    __slots__ = ()
    __str__ = CriticalFamily.__str__


def classify_three_minimal(tree: TreeCert, members) -> MinimalForm:
    """Classify a (tree, 3-set) pair into the known minimal shapes.

    Shapes: P4 (minimal for every triple); PK, a path with the set covering
    both leaves; SKMN, a three-leg star with the set equal to its leaves and
    middle leg >= 2; S12N, legs (1, 2, n) with the set {short leaf, middle of
    the 2-leg, tip of the n-leg}; S122, legs (1, 2, 2) with the set {short
    leaf, both 2-leg midpoints}.  Everything else is NotMinimal.
    """
    chosen, _ = _member_mark(tree, members)
    if len(chosen) != 3:
        raise GraphError(f"classification needs exactly 3 distinct vertices, got {len(chosen)}")
    if not tree_is_prime(tree):
        return MinimalForm("NotMinimal")
    if tree.n == 4:
        return MinimalForm("P4")
    if not check_minimal_set(tree, chosen).overall:
        return MinimalForm("NotMinimal")
    # a minimal set holds a leaf or its support per leaf, so at most 3 leaves
    adj = tree.graph.adj
    if len(tree.leaves) == 2:
        return MinimalForm("PK", (tree.n,))
    center = next(v for v in range(tree.n) if len(adj[v]) == 3)
    legs: list[list[int]] = []
    for first in adj[center]:
        leg, prev = [first], center
        while len(adj[leg[-1]]) == 2:
            leg.append(_other_neighbor(tree, leg[-1], prev))
            prev = leg[-2]
        legs.append(leg)
    legs.sort(key=len)
    if chosen == {leg[-1] for leg in legs}:
        return MinimalForm("SKMN", tuple(len(leg) for leg in legs))
    if len(legs[0]) == 1:
        short_leaf = legs[0][0]
        # legs[1] has length 2 when legs[2] has: the sort puts it between
        # legs[0] and legs[2], and a second 1-leg would be the short leaf's twin
        if len(legs[2]) == 2 and chosen == {short_leaf, legs[1][0], legs[2][0]}:
            return MinimalForm("S122")
        for mid_leg, long_leg in ((legs[1], legs[2]), (legs[2], legs[1])):
            if len(mid_leg) == 2 and chosen == {short_leaf, mid_leg[0], long_leg[-1]}:
                return MinimalForm("S12N", (len(long_leg),))
    raise RuntimeError("minimal triple does not match any known shape")
