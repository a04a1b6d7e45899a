"""Critical and non-critical vertices of prime trees, and family classification.

A vertex x of a prime graph G is critical when G - x is decomposable.  For a
prime tree, deleting an internal vertex always disconnects (hence
decomposes), so only leaf deletions can stay prime.  Every support of a prime
tree has exactly one leaf, so a local rule, derived once per tree in the leaf
table, decides each leaf deletion in constant time.  A brute force over all
single-vertex deletions is kept as the oracle for general prime graphs and
for cross-checking the tree route.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import compress
from operator import itemgetter

from .graph import BRUTE_FORCE_GUARD, Graph, GraphError, TreeCert, _check_integer, as_tree, vertex_set
from .modules import (
    ModuleWitness,
    is_prime_brute_force,
    tree_is_prime,
    tree_module_witness,
)


class NoncriticalSet(namedtuple("NoncriticalSet", "vertices")):
    """The non-critical vertices of a prime graph, a sorted tuple; k is
    their count."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.vertices)


def noncritical_vertices(
    value: Graph | TreeCert, guard: int = BRUTE_FORCE_GUARD
) -> NoncriticalSet:
    """All x with G - x still prime.  Defined for prime graphs only.

    Trees bypass the subset-scan entirely: internal deletions disconnect,
    and a leaf deletion stays prime exactly when the leaf has no partner in
    the tree's leaf table.
    """
    tree = value if isinstance(value, TreeCert) else as_tree(value)
    if tree is not None:
        if not tree_is_prime(tree):
            raise GraphError("non-critical vertices are defined for prime graphs only")
        partners = _leaf_table(tree).partners
        return NoncriticalSet(tuple(x for x in tree.leaves if x not in partners))
    return noncritical_vertices_brute_force(value, guard)


def noncritical_vertices_brute_force(
    graph: Graph, guard: int = BRUTE_FORCE_GUARD
) -> NoncriticalSet:
    """Oracle route: test every single-vertex deletion by subset scan."""
    if not is_prime_brute_force(graph, guard):
        raise GraphError("non-critical vertices are defined for prime graphs only")
    keep = []
    for x in range(graph.n):
        remainder, _ = graph.without({x})
        if is_prime_brute_force(remainder, guard):
            keep.append(x)
    return NoncriticalSet(vertex_set(keep))


# ---------------------------------------------------------------------------
# condition reports


class Condition(namedtuple("Condition", "index holds witness note", defaults=(None, ""))):
    """One numbered condition verdict; failing verdicts carry a witness
    (a tuple of vertex ids, else None) and every verdict a note."""

    __slots__ = ()


class ConditionReport(namedtuple("ConditionReport", "conditions")):
    """Ordered condition verdicts (a tuple of Condition); overall truth is
    their conjunction."""

    __slots__ = ()

    @property
    def overall(self) -> bool:
        return all(map(_holds, self.conditions))


_holds = itemgetter(1)
# builds a report from its one field without the namedtuple's Python-level
# __new__, on the checkers' per-call path
_report = partial(tuple.__new__, ConditionReport)

_C1_HOLDS = Condition(1, True, None, "every two leaves at distance >= 3")
_C2_HOLDS = Condition(2, True, None, "all members are leaves, size within floor(n/2)")
_C3_HOLDS = Condition(
    3, True, None,
    "each outside leaf has a degree-2 support and exactly one member at distance 3",
)
_C4_HOLDS = Condition(
    4, True, None,
    "members with a degree-2 support keep every other leaf at distance >= 4",
)


# vertex kinds in `_LeafTable.kind`, all nonzero; a support is never a leaf,
# so its slot of a member mark reads 1 exactly when it is a member
_INNER, _LEAF, _PARTNERED = 1, 2, 3


class _LeafTable:
    """Per-tree leaf facts, built once per tree on first use (`_leaf_table`).

    `partners` is the leaf-deletion rule: it maps each leaf x whose support s
    has degree 2 to the leaves of s's other neighbor w, when there are any
    (the leaves at distance 3).  In a prime tree only s can change role when
    x is deleted: s becomes a leaf exactly when deg(s) = 2, and then it
    shares w with w's own leaf exactly when w is a support.  So T - x is
    prime exactly when x has no partner, and otherwise its one nontrivial
    module is {s, x's partner}; on the 4-vertex path both leaves have one.
    σ, the module rule and both checkers read this map; extraction applies
    the same rule to degrees it keeps on the input ids.

    `leaf_distance` is condition 1 of both characterizations: every two
    leaves at distance >= 3.  Both need n >= 5, where two leaves closer than
    3 are exactly two leaves sharing a support, so its witness is the
    smallest such pair.  `n` and `adj` are the tree's own.  `rows` holds one
    tuple per leaf x, in id order: (x, its support s, s's neighbors, w), w
    being s's other neighbor when deg(s) = 2 and -1 otherwise.  `pendant`
    maps each support with exactly one leaf to that leaf.  `kind` is an
    n-slot bytearray that marks each vertex inner, leaf or partnered leaf;
    `check_noncritical_set` copies it into its membership slots.  `failures`
    interns the checkers' failing verdicts met so far, keyed by what their
    witness and note depend on, so a repeated failure costs a lookup; a call
    adds at most one per condition.
    """

    # slotted: one table per certified tree, built once; only `failures` grows
    __slots__ = ("n", "adj", "leaf_distance", "rows", "partners", "pendant", "kind", "failures")

    def __init__(self, tree: TreeCert):
        n, adj = self.n, self.adj = tree.graph.n, tree.graph.adj
        witness = tree_module_witness(tree)
        self.leaf_distance = _C1_HOLDS if witness is None else Condition(
            1, False, witness.members, "leaves {} and {} at distance 2".format(*witness.members)
        )
        own = {support: tree.leaf_neighbors(support) for support in tree.supports}
        rows = []
        self.partners: dict[int, tuple[int, ...]] = {}
        self.kind = bytearray((_INNER,)) * n
        for x in tree.leaves:
            support = adj[x][0]
            w = _other_neighbor(tree, support, x) if len(adj[support]) == 2 else -1
            rows.append((x, support, adj[support], w))
            if own.get(w):  # never for w = -1
                self.partners[x] = own[w]
            self.kind[x] = _PARTNERED if x in self.partners else _LEAF
        self.rows = tuple(rows)
        self.pendant = {support: leaves[0] for support, leaves in own.items() if len(leaves) == 1}
        self.failures: dict[tuple, Condition] = {}


def _leaf_table(tree: TreeCert) -> _LeafTable:
    """The tree's leaf table, built on first use and cached on the tree.

    Threads that race to build it build equal tables and one of them is
    kept, so the cache stays safe under concurrent reads.
    """
    table = tree._leaf_table
    if table is None:
        table = tree._leaf_table = _LeafTable(tree)
    return table


def _read_members(tree: TreeCert, members, marked: bool = False) -> tuple:
    """The tree's leaf table, the set of a characterization's members and,
    when `marked`, their `_member_mark`, else the members in the order read
    (to name a bad one), for n >= 5 and a nonempty set.  Errors come in the
    order n < 5, empty set, non-integer member, out-of-range id; without the
    mark the caller tests the ids."""
    if tree.graph.n < 5:
        raise GraphError("the characterization is stated for trees with >= 5 vertices")
    chosen, mark_or_read = _member_mark(tree, members) if marked else _member_set(tree, members)
    if not chosen:
        raise GraphError("vertex set must be nonempty")
    return tree._leaf_table or _leaf_table(tree), chosen, mark_or_read


def _member_set(tree: TreeCert, members) -> tuple[set, object]:
    """The set of `members`, which may be a one-shot iterator, and the
    members in the order read (a tuple for a one-shot iterator); a member that
    cannot be hashed, or a bool, is refused as a non-integer, naming the
    first non-integer in the order read, and one that is not iterable is
    refused as such.  True == 1 and False == 0, so only a set holding 0 or
    1 can hide a bool, and the members are then read again, before
    deduplication, where a bool could pass, or vanish, as an id."""
    try:
        once = iter(members) is members  # read once, kept to name a bad member
    except TypeError:
        raise GraphError(f"vertex set {members!r} is not iterable") from None
    members = tuple(members) if once else members
    try:
        chosen = set(members)
    except TypeError:
        _refuse_members(tree, members)
        raise
    if (0 in chosen or 1 in chosen) and bool in map(type, members):
        _refuse_members(tree, members)
    return chosen, members


def _member_mark(tree: TreeCert, members) -> tuple[set, bytearray]:
    """The set of `members` and an n-slot 0/1 bytearray marking them, each
    checked to be an id in 0..n-1; a non-integer fails to index the mark, so
    only the error path tests types.  `check_noncritical_set` keeps its own
    pass, which writes leaf kinds and counts neighbours in one loop; the
    mark first would cost its per-call path a second loop over the set."""
    (chosen, members), n = _member_set(tree, members), tree.graph.n
    mark = bytearray(n)
    try:
        for v in chosen:
            if not 0 <= v < n:
                _refuse_members(tree, members)
            mark[v] = 1
    except TypeError:
        _refuse_members(tree, members)
    return chosen, mark


def _refuse_members(tree: TreeCert, members) -> None:
    """Raise for the first member, in the order read, that is not an
    integer or is a bool, else for the smallest id outside 0..n-1."""
    for v in members:
        _check_integer(v, "vertex")
    tree.graph.check_vertex(min(v for v in members if not 0 <= v < tree.n))


def _other_neighbor(tree: TreeCert, v: int, known: int) -> int:
    """The neighbor of the degree-2 vertex v that is not `known`."""
    a, b = tree.graph.adj[v]
    return b if a == known else a


def check_noncritical_set(tree: TreeCert, members) -> ConditionReport:
    """Verdicts of the four conditions equivalent to "the non-critical
    vertices of this prime tree are exactly this set".

    All four conditions are evaluated even after one fails, so the report is
    usable as a diagnostic.  Needs at least 5 vertices and a nonempty set.
    Distances are read off the support structure: the members at distance 3
    from a leaf are those at distance 2 from its support, and a leaf whose
    support has degree 2 sees leaves below distance 4 only at the support's
    other neighbor w, whose count of member neighbors is all condition 3
    reads there.  The per-tree facts come from the tree's leaf table, and
    one pass over the set of `members` (any iterable) yields every per-set
    fact, so past two n-slot arrays a call costs O(|X| + sum of member
    degrees + leaves), however wide a support is.
    """
    table, chosen, read = _read_members(tree, members)
    n, adj, kind, failures = table.n, table.adj, table.kind, table.failures
    # mark[v] holds member v's kind (never 0) and 0 elsewhere, so
    # mark.find(_INNER) is the smallest member that is not a leaf and
    # mark.find(_PARTNERED) the smallest member with a partner; near[w]
    # counts the members adjacent to w; only the error path tests types
    mark, near, size = bytearray(n), [0] * n, len(chosen)
    try:
        for v in chosen:
            if not 0 <= v < n:
                _refuse_members(tree, read)
            mark[v] = kind[v]
            for w in adj[v]:
                near[w] += 1
    except TypeError:
        _refuse_members(tree, read)

    non_leaf = mark.find(_INNER)
    if non_leaf >= 0:
        key = ("non-leaf member", non_leaf)
        c2 = failures.get(key) or failures.setdefault(
            key, Condition(2, False, (non_leaf,), f"member {non_leaf} is not a leaf")
        )
    elif size > n // 2:
        c2 = Condition(
            2, False, tuple(compress(range(n), mark)),
            f"set size {size} exceeds floor(n/2) = {n // 2}",
        )
    else:
        c2 = _C2_HOLDS

    c3 = _C3_HOLDS
    for x, support, nbrs, w in table.rows:
        if mark[x]:
            continue
        if w >= 0:
            # near[x] counts only the support, so near[w] holds the rest
            hits = near[w] - mark[support]
            if hits == 1:
                continue
        else:
            hits = sum(map(near.__getitem__, nbrs)) - len(nbrs) * mark[support]
        key = ("outside leaf", x, hits)
        c3 = failures.get(key) or failures.setdefault(key, Condition(
            3, False, (x,), f"leaf {x}: support degree {len(nbrs)}, {hits} member(s) at distance 3"
        ))
        break

    close = mark.find(_PARTNERED)
    if close >= 0:
        y = table.partners[close][0]
        key = ("member with a close leaf", close)
        c4 = failures.get(key) or failures.setdefault(key, Condition(
            4, False, (close, y), f"member {close} has a degree-2 support but leaf {y} is at distance 3"
        ))
    else:
        c4 = _C4_HOLDS
    return _report(((table.leaf_distance, c2, c3, c4),))


def unique_module_of_leaf_deletion(tree: TreeCert, leaf: int) -> ModuleWitness | None:
    """The single nontrivial module left by deleting a leaf of a prime tree:
    {the leaf's support, the leaf's partner} (see `_LeafTable`), or None when
    the deletion stays prime.
    """
    if not tree_is_prime(tree):
        raise GraphError("input must be a prime tree")
    support = tree.support_of(leaf)
    partner = _leaf_table(tree).partners.get(leaf)
    return None if partner is None else ModuleWitness(vertex_set((support, partner[0])))


# ---------------------------------------------------------------------------
# family classification


class CriticalFamily(namedtuple("CriticalFamily", "kind params", defaults=((),))):
    """Named-family tag with recovered parameters (a tuple of integers);
    kind 'Other' otherwise."""

    __slots__ = ()

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}({', '.join(map(str, self.params))})"


def classify_critical_family(tree: TreeCert) -> CriticalFamily:
    """Match a prime tree against the named families by its leg lengths.

    Call a support of degree >= 3 a hub and let pairs = leaves - 2: a tree
    with at most two leaves is the path (the 5-vertex spider included), one
    with no hub can only be the spider, and one with one or two hubs whose
    degrees less 2 sum to pairs only Pkt or Pmn on a backbone of n - 2 pairs
    >= 4 vertices.  The degrees less 2 of the non-leaves sum to pairs, so in
    the last two cases every other non-leaf has degree 2 and the tree is its
    hubs joined by paths.  With no hub, every support has degree 2 and its
    own leaf, so the tree is the spider exactly when one more vertex joins
    the supports: n = 2 leaves + 1.  A hub h (with its one leaf) is a hub of
    the candidate exactly when at least deg(h) - 2 of its neighbors are
    degree-2 supports, pendant 2-paths: its last neighbor then leads along a
    path to the other hub or to a leaf.  So no third hub passes: three hubs
    would lie on one path (a branch vertex would be a hub with three links),
    and the middle one would need its leaf, deg(h) - 2 legs and two links,
    one more than its degree.  No canonical code is computed.
    """
    if not tree_is_prime(tree):
        raise GraphError("family classification is defined for prime trees only")
    n, adj = tree.n, tree.graph.adj
    pairs = len(tree.leaves) - 2
    if pairs <= 0:
        return CriticalFamily("Path", (n,))
    hubs = [s for s in tree.supports if len(adj[s]) >= 3]
    if not hubs:
        if n == 2 * len(tree.leaves) + 1:
            return CriticalFamily("Spider", ((n - 1) // 2,))
        return CriticalFamily("Other")
    excess = sorted(len(adj[h]) - 2 for h in hubs)
    if sum(excess) != pairs:
        return CriticalFamily("Other")
    for h in hubs:
        legs = sum(1 for w in adj[h] if len(adj[w]) == 2 and tree.leaf_neighbors(w))
        if legs < len(adj[h]) - 2:
            return CriticalFamily("Other")
    kind = "Pkt" if len(hubs) == 1 else "Pmn"
    return CriticalFamily(kind, (n - 2 * pairs, *excess))
