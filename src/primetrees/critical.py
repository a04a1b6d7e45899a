"""Critical and non-critical vertices of prime trees, and family classification.

A vertex x of a prime graph G is critical when G - x is decomposable.  For a
prime tree, deleting an internal vertex always disconnects (hence
decomposes), so only leaf deletions can stay prime.  Every support of a prime
tree has exactly one leaf, so a local rule on the support table decides each
leaf deletion in constant time.  A brute force over all single-vertex deletions
is kept as the oracle for general prime graphs and for cross-checking the
tree route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import canonical_form
from .families import path, pkt, pmn, spider
from .graph import Graph, GraphError, TreeCert, as_tree, vertex_set
from .modules import (
    BRUTE_FORCE_GUARD,
    ModuleWitness,
    is_prime_brute_force,
    tree_is_prime,
    tree_module_witness,
)


@dataclass(frozen=True)
class NoncriticalSet:
    """The non-critical vertices of a prime graph; k is their count."""

    vertices: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.vertices)


def noncritical_vertices(
    value: Graph | TreeCert, guard: int = BRUTE_FORCE_GUARD
) -> NoncriticalSet:
    """All x with G - x still prime.  Defined for prime graphs only.

    Trees bypass the subset-scan entirely: internal deletions disconnect,
    and each leaf deletion is decided by the leaf-deletion rule.
    """
    tree = value if isinstance(value, TreeCert) else as_tree(value)
    if tree is not None:
        if not tree_is_prime(tree):
            raise GraphError("non-critical vertices are defined for prime graphs only")
        return NoncriticalSet(
            tuple(x for x in tree.leaves if unique_module_of_leaf_deletion(tree, x) is None)
        )
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


@dataclass(frozen=True)
class Condition:
    """One numbered condition verdict; failing verdicts carry a witness."""

    index: int
    holds: bool
    witness: tuple[int, ...] | None = None
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    """Ordered condition verdicts; overall truth is their conjunction."""

    conditions: tuple[Condition, ...]

    @property
    def overall(self) -> bool:
        return all(c.holds for c in self.conditions)


def _leaf_distance_condition(tree: TreeCert) -> Condition:
    """Condition shared by both characterizations: leaf pairs at distance >= 3.

    Both characterizations need n >= 5, where two leaves closer than 3 are
    exactly two leaves sharing a support, so the witness is the smallest
    such pair.
    """
    witness = tree_module_witness(tree)
    if witness is not None:
        a, b = witness.members
        return Condition(1, False, witness.members, f"leaves {a} and {b} at distance 2")
    return Condition(1, True, None, "every two leaves at distance >= 3")


def _validated_set(tree: TreeCert, members) -> tuple[int, ...]:
    """The checked vertex set of a characterization, which needs n >= 5."""
    if tree.n < 5:
        raise GraphError("the characterization is stated for trees with >= 5 vertices")
    chosen = vertex_set(members)
    if not chosen:
        raise GraphError("vertex set must be nonempty")
    for v in chosen:
        tree.graph.check_vertex(v)
    return chosen


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
    other neighbor.
    """
    n = tree.n
    adj = tree.graph.adj
    chosen = _validated_set(tree, members)
    cset = set(chosen)
    leaves = set(tree.leaves)
    conds = [_leaf_distance_condition(tree)]

    non_leaf = sorted(cset - leaves)
    if non_leaf:
        conds.append(
            Condition(2, False, (non_leaf[0],), f"member {non_leaf[0]} is not a leaf")
        )
    elif len(cset) > n // 2:
        conds.append(
            Condition(2, False, chosen, f"set size {len(cset)} exceeds floor(n/2) = {n // 2}")
        )
    else:
        conds.append(Condition(2, True, None, "all members are leaves, size within floor(n/2)"))

    c3 = Condition(
        3, True, None,
        "each outside leaf has a degree-2 support and exactly one member at distance 3",
    )
    near = [0] * n  # near[w]: members adjacent to w
    for xi in chosen:
        for w in adj[xi]:
            near[w] += 1
    for x in sorted(leaves - cset):
        support = tree.support_of(x)
        support_degree = len(adj[support])
        hits = sum(near[w] for w in adj[support]) - support_degree * (support in cset)
        if support_degree != 2 or hits != 1:
            c3 = Condition(
                3, False, (x,),
                f"leaf {x}: support degree {support_degree}, {hits} member(s) at distance 3",
            )
            break
    conds.append(c3)

    c4 = Condition(
        4, True, None,
        "members with a degree-2 support keep every other leaf at distance >= 4",
    )
    for xi in chosen:
        if xi not in leaves:
            continue
        support = tree.support_of(xi)
        if len(adj[support]) != 2:
            continue
        close = tree.leaf_neighbors(_other_neighbor(tree, support, xi))
        if close:
            c4 = Condition(
                4, False, (xi, close[0]),
                f"member {xi} has a degree-2 support but leaf {close[0]} is at distance 3",
            )
            break
    conds.append(c4)
    return ConditionReport(tuple(conds))


def unique_module_of_leaf_deletion(tree: TreeCert, leaf: int) -> ModuleWitness | None:
    """The single nontrivial module left by deleting a leaf of a prime tree.

    Returns None when the deletion stays prime.  Only the support s of the
    deleted leaf can change role: it becomes a leaf exactly when deg(s) = 2,
    and then it shares its other neighbor w with w's own leaf exactly when w
    is a support.  So the remainder decomposes exactly when deg(s) = 2 and w
    is a support, and its one nontrivial module is {s, the leaf of w}.  On
    the 4-vertex path this holds for both leaves.
    """
    if not tree_is_prime(tree):
        raise GraphError("input must be a prime tree")
    support = tree.support_of(leaf)
    if tree.graph.degree(support) != 2:
        return None
    partner = tree.leaf_neighbors(_other_neighbor(tree, support, leaf))
    if not partner:
        return None
    return ModuleWitness(vertex_set((support, partner[0])))


# ---------------------------------------------------------------------------
# family classification


@dataclass(frozen=True)
class CriticalFamily:
    """Named-family tag with recovered parameters; kind 'Other' otherwise."""

    kind: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}({', '.join(map(str, self.params))})"


def classify_critical_family(tree: TreeCert) -> CriticalFamily:
    """Match a prime tree against the named families by canonical form.

    The one candidate member is read off the support table.  Call a support
    of degree >= 3 a hub and let pairs = leaves - 2: a tree with at most two
    leaves can only be the path (the 5-vertex spider included), one with no
    hub only the spider, and one with one or two hubs whose degrees less 2
    sum to pairs only Pkt or Pmn on a backbone of n - 2 pairs >= 4 vertices
    (each support has its own leaf).  Each member has exactly these hubs, and
    degrees are invariant, so canonical-code equality with it decides.
    """
    if not tree_is_prime(tree):
        raise GraphError("family classification is defined for prime trees only")
    n, adj = tree.n, tree.graph.adj
    pairs = len(tree.leaves) - 2
    excess = sorted(len(adj[s]) - 2 for s in tree.supports if len(adj[s]) >= 3)
    backbone = n - 2 * pairs
    if pairs <= 0:
        kind, build, params = "Path", path, (n,)
    elif not excess and n % 2 == 1:
        kind, build, params = "Spider", spider, ((n - 1) // 2,)
    elif excess == [pairs]:
        kind, build, params = "Pkt", pkt, (backbone, pairs)
    elif len(excess) == 2 and sum(excess) == pairs:
        kind, build, params = "Pmn", pmn, (backbone, *excess)
    else:
        return CriticalFamily("Other")
    if canonical_form(tree) != canonical_form(build(*params).cert):
        return CriticalFamily("Other")
    return CriticalFamily(kind, params)
