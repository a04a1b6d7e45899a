"""Constructors for the named tree families, with their original labelings.

Each constructor builds the tree from its defining edge set on the family's
own labels (1-based for the path-like families, 0-based for the spider,
named vertices for the three-legged star) and then renumbers to internal
0-based ids, keeping the label map so stated properties remain checkable
label by label.
"""

from __future__ import annotations

from collections import namedtuple

from .graph import GraphError, TreeCert, build_graph, certify_tree

# Largest member a constructor builds.  A member takes about 0.7 KB per
# vertex, so the cap keeps one near 700 MB; each constructor refuses a
# larger one from its parameters, before building anything.
FAMILY_NMAX = 10**6


class FamilyTree(namedtuple("FamilyTree", "cert tag params labels")):
    """A family member: certified tree (`cert`) plus its construction
    metadata: the family tag, its integer parameters and the map from each
    label to its vertex id."""

    __slots__ = ()

    @property
    def id_to_label(self) -> dict[int, str]:
        return {v: k for k, v in self.labels.items()}


def _check_size(tag: str, n: int) -> None:
    if n > FAMILY_NMAX:
        raise GraphError(
            f"family {tag} member on {n} vertices is above the size cap {FAMILY_NMAX}"
        )


def _from_labeled_edges(
    tag: str,
    params: tuple[int, ...],
    label_order: list[str],
    edges: list[tuple[str, str]],
) -> FamilyTree:
    labels = {lbl: i for i, lbl in enumerate(label_order)}
    graph = build_graph(len(label_order), [(labels[u], labels[v]) for u, v in edges])
    return FamilyTree(certify_tree(graph), tag, params, labels)


def path(n: int) -> FamilyTree:
    """The path on labels 1..n; prime exactly when n >= 4."""
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    _check_size("path", n)
    order = [str(i) for i in range(1, n + 1)]
    edges = [(str(i), str(i + 1)) for i in range(1, n)]
    return _from_labeled_edges("path", (n,), order, edges)


def spider(m: int) -> FamilyTree:
    """The spider on 2m+1 labels 0..2m: m legs of length 2 from center 0.

    Leg i is 0 - i - (i+m) for 1 <= i <= m; the leaves i+m are exactly the
    non-critical vertices.
    """
    if m < 2:
        raise GraphError(f"spider needs m >= 2 legs, got {m}")
    _check_size("A", 2 * m + 1)
    order = [str(i) for i in range(2 * m + 1)]
    edges = []
    for i in range(1, m + 1):
        edges.append(("0", str(i)))
        edges.append((str(i), str(i + m)))
    return _from_labeled_edges("A", (m,), order, edges)


def pkt(k: int, t: int) -> FamilyTree:
    """Path of k vertices with t pendant 2-paths at its second vertex.

    Labels 1..2t+k: the path sits on 2t+1..2t+k, pendant pairs are
    (2i-1, 2i) with 2i attached to the hub 2t+2.
    """
    if k < 4 or t < 1:
        raise GraphError(f"pkt needs k >= 4 and t >= 1, got k={k}, t={t}")
    n = 2 * t + k
    _check_size("Pkt", n)
    order = [str(i) for i in range(1, n + 1)]
    edges = [(str(2 * t + i), str(2 * t + i + 1)) for i in range(1, k)]
    for i in range(1, t + 1):
        edges.append((str(2 * i - 1), str(2 * i)))
        edges.append((str(2 * t + 2), str(2 * i)))
    return _from_labeled_edges("Pkt", (k, t), order, edges)


def pmn(m: int, n1: int, n2: int) -> FamilyTree:
    """Path of m vertices with pendant 2-paths at both inner end vertices.

    Labels 1..2(n1+n2)+m: the path sits on 2s+1..2s+m (s = n1+n2); pairs
    1..n1 hang off hub 2s+2, pairs n1+1..s hang off hub 2s+m-1.
    """
    if m < 4 or n1 < 1 or n2 < 1:
        raise GraphError(f"pmn needs m >= 4, n1 >= 1, n2 >= 1, got ({m}, {n1}, {n2})")
    s = n1 + n2
    n = 2 * s + m
    _check_size("Pmn", n)
    order = [str(i) for i in range(1, n + 1)]
    edges = [(str(2 * s + i), str(2 * s + i + 1)) for i in range(1, m)]
    for i in range(1, s + 1):
        edges.append((str(2 * i - 1), str(2 * i)))
    for i in range(1, n1 + 1):
        edges.append((str(2 * s + 2), str(2 * i)))
    for j in range(n1 + 1, s + 1):
        edges.append((str(2 * s + m - 1), str(2 * j)))
    return _from_labeled_edges("Pmn", (m, n1, n2), order, edges)


def skmn(k: int, m: int, n: int) -> FamilyTree:
    """Three paths of lengths k <= m <= n glued at a common endpoint r.

    Vertices are named r, a1..ak, b1..bm, c1..cn, indexed by distance from r.
    Unordered parameters are an error, not silently sorted.
    """
    if not 1 <= k <= m <= n:
        raise GraphError(f"skmn needs 1 <= k <= m <= n, got ({k}, {m}, {n})")
    _check_size("Skmn", 1 + k + m + n)
    order = ["r"]
    edges: list[tuple[str, str]] = []
    for prefix, length in (("a", k), ("b", m), ("c", n)):
        prev = "r"
        for i in range(1, length + 1):
            name = f"{prefix}{i}"
            order.append(name)
            edges.append((prev, name))
            prev = name
    return _from_labeled_edges("Skmn", (k, m, n), order, edges)


FAMILY_BUILDERS = {
    "path": (path, 1),
    "A": (spider, 1),
    "Pkt": (pkt, 2),
    "Pmn": (pmn, 3),
    "Skmn": (skmn, 3),
}


def build_family(tag: str, params: list[int]) -> FamilyTree:
    """Dispatch on the family tag; checks the parameter count."""
    if tag not in FAMILY_BUILDERS:
        raise GraphError(f"unknown family {tag!r}; choose from {sorted(FAMILY_BUILDERS)}")
    builder, arity = FAMILY_BUILDERS[tag]
    if len(params) != arity:
        raise GraphError(f"family {tag} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)
