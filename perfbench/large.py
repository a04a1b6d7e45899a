"""Workload `large`: one huge input per call, for asymptotics and memory.

A x2 ladder of sizes (LADDER) for five shapes: the path, the spider with
two-edge legs, the single-hub (Pkt) and double-hub (Pmn) caterpillars, and
a seeded corona tree.  Set-up writes each as edge-list text under a seeded
random relabeling.  Each repetition, timed, parses and certifies every text
and runs sigma, the four-condition checker on sigma, the three-condition
checker on a cold copy of the tree (leaves plus seeded internal vertices,
for which every tree is minimal: a proper subtree keeping all leaves is
disconnected), family classification and the canonical code (which must
equal the code of the unrelabeled tree).  Extraction runs on paths
(EXTRACT_LADDER) pinned at the first and the middle vertex plus two seeded
vertices between them; the minimal subtree is exactly the path between the
two ends, and the greedy search deletes the far half one leaf at a time.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from dataclasses import dataclass
from statistics import median

from harness import Tracer, Verdicts, fresh_import
from inputs import corona, digest, edge_list_text, relabel
from metrics import EXTRACT_LADDER, LADDER, SHAPES

KERNELS = (
    "critical.noncritical_vertices",
    "critical.check_noncritical_set",
    "minimal.check_minimal_set",
)


def _family_params(shape: str, size: int) -> tuple[str, tuple[int, ...]]:
    if shape == "path":
        return "path", (size,)
    if shape == "spider":
        return "A", (size // 2,)
    if shape == "pkt":
        return "Pkt", (size // 2, size // 4)
    pairs = size // 6
    return "Pmn", (size - 4 * pairs, pairs, pairs)


@dataclass
class Item:
    shape: str
    size: int
    n: int
    text: str
    family: tuple[str, tuple[int, ...]] | None
    code: bytes
    extra_pins: frozenset[int]

    @property
    def tag(self) -> str:
        return f"{self.shape}{self.size}"


@dataclass
class Context:
    pt: object
    refs: object
    items: list[Item]
    extractions: list[tuple[int, tuple[int, ...]]]
    fixed_digest: str
    random_digest: str


def setup(seed: int, refs, t: Tracer) -> Context:
    (pt,) = fresh_import("primetrees")
    rng = random.Random(seed)
    items = []
    for size in LADDER:
        for shape in SHAPES:
            if shape == "corona":
                n, edges = corona(size // 2, rng)
                labels, family = None, None
                code = pt.canonical_form(pt.certify_tree(pt.build_graph(n, edges)))
            else:
                family = _family_params(shape, size)
                member = t.call("families.build", pt.build_family, family[0], list(family[1]))
                n, edges, labels = member.cert.n, member.cert.graph.edges(), member.labels
                code = pt.canonical_form(member.cert)
            moved, perm = relabel(n, edges, rng)
            if labels:
                labels = {name: perm[v] for name, v in labels.items()}
            degree = [0] * n
            for u, w in moved:
                degree[u] += 1
                degree[w] += 1
            inner = [v for v in range(n) if degree[v] > 1]
            pins = frozenset(rng.sample(inner, len(inner) // 8))
            items.append(Item(shape, size, n, edge_list_text(n, moved, labels), family, code, pins))
    extractions = []
    for n in EXTRACT_LADDER:
        high = n // 2
        extractions.append((n, tuple(sorted({0, high, *rng.sample(range(1, high), 2)}))))
    fixed = [(item.shape, item.size, item.n, item.family) for item in items]
    return Context(
        pt, refs, items, extractions,
        digest(fixed, EXTRACT_LADDER),
        digest([item.text for item in items], extractions),
    )


def prepare(ctx: Context) -> list:
    pt = ctx.pt
    return [
        pt.certify_tree(pt.build_graph(n, [(i, i + 1) for i in range(n - 1)])) for n, _ in ctx.extractions
    ]


def _label_map(annotations: dict[str, str]) -> dict[int, str]:
    pairs = (chunk.partition("=") for chunk in annotations.get("labels", "").split())
    return {int(v): name for name, _, v in pairs}


def _pipeline(ctx: Context, item: Item, t: Tracer, v: Verdicts) -> None:
    pt, tag = ctx.pt, item.tag
    graph, annotations = t.call("graph.read_edge_list", pt.read_edge_list, item.text)
    tree = t.call("graph.certify_tree", pt.certify_tree, graph)
    v.check(t.call("modules.tree_is_prime", pt.tree_is_prime, tree), f"{tag}: not prime")
    sigma = t.call("critical.noncritical_vertices", pt.noncritical_vertices, tree, tag=tag).vertices
    report = t.call("critical.check_noncritical_set", pt.check_noncritical_set, tree, sigma, tag=tag)
    v.check(report.overall, f"{tag}: sigma fails the four conditions")
    if item.family is None:
        v.check(bool(sigma) and set(sigma) <= set(tree.leaves), f"{tag}: sigma {sigma[:5]}...")
    else:
        back = _label_map(annotations)
        got = {back[x] for x in sigma}
        v.check(got == ctx.refs.family_sigma_labels(*item.family), f"{tag}: sigma labels {sorted(got)[:5]}")

    cold = t.call("graph.certify_tree", pt.certify_tree, pt.Graph(graph.n, graph.adj))
    pinned = sorted(item.extra_pins.union(cold.leaves))
    minimal = t.call("minimal.check_minimal_set", pt.check_minimal_set, cold, pinned, tag=tag)
    v.check(minimal.overall, f"{tag}: not minimal for a superset of its leaves")

    family = t.call("critical.classify_critical_family", pt.classify_critical_family, tree)
    if item.family is not None:
        v.check((family.kind, family.params) == ctx.refs.family_kind(*item.family), f"{tag}: {family}")
    code = t.call("enumeration.canonical_form", pt.canonical_form, tree)
    v.check(code == item.code, f"{tag}: canonical code changed under relabeling")


def job(ctx: Context, paths: list, t: Tracer, v: Verdicts) -> dict:
    for item in ctx.items:
        with v.guard(item.tag):
            _pipeline(ctx, item, t, v)
    for (n, pinned), tree in zip(ctx.extractions, paths):
        with v.guard(f"extraction path{n}"):
            sub, idmap = t.call(
                "minimal.extract_minimal_subtree", ctx.pt.extract_minimal_subtree, tree, pinned,
                tag=f"path{n}",
            )
            span = list(range(pinned[0], pinned[-1] + 1))
            v.check(sub.n == len(span) and sorted(idmap) == span, f"path{n}: extracted {sub.n} vertices")
    return {}


def _slope(t_lo: float, t_hi: float, n_lo: int, n_hi: int) -> float:
    return math.log(t_hi / t_lo) / math.log(n_hi / n_lo)


def _check_set_peak_mb(ctx: Context) -> float:
    pt = ctx.pt
    item = next(i for i in ctx.items if i.shape == "path" and i.size == LADDER[-1])
    tree = pt.certify_tree(pt.read_edge_list(item.text)[0])
    sigma = pt.noncritical_vertices(tree).vertices
    tracemalloc.start()
    try:
        pt.check_noncritical_set(tree, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def layers(ctx: Context, traced: list[tuple[Tracer, dict]]) -> dict[str, float]:
    sizes = {(item.shape, item.size): item.n for item in ctx.items}
    lo, hi = LADDER[-2], LADDER[-1]
    out = {}
    for kernel in KERNELS:
        for shape in SHAPES:
            out[f"{kernel}.{shape}.slope"] = median(
                _slope(
                    t.secs[f"{kernel}.{shape}{lo}"], t.secs[f"{kernel}.{shape}{hi}"],
                    sizes[shape, lo], sizes[shape, hi],
                )
                for t, _ in traced
            )
    name = "minimal.extract_minimal_subtree"
    lo, hi = EXTRACT_LADDER[-2], EXTRACT_LADDER[-1]
    out[f"{name}.slope"] = median(
        _slope(t.secs[f"{name}.path{lo}"], t.secs[f"{name}.path{hi}"], lo, hi) for t, _ in traced
    )
    out["critical.check_noncritical_set.peak_mb"] = _check_set_peak_mb(ctx)
    return out
