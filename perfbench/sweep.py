"""Workload `sweep`: per-tree predicates over every small tree, many tiny calls.

Set-up enumerates every tree on 4..13 vertices once; each repetition
rebuilds fresh certified trees from their edge lists (so no cached distance
table carries over) and then, timed:

- primality by the tree criterion, paired with subset scan for n <= 10;
- sigma on every prime tree, with the uniqueness claims;
- the four-condition checker on sigma for n <= 13 and on every nonempty
  subset for n <= 11 (about 10^5 calls on the same trees);
- the three-condition checker against definitional minimality on every
  (tree, subset) for n <= 8, and `is_k_minimal` against the same scan;
- both counting predicates against their closed formulas;
- family classification against sigma's size and the path shape;
- seeded extraction samples checked by both minimality routes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from harness import Tracer, Verdicts, fresh_import
from inputs import digest

N_MIN, N_MAX = 4, 13
CONVERSE_MAX = 11
MINIMAL_MAX = 8
BRUTE_PRIME_MAX = 10
EXTRACTIONS = 60


@dataclass
class Context:
    pt: object
    refs: object
    edges: dict[int, list[list[tuple[int, int]]]]
    samples: list[tuple[int, int, tuple[int, ...]]]
    fixed_digest: str
    random_digest: str


def setup(seed: int, refs, t: Tracer) -> Context:
    (pt,) = fresh_import("primetrees")
    pt.enumeration.all_tree_codes.cache_clear()
    edges = {n: [tree.graph.edges() for tree in pt.all_trees(n)] for n in range(N_MIN, N_MAX + 1)}
    rng = random.Random(seed)
    pool = [
        (n, index)
        for n in range(5, 11)
        for index, tree_edges in enumerate(edges[n])
        if pt.tree_is_prime(pt.certify_tree(pt.build_graph(n, tree_edges)))
    ]
    samples = []
    for _ in range(EXTRACTIONS):
        n, index = rng.choice(pool)
        samples.append((n, index, tuple(sorted(rng.sample(range(n), rng.randint(1, n))))))
    return Context(pt, refs, edges, samples, digest(edges), digest(samples))


def prepare(ctx: Context) -> dict:
    pt = ctx.pt
    return {
        n: [pt.certify_tree(pt.build_graph(n, e)) for e in trees] for n, trees in ctx.edges.items()
    }


def job(ctx: Context, certs: dict, t: Tracer, v: Verdicts) -> dict:
    pt, refs = ctx.pt, ctx.refs
    for n, trees in certs.items():
        v.check(len(trees) == refs.tree_classes(n), f"n={n}: {len(trees)} input trees")

    primes: dict[int, list] = {}
    for n, trees in certs.items():
        primes[n] = []
        for tree in trees:
            with v.guard(f"primality n={n}"):
                fast = t.call("modules.tree_is_prime", pt.tree_is_prime, tree)
                if n <= BRUTE_PRIME_MAX:
                    slow = t.call("modules.is_prime_brute_force", pt.is_prime_brute_force, tree.graph)
                    v.check(fast == slow, f"n={n}: tree criterion {fast}, subset scan {slow}")
                if fast:
                    primes[n].append(tree)

    sigmas: dict[int, tuple[int, ...]] = {}
    for n, trees in primes.items():
        by_k: dict[int, list] = {}
        for tree in trees:
            with v.guard(f"sigma n={n}"):
                sigma = t.call("critical.noncritical_vertices", pt.noncritical_vertices, tree).vertices
                sigmas[id(tree)] = sigma
                by_k.setdefault(len(sigma), []).append(tree)
        claims = ((1, refs.unique_k1_member(n)), (n // 2, refs.unique_half_member(n)))
        for k, member in claims if n >= 5 else ():
            found = by_k.get(k, [])
            if member is None:
                v.check(not found, f"n={n}: {len(found)} trees with k={k}, expected none")
                continue
            with v.guard(f"uniqueness n={n} k={k}"):
                expected = pt.build_family(member[0], list(member[1])).cert
                ok = len(found) == 1 and t.call(
                    "enumeration.canonical_form", pt.canonical_form, found[0]
                ) == t.call("enumeration.canonical_form", pt.canonical_form, expected)
                v.check(ok, f"n={n}: k={k} trees are not exactly {member}")
        empty = len(by_k.get(0, []))
        v.check(empty == refs.empty_sigma_count(n), f"n={n}: {empty} prime trees with empty sigma")

    check_set = pt.check_noncritical_set
    for n in range(5, N_MAX + 1):
        for tree in primes[n]:
            sigma = sigmas.get(id(tree))
            if not sigma:
                continue
            with v.guard(f"characterization n={n}"):
                v.check(
                    t.call("critical.check_noncritical_set", check_set, tree, sigma).overall,
                    f"n={n}: sigma fails the conditions",
                )
                if n > CONVERSE_MAX:
                    continue
                calls, wrong = 0, []
                for size in range(1, n + 1):
                    for chosen in combinations(range(n), size):
                        calls += 1
                        passes = t.call("critical.check_noncritical_set", check_set, tree, chosen).overall
                        if passes != (chosen == sigma):
                            wrong.append(f"n={n} {tree.graph.edges()} X={chosen}: conditions {passes}")
                v.record(calls, wrong)

    for n in range(5, MINIMAL_MAX + 1):
        for tree in primes[n]:
            with v.guard(f"minimality n={n}"):
                calls, wrong, sizes = 0, [], set()
                for size in range(1, n + 1):
                    for chosen in combinations(range(n), size):
                        calls += 1
                        fast = t.call("minimal.check_minimal_set", pt.check_minimal_set, tree, chosen).overall
                        slow = t.call(
                            "minimal.is_minimal_brute_force", pt.is_minimal_brute_force, tree, chosen
                        )
                        if slow:
                            sizes.add(size)
                        if fast != slow:
                            wrong.append(f"n={n} {tree.graph.edges()} X={chosen}: checker {fast}, scan {slow}")
                v.record(calls, wrong)
                for k in range(1, n + 1):
                    got = t.call("minimal.is_k_minimal", pt.is_k_minimal, tree, k)
                    v.check(got == (k in sizes), f"n={n}: is_k_minimal(k={k}) {got}")

    for name, predicate, formula, n_lo in (
        ("counting.is_minus2_critical", pt.counting.is_minus2_critical, pt.count_minus2_critical_formula, 5),
        ("counting.is_3_minimal", pt.counting.is_3_minimal, pt.count_3minimal_formula, 4),
    ):
        for n in range(n_lo, N_MAX + 1):
            with v.guard(f"{name} n={n}"):
                count = sum(1 for tree in certs[n] if t.call(name, predicate, tree))
                v.check(count == formula(n), f"{name} n={n}: enumeration {count}, formula {formula(n)}")

    for n in range(5, N_MAX + 1):
        for tree in primes[n]:
            with v.guard(f"classification n={n}"):
                family = t.call("critical.classify_critical_family", pt.classify_critical_family, tree)
                k = len(sigmas[id(tree)])
                is_path = max(len(nbrs) for nbrs in tree.graph.adj) <= 2
                ok = (family.kind == "Path") == is_path
                ok = ok and refs.is_minus2_critical_kind(family.kind, family.params) == (k == 2)
                if family.kind == "Spider":
                    ok = ok and family.params == (k,)
                v.check(ok, f"n={n}: {family} with k={k}")

    for n, index, pinned in ctx.samples:
        tree = certs[n][index]
        with v.guard(f"extraction n={n} X={pinned}"):
            sub, idmap = t.call("minimal.extract_minimal_subtree", pt.extract_minimal_subtree, tree, pinned)
            back = {orig: new for new, orig in enumerate(idmap)}
            inner = tuple(sorted(back[x] for x in pinned if x in back))
            ok = len(inner) == len(pinned) and t.call("modules.tree_is_prime", pt.tree_is_prime, sub)
            if ok and sub.n > 4:
                ok = t.call("minimal.check_minimal_set", pt.check_minimal_set, sub, inner).overall
            ok = ok and t.call("minimal.is_minimal_brute_force", pt.is_minimal_brute_force, sub, inner)
            v.check(ok, f"extraction n={n} X={pinned}")
    return {}


def layers(ctx: Context, traced: list[tuple[Tracer, dict]]) -> dict[str, float]:
    return {}
