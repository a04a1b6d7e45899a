"""Invariant sweeps shared by the CLI `selftest` and the acceptance tests,
and PLAN, the one table of the ranges they run over.

Each sweep returns a list of human-readable exceptions; an empty list means
the invariant held everywhere in the swept range.  The sweeps deliberately
pit independent routes against each other: tree criterion vs subset scan,
condition checkers vs definitional brute force, closed formulas vs
exhaustive enumeration, successor generation vs labeled-sequence collapse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .counting import (
    count_table,
    partitions_three_parts,
    partitions_two_parts,
)
from .critical import (
    check_noncritical_set,
    noncritical_vertices,
    unique_module_of_leaf_deletion,
)
from .enumeration import (
    all_tree_codes,
    all_trees,
    canonical_form,
    labeled_tree_class_codes,
)
from .families import path, pkt, pmn, spider
from .graph import vertex_set
from .minimal import (
    check_minimal_set,
    extract_minimal_subtree,
    is_minimal_brute_force,
)
from .modules import is_prime_brute_force, iter_nontrivial_modules, tree_is_prime


def _prime_trees(n: int):
    for tree in all_trees(n):
        if tree_is_prime(tree):
            yield tree


# ---------------------------------------------------------------------------
# oracle sweeps


def primality_oracle_exceptions(n_max: int) -> list[str]:
    """Tree criterion vs subset-scan brute force, every tree up to n_max."""
    bad = []
    for n in range(1, n_max + 1):
        for tree in all_trees(n):
            fast = tree_is_prime(tree)
            slow = is_prime_brute_force(tree.graph)
            if fast != slow:
                bad.append(f"n={n} {tree.graph.edges()}: criterion {fast}, brute {slow}")
    return bad


def class_count_oracle_exceptions(n_max: int) -> list[str]:
    """Successor generation vs de-duplicated labeled-sequence sweep."""
    bad = []
    for n in range(1, n_max + 1):
        mine = frozenset(all_tree_codes(n))
        oracle = labeled_tree_class_codes(n)
        if mine != oracle:
            bad.append(
                f"n={n}: generator {len(mine)} classes, labeled sweep {len(oracle)}"
            )
    return bad


def partition_oracle_exceptions(k_max: int) -> list[str]:
    """Closed-form partition counts vs direct enumeration, plus the
    floor-sum identity used to collapse the two-part sums."""
    bad = []
    for k in range(k_max + 1):
        two = sum(1 for a in range(1, k + 1) if a <= k - a)
        three = sum(
            1
            for a in range(1, k + 1)
            for b in range(a, k + 1)
            if b <= k - a - b
        )
        if partitions_two_parts(k) != two:
            bad.append(f"two parts, k={k}: formula {partitions_two_parts(k)}, direct {two}")
        if partitions_three_parts(k) != three:
            bad.append(
                f"three parts, k={k}: formula {partitions_three_parts(k)}, direct {three}"
            )
    for p in range(2, 101):
        total = sum(i // 2 for i in range(p - 1))
        half = p // 2
        expected = (half - 1) ** 2 if p % 2 == 0 else (half - 1) * half
        if total != expected:
            bad.append(f"floor-sum identity fails at p={p}: {total} != {expected}")
    return bad


# ---------------------------------------------------------------------------
# characterization sweeps


def critical_equivalence_exceptions(n_lo: int, n_hi: int) -> list[str]:
    """Both directions of the non-critical-set characterization.

    Forward: the computed set passes all four conditions.  Converse: every
    nonempty vertex subset passing all four conditions is the computed set.
    """
    bad = []
    for n in range(n_lo, n_hi + 1):
        for tree in _prime_trees(n):
            sigma = noncritical_vertices(tree).vertices
            if not sigma:
                bad.append(f"n={n} {tree.graph.edges()}: prime tree with empty set")
                continue
            if not check_noncritical_set(tree, sigma).overall:
                bad.append(f"n={n} {tree.graph.edges()}: computed set fails conditions")
            for size in range(1, n + 1):
                for chosen in combinations(range(n), size):
                    passes = check_noncritical_set(tree, chosen).overall
                    if passes != (chosen == sigma):
                        bad.append(
                            f"n={n} {tree.graph.edges()} X={chosen}: "
                            f"conditions {passes}, equality {chosen == sigma}"
                        )
    return bad


def minimal_equivalence_exceptions(n_lo: int, n_hi: int) -> list[str]:
    """Condition checker vs definitional brute force over every (tree, X)."""
    bad = []
    for n in range(n_lo, n_hi + 1):
        for tree in _prime_trees(n):
            for size in range(1, n + 1):
                for chosen in combinations(range(n), size):
                    checker = check_minimal_set(tree, chosen).overall
                    brute = is_minimal_brute_force(tree, chosen)
                    if checker != brute:
                        bad.append(
                            f"n={n} {tree.graph.edges()} X={chosen}: "
                            f"conditions {checker}, brute force {brute}"
                        )
    return bad


def unique_module_exceptions(n_max: int) -> list[str]:
    """Deleting a leaf of a prime tree leaves at most one nontrivial module,
    of the form {leaf, deleted leaf's support}; checked against full subset
    enumeration of the remainder."""
    bad = []
    for n in range(4, n_max + 1):
        for tree in _prime_trees(n):
            for leaf in tree.leaves:
                remainder, idmap = tree.graph.without({leaf})
                found = [
                    vertex_set(idmap[v] for v in members)
                    for members in iter_nontrivial_modules(remainder)
                ]
                reported = unique_module_of_leaf_deletion(tree, leaf)
                if reported is None:
                    if found:
                        bad.append(
                            f"n={n} {tree.graph.edges()} leaf {leaf}: "
                            f"reported prime but modules {found}"
                        )
                    continue
                if len(found) != 1:
                    bad.append(
                        f"n={n} {tree.graph.edges()} leaf {leaf}: {len(found)} modules"
                    )
                    continue
                support = tree.support_of(leaf)
                members = found[0]
                others = [v for v in members if v != support]
                if (
                    members != reported.members
                    or len(members) != 2
                    or support not in members
                    or not tree.is_leaf(others[0])
                ):
                    bad.append(
                        f"n={n} {tree.graph.edges()} leaf {leaf}: module {members} "
                        f"is not a (leaf, support) pair matching {reported.members}"
                    )
    return bad


def uniqueness_exceptions(n_max: int) -> list[str]:
    """Counted uniqueness claims for k = 1, k = floor(n/2), and k = 0.

    Each n's prime trees are decoded and their k computed once, for all
    three claims.
    """
    bad = []
    for n in range(4, n_max + 1):
        trees = [(t, noncritical_vertices(t).k) for t in _prime_trees(n)]
        if n >= 5:
            one_critical = [t for t, k in trees if k == 1]
            if n % 2 == 0:
                expected = pkt(4, (n - 4) // 2).cert
                if len(one_critical) != 1:
                    bad.append(f"n={n}: {len(one_critical)} trees with k=1, expected 1")
                elif canonical_form(one_critical[0]) != canonical_form(expected):
                    bad.append(f"n={n}: the k=1 tree is not the single-hub member")
            elif one_critical:
                bad.append(f"n={n}: {len(one_critical)} trees with k=1, expected 0")

            half_critical = [t for t, k in trees if k == n // 2]
            if n % 2 == 1:
                expected = spider((n - 1) // 2).cert
                if len(half_critical) != 1:
                    bad.append(
                        f"n={n}: {len(half_critical)} trees with k=floor(n/2), expected 1"
                    )
                elif canonical_form(half_critical[0]) != canonical_form(expected):
                    bad.append(f"n={n}: the k=floor(n/2) tree is not the spider")
            elif half_critical:
                bad.append(
                    f"n={n}: {len(half_critical)} trees with k=floor(n/2), expected 0"
                )
        if n <= 12:
            zero = sum(1 for _, k in trees if k == 0)
            expected_count = 1 if n == 4 else 0
            if zero != expected_count:
                bad.append(f"n={n}: {zero} prime trees with empty set, expected {expected_count}")
    return bad


def family_sigma_exceptions() -> list[str]:
    """Family constructors against their stated non-critical sets, and
    pairwise distinctness of same-size members."""
    bad = []

    def sigma_labels(family) -> set[str]:
        back = family.id_to_label
        return {back[v] for v in noncritical_vertices(family.cert).vertices}

    for n in range(5, 11):
        got = sigma_labels(path(n))
        if got != {"1", str(n)}:
            bad.append(f"path({n}): sigma labels {sorted(got)}")
    for m in range(2, 7):
        family = spider(m)
        got = sigma_labels(family)
        if got != {str(i) for i in range(m + 1, 2 * m + 1)}:
            bad.append(f"spider({m}): sigma labels {sorted(got)}")
    for k in range(5, 9):
        for t in range(1, 4):
            got = sigma_labels(pkt(k, t))
            if got != {str(2 * t + 1), str(2 * t + k)}:
                bad.append(f"pkt({k},{t}): sigma labels {sorted(got)}")
    for t in range(1, 4):
        got = sigma_labels(pkt(4, t))
        if got != {str(2 * t + 1)}:
            bad.append(f"pkt(4,{t}): sigma labels {sorted(got)}")
    for m in range(4, 8):
        for n1 in range(1, 4):
            for n2 in range(n1, 4):
                s = n1 + n2
                got = sigma_labels(pmn(m, n1, n2))
                if got != {str(2 * s + 1), str(2 * s + m)}:
                    bad.append(f"pmn({m},{n1},{n2}): sigma labels {sorted(got)}")

    by_size: dict[int, list[tuple[str, bytes]]] = {}
    for n in range(5, 15):
        by_size.setdefault(n, []).append((f"path({n})", canonical_form(path(n).cert)))
    for k in range(5, 15):
        for t in range(1, 6):
            n = k + 2 * t
            if n <= 14:
                by_size.setdefault(n, []).append(
                    (f"pkt({k},{t})", canonical_form(pkt(k, t).cert))
                )
    for m in range(4, 11):
        for n1 in range(1, 5):
            for n2 in range(n1, 5):
                n = m + 2 * (n1 + n2)
                if n <= 14:
                    by_size.setdefault(n, []).append(
                        (f"pmn({m},{n1},{n2})", canonical_form(pmn(m, n1, n2).cert))
                    )
    for n, entries in sorted(by_size.items()):
        seen: dict[bytes, str] = {}
        for name, code in entries:
            if code in seen:
                bad.append(f"n={n}: {name} isomorphic to {seen[code]}")
            else:
                seen[code] = name
    return bad


def extraction_exceptions(samples: int, seed: int) -> list[str]:
    """Random (prime tree, pinned set) instances: the extracted subtree must
    contain the set, be prime, and pass both minimality routes."""
    bad = []
    rng = random.Random(seed)
    pool = []
    for n in range(4, 10):
        pool.extend(_prime_trees(n))
    for index in range(samples):
        tree = rng.choice(pool)
        size = rng.randint(1, tree.n)
        pinned = vertex_set(rng.sample(range(tree.n), size))
        sub, idmap = extract_minimal_subtree(tree, pinned)
        label = f"sample {index}: n={tree.n} {tree.graph.edges()} X={pinned}"
        if not set(pinned) <= set(idmap):
            bad.append(f"{label}: output lost pinned vertices")
            continue
        if not tree_is_prime(sub):
            bad.append(f"{label}: output not prime")
            continue
        back = {orig: new for new, orig in enumerate(idmap)}
        inner = vertex_set(back[v] for v in pinned)
        if sub.n > 4 and not check_minimal_set(sub, inner).overall:
            bad.append(f"{label}: output fails the minimality conditions")
        if not is_minimal_brute_force(sub, inner):
            bad.append(f"{label}: output fails definitional minimality")
    return bad


def count_agreement_exceptions(kind: str, n_max: int) -> list[str]:
    table = count_table(kind, n_max, verify=True)
    return [
        f"{kind} n={row.n}: formula {row.formula}, enumeration {row.enumerated}"
        for row in table.disagreements()
    ]


# ---------------------------------------------------------------------------
# suite runner


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
    detail: str


# The one statement of every sweep's range: (suite name, acceptance
# criterion or None, sweep, quick args, full args).  The full args are the
# acceptance ranges; `selftest --full`, the acceptance tests and the README
# table all read them from here.  Plain tuples: each row is only unpacked,
# and a class per row would add import work (see critical._LeafTable).
PLAN = (
    ("primality-oracle", 6, primality_oracle_exceptions, (8,), (9,)),
    ("class-count-oracle", 6, class_count_oracle_exceptions, (7,), (9,)),
    ("partition-formulas", 6, partition_oracle_exceptions, (200,), (200,)),
    ("critical-characterization", 3, critical_equivalence_exceptions, (5, 10), (5, 12)),
    ("minimal-characterization", 4, minimal_equivalence_exceptions, (5, 8), (5, 9)),
    ("unique-module-after-leaf-deletion", 7, unique_module_exceptions, (9,), (10,)),
    ("uniqueness-of-named-families", 5, uniqueness_exceptions, (12,), (14,)),
    ("family-noncritical-sets", None, family_sigma_exceptions, (), ()),
    ("count-critical2", 1, count_agreement_exceptions, ("critical2", 12), ("critical2", 14)),
    ("count-minimal3", 2, count_agreement_exceptions, ("minimal3", 12), ("minimal3", 14)),
    ("extraction", 8, extraction_exceptions, (60, 20240901), (200, 20240901)),
)


def run_suites(full: bool = False) -> list[SuiteResult]:
    """Run every suite of PLAN at its quick or its full args."""
    results = []
    for name, _, func, quick, full_args in PLAN:
        args = full_args if full else quick
        try:
            exceptions = func(*args)
        except Exception as exc:  # a crashed sweep is a failure, not an abort
            results.append(SuiteResult(name, False, f"crashed: {exc!r}"))
            continue
        if exceptions:
            detail = f"{len(exceptions)} exception(s); first: {exceptions[0]}"
            results.append(SuiteResult(name, False, detail))
        else:
            results.append(SuiteResult(name, True, f"no exceptions (args {args})"))
    return results
