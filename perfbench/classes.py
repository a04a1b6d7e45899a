"""Workload `classes`: the enumeration layer alone.

One job: cold `all_tree_codes(n)` for n = 1..15 against A000055, decoding
of the n = 13 classes with a canonical-code round trip, and the labeled
sweep at n = 8 on a pool, whose class set must equal the generated one.
No predicate runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from statistics import median
from time import perf_counter

from harness import Tracer, Verdicts, children_cpu_s, fresh_import
from inputs import digest

N_MAX = 15
DECODE_N = 13
LABELED_N = 8
JOBS = min(2, os.cpu_count() or 1)


@dataclass
class Context:
    enumeration: object
    refs: object
    fixed_digest: str
    random_digest: str


def setup(seed: int, refs, t: Tracer) -> Context:
    (enumeration,) = fresh_import("primetrees.enumeration")
    enumeration.all_tree_codes(6)  # warm the code paths, then start cold
    enumeration.all_tree_codes.cache_clear()
    plan = (N_MAX, DECODE_N, LABELED_N, JOBS)
    return Context(enumeration, refs, digest(plan), digest(plan))


def prepare(ctx: Context) -> None:
    ctx.enumeration.all_tree_codes.cache_clear()


def job(ctx: Context, state, t: Tracer, v: Verdicts) -> dict:
    en = ctx.enumeration
    extras = {}
    for n in range(1, N_MAX + 1):
        with v.guard(f"all_tree_codes({n})"):
            start = perf_counter()
            codes = t.call("enumeration.all_tree_codes", en.all_tree_codes, n)
            extras[f"codes{n}_s"] = perf_counter() - start
            extras[f"classes{n}"] = len(codes)
            v.check(len(codes) == ctx.refs.tree_classes(n), f"n={n}: {len(codes)} classes")
            v.check(list(codes) == sorted(set(codes)), f"n={n}: codes not sorted and distinct")

    with v.guard(f"decode n={DECODE_N}"):
        codes = en.all_tree_codes(DECODE_N)
        trees = t.call("enumeration.decode", lambda: list(en.all_trees(DECODE_N)))
        v.check(len(trees) == ctx.refs.tree_classes(DECODE_N), "decoded class count")
        for code, tree in zip(codes, trees):
            ok = tree.n == DECODE_N and t.call("enumeration.canonical_form", en.canonical_form, tree) == code
            v.check(ok, f"decode/encode round trip of {code!r}")

    with v.guard(f"labeled sweep n={LABELED_N}"):
        cpu_before = children_cpu_s()
        start = perf_counter()
        labeled = t.call(
            "enumeration.labeled_tree_class_codes",
            en.labeled_tree_class_codes, LABELED_N, jobs=JOBS,
        )
        extras["labeled_s"] = perf_counter() - start
        extras["labeled_child_cpu_s"] = children_cpu_s() - cpu_before
        v.check(len(labeled) == ctx.refs.tree_classes(LABELED_N), "labeled class count")
        v.check(labeled == frozenset(en.all_tree_codes(LABELED_N)), "labeled set == generated set")
    return extras


def layers(ctx: Context, traced: list[tuple[Tracer, dict]]) -> dict[str, float]:
    def med(fn):
        return median([fn(t, extras) for t, extras in traced])

    return {
        "enumeration.all_tree_codes_s": med(lambda t, e: t.secs["enumeration.all_tree_codes"]),
        "enumeration.classes_per_s": med(
            lambda t, e: e[f"classes{N_MAX}"] / e[f"codes{N_MAX}_s"]
        ),
        "enumeration.decode_s": med(lambda t, e: t.secs["enumeration.decode"]),
        "enumeration.labeled_sweep_s": med(lambda t, e: e["labeled_s"]),
        "enumeration.labeled_seqs_per_s": med(
            lambda t, e: LABELED_N ** (LABELED_N - 2) / e["labeled_s"]
        ),
        "enumeration.labeled_parallel_eff": med(
            lambda t, e: e["labeled_child_cpu_s"] / (e["labeled_s"] * JOBS)
        ),
        "enumeration.canonical_form_calls": med(lambda t, e: t.calls["enumeration.canonical_form"]),
        "enumeration.canonical_form_s": med(lambda t, e: t.secs["enumeration.canonical_form"]),
    }
