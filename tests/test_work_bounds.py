"""Bounds on repeated work: subset scans per call, processes per sweep (none),
byte encodings per enumeration (none), per labeled sweep one shared walk that
tests each sequence's root once and one decoding and encoding per rooted
name, canonical codes per classification, per-tree facts per
characterization check, time per characterization check behind a wide hub,
time to certify a star with 2*10^5 leaves, subtree lists per minimality
scan, sets checked per k-minimality test and certificates per extraction,
and heap work per extraction; and on the canonical coder's memory."""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import random
import time
import tracemalloc
from itertools import combinations

from primetrees import critical, enumeration, minimal, modules
from primetrees.cli import run
from primetrees.critical import Condition, ConditionReport
from primetrees.enumeration import all_tree_codes, canonical_form, labeled_tree_class_codes
from primetrees.families import path, pkt, pmn, spider
from primetrees.graph import build_graph, certify_tree
from primetrees.minimal import check_minimal_set, extract_minimal_subtree


def test_noncritical_vertices_scans_primality_once_per_deletion(monkeypatch):
    calls = []
    scan = critical.is_prime_brute_force

    def counted(graph, guard):
        calls.append(graph.n)
        return scan(graph, guard)

    monkeypatch.setattr(critical, "is_prime_brute_force", counted)
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert critical.noncritical_vertices(c5).vertices == (0, 1, 2, 3, 4)
    # one primality check of C5 itself, then one per single-vertex deletion
    assert calls == [5, 4, 4, 4, 4, 4]


def test_prime_command_scans_a_decomposable_non_tree_once(monkeypatch, tmp_path):
    calls = []
    scan = modules.iter_nontrivial_modules

    def counted(graph, guard):
        calls.append(graph.n)
        return scan(graph, guard)

    monkeypatch.setattr(modules, "iter_nontrivial_modules", counted)
    # a cone: a 15-vertex path and a hub joined to all of it; the path is
    # its first nontrivial module, found only late in the subset scan
    edges = [(i, i + 1) for i in range(14)] + [(i, 15) for i in range(15)]
    text = "16\n" + "".join(f"{u} {v}\n" for u, v in edges)
    (tmp_path / "cone.txt").write_text(text)
    report = run(["prime", str(tmp_path / "cone.txt")])
    assert report.exit_code == 1
    assert report.records[0]["witness"] == list(range(15))
    # one witness search decides the verdict too, not a verdict scan first
    assert calls == [16]


def test_labeled_sweep_starts_no_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the labeled sweep started a process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    # jobs is accepted and ignored: the sweep walks every sequence here
    assert labeled_tree_class_codes(9, jobs=64) == frozenset(all_tree_codes(9))


def _count_encodings(monkeypatch) -> list[int]:
    calls = []
    encode = enumeration._canonical_from_parents

    def counted(parent, order):
        calls.append(len(parent))
        return encode(parent, order)

    monkeypatch.setattr(enumeration, "_canonical_from_parents", counted)
    return calls


def test_class_enumeration_encodes_no_tree(monkeypatch):
    calls = _count_encodings(monkeypatch)
    all_tree_codes.cache_clear()
    codes = all_tree_codes(12)
    # 551 free trees (OEIS A000055), each code joined from rooted codes with
    # no tree built and none encoded
    assert len(codes) == 551
    assert calls == []


def test_labeled_sweep_encodes_one_tree_per_rooted_name(monkeypatch):
    expected = frozenset(all_tree_codes(7))
    encoded = _count_encodings(monkeypatch)
    walk = enumeration._new_root_names

    class CountedSet(set):
        """Counts root lookups: the walk tests each sequence's root once."""

        lookups = 0

        def __contains__(self, root):
            self.lookups += 1
            return super().__contains__(root)

    seen = CountedSet()

    def counted_walk(n, tail, names, primes, _):
        return walk(n, tail, names, primes, seen)

    monkeypatch.setattr(enumeration, "_new_root_names", counted_walk)
    assert labeled_tree_class_codes(7, jobs=1) == expected
    # the walk names each of the 246 arrangements (OEIS A005651) of the 7
    # degree shapes over 0..4 once, but only the first sequence of each
    # rooted name is decoded and encoded: rooted at the leaf 6, 20 rooted
    # trees on 6 vertices below it (OEIS A000081), not one encoding per
    # sequence
    assert seen.lookups == 246 and len(seen) == 20
    assert encoded == [7] * 20


def test_enumerate_command_prints_the_codes_it_decoded(monkeypatch):
    all_tree_codes(10)  # warm: the class list is cached, so only the command runs
    calls = _count_encodings(monkeypatch)
    assert run(["enumerate", "--n", "10"]).exit_code == 0
    # 106 classes, each printed with the code it was decoded from
    assert calls == []


def test_classification_codes_at_most_one_candidate(monkeypatch):
    calls = []
    code = enumeration.canonical_form

    def counted(tree):
        calls.append(tree.n)
        return code(tree)

    monkeypatch.setattr(enumeration, "canonical_form", counted)
    for member in (pmn(40, 5, 9), pkt(9, 3), pkt(4, 2), spider(6), path(12)):
        assert critical.classify_critical_family(member.cert).kind != "Other"
    # the 9-path with a pendant two-path at vertices 1, 4 and 7: the hubs 1
    # and 7 have degrees less 2 summing to 2, not to the 3 pendant pairs
    edges = [(i, i + 1) for i in range(8)]
    for j, v in enumerate((1, 4, 7)):
        edges += [(v, 9 + 2 * j), (9 + 2 * j, 10 + 2 * j)]
    assert str(critical.classify_critical_family(certify_tree(build_graph(15, edges)))) == "Other"
    # leg lengths decide every member: no code of the input or of a candidate
    assert calls == []


def test_checkers_build_the_per_tree_facts_once_per_tree(monkeypatch):
    calls = []
    witness = critical.tree_module_witness

    def counted(tree):
        calls.append(tree.n)
        return witness(tree)

    monkeypatch.setattr(critical, "tree_module_witness", counted)
    tree = pmn(4, 1, 2).cert
    subsets = 0
    for size in range(1, tree.n + 1):
        for chosen in combinations(range(tree.n), size):
            subsets += 1
            critical.check_noncritical_set(tree, chosen)
            check_minimal_set(tree, chosen)
    # condition 1 is a per-tree fact: one witness search, not one per call
    assert subsets == 2**tree.n - 1
    assert calls == [tree.n]


def test_checkers_stay_linear_when_one_hub_decides_every_outside_leaf():
    c1 = Condition(1, True, None, "every two leaves at distance >= 3")
    critical_holds = ConditionReport((
        c1,
        Condition(2, True, None, "all members are leaves, size within floor(n/2)"),
        Condition(
            3, True, None,
            "each outside leaf has a degree-2 support and exactly one member at distance 3",
        ),
        Condition(
            4, True, None,
            "members with a degree-2 support keep every other leaf at distance >= 4",
        ),
    ))
    minimal_c3 = Condition(
        3, True, None,
        "support members without their pendant leaf have degree 2 and a member leaf at distance 2",
    )
    cases = (
        # the hub has degree 50,002 and its own leaf is sigma; each of the
        # 50,000 outside leaves on a pendant 2-path has its member at the hub
        (pkt(4, 50000), ConditionReport((
            c1, Condition(2, False, (0,), "leaf 0 and its support 1 are both outside"), minimal_c3,
        ))),
        # the centre has degree 50,000 and sigma is every leaf
        (spider(50000), ConditionReport((
            c1, Condition(2, True, None, "every leaf or its support is in the set"), minimal_c3,
        ))),
    )
    for family, minimal_report in cases:
        tree = family.cert
        sigma = critical.noncritical_vertices(tree).vertices
        start = time.perf_counter()
        assert critical.check_noncritical_set(tree, sigma) == critical_holds
        assert check_minimal_set(tree, sigma) == minimal_report
        elapsed = time.perf_counter() - start
        # about 10 ms on 2 CPUs; a count of the hub's members kept per
        # outside leaf would take minutes
        assert elapsed < 2.0, f"{tree.n} vertices: took {elapsed:.2f}s, budget 2s"


def test_certifying_a_wide_star_is_linear():
    star = build_graph(200_001, [(0, v) for v in range(1, 200_001)])
    start = time.perf_counter()
    tree = certify_tree(star)
    elapsed = time.perf_counter() - start
    assert tree.supports == (0,) and len(tree.leaf_neighbors(0)) == 200_000
    # about 0.02 s on 2 CPUs; building the hub's leaf tuple by concatenation
    # would take minutes
    assert elapsed < 2.0, f"took {elapsed:.2f}s, budget 2s"


def test_minimality_scan_lists_the_subtrees_once_per_tree(monkeypatch):
    calls = []
    build = minimal._list_prime_proper_subtrees

    def counted(graph):
        calls.append(graph.n)
        return build(graph)

    monkeypatch.setattr(minimal, "_list_prime_proper_subtrees", counted)
    tree = pmn(4, 1, 2).cert
    minimal_sets = 0
    for size in range(tree.n + 1):
        for chosen in combinations(range(tree.n), size):
            minimal_sets += minimal.is_minimal_brute_force(tree, chosen)
    # every subset's witness search reads one list, built on the first call
    assert minimal_sets > 0
    assert calls == [tree.n]


def test_k_minimality_checks_no_vertex_set(monkeypatch):
    def refuse(name):
        # fails at the first call: a subset scan of path(60) at k = 30 would
        # check about C(58, 29) sets before it reached a passing one
        def checked(tree, members, *args):
            raise AssertionError(f"{name} called on n = {tree.n}")

        return checked

    for name in ("check_minimal_set", "is_minimal_brute_force"):
        monkeypatch.setattr(minimal, name, refuse(name))
    # the verdict is read off the leaf count, with no call of either checker
    for member in (pmn(40, 5, 9), spider(50), path(60)):
        tree = member.cert
        for k in range(tree.n + 2):
            assert minimal.is_k_minimal(tree, k) == (len(tree.leaves) <= k <= tree.n)


def test_extraction_certifies_one_subtree_per_applied_step(monkeypatch):
    calls = []
    certify = minimal.certify_tree

    def counted(graph):
        calls.append(graph.n)
        return certify(graph)

    monkeypatch.setattr(minimal, "certify_tree", counted)
    sub, idmap = extract_minimal_subtree(path(40).cert, (0, 20))
    # 19 single deletions from the far end on input ids, then one
    # certificate of the 21-vertex result; none of the input itself
    assert idmap == tuple(range(21))
    assert calls == [21]
    calls.clear()
    extract_minimal_subtree(path(40).cert, (0, 39))
    # nothing to delete: the input is returned as it is
    assert calls == []


def test_extraction_queues_linear_work_on_a_relabeled_spider(monkeypatch):
    calls = []
    push, pop = minimal.heappush, minimal.heappop

    def counted_push(heap, item):
        calls.append("push")
        push(heap, item)

    def counted_pop(heap):
        calls.append("pop")
        return pop(heap)

    monkeypatch.setattr(minimal, "heappush", counted_push)
    monkeypatch.setattr(minimal, "heappop", counted_pop)
    m = 2000
    tree = spider(m).cert
    perm = list(range(tree.n))
    random.Random(7).shuffle(perm)
    tree = certify_tree(build_graph(tree.n, [(perm[u], perm[v]) for u, v in tree.graph.edges()]))
    sub, _ = extract_minimal_subtree(tree, (perm[m + 1], perm[m + 2]))
    assert sub.n == 5
    # each deleted leg makes its middle vertex a leaf of the centre, which
    # partners every other leaf until it goes too; the leaves that wait on
    # the centre are queued again as one group, not one by one, so the heap
    # work stays about 2n, not about n^2 / 4
    assert calls.count("push") <= 2 * tree.n
    assert calls.count("pop") <= 2 * tree.n


def test_canonical_code_of_a_deep_path_keeps_linear_memory():
    tree = path(8000).cert
    tracemalloc.start()
    try:
        canonical_form(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # O(n) bytes: live codes belong to disjoint subtrees.  Keeping every
    # subtree's code alive takes O(n^2) bytes, about 31 MB here.
    assert peak < 4_000_000
