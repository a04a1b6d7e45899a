"""Both characterization checkers, which read a per-tree table built once per
tree, against a local copy of the per-call checkers they replaced: the full
report (every condition's verdict, witness and note) or the exact error
message, on every tree with 5 <= n <= 9 and every nonempty subset, and on
random trees with hostile member lists (non-integer, bool and unhashable
members included), given as lists and as generators; and the refusal of
non-integer, bool, unhashable and non-iterable members by both checkers,
extraction, the definitional witness scan and the three-set classifier, with
the same text under every string hash seed."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labeled_trees, prime_trees
from primetrees.critical import Condition, ConditionReport, check_noncritical_set
from primetrees.enumeration import all_trees
from primetrees.families import path, pmn
from primetrees.graph import GraphError, TreeCert, vertex_set
from primetrees.minimal import (
    check_minimal_set,
    classify_three_minimal,
    extract_minimal_subtree,
    prime_proper_subgraph_witness,
)
from primetrees.modules import tree_module_witness

# ---------------------------------------------------------------------------
# oracle: the per-call checkers, which rebuild every per-tree fact per set


def _leaf_distance_condition(tree: TreeCert) -> Condition:
    witness = tree_module_witness(tree)
    if witness is not None:
        a, b = witness.members
        return Condition(1, False, witness.members, f"leaves {a} and {b} at distance 2")
    return Condition(1, True, None, "every two leaves at distance >= 3")


def _validated_set(tree: TreeCert, members) -> tuple[int, ...]:
    if tree.n < 5:
        raise GraphError("the characterization is stated for trees with >= 5 vertices")
    members = list(members)
    try:
        chosen = set(members)
    except TypeError:  # an unhashable member
        chosen = members
    if any(isinstance(v, bool) for v in members):  # a bool, which 0 or 1 may hide
        chosen = members
    if not chosen:
        raise GraphError("vertex set must be nonempty")
    # the first non-integer in the order read, if the set holds one (a float
    # equal to an integer read before it is not held)
    if any(not isinstance(v, int) or isinstance(v, bool) for v in chosen):
        for v in members:
            if not isinstance(v, int) or isinstance(v, bool):
                raise GraphError(f"vertex {v!r} is not an integer")
    chosen = vertex_set(chosen)
    for v in chosen:
        tree.graph.check_vertex(v)
    return chosen


def _other_neighbor(tree: TreeCert, v: int, known: int) -> int:
    a, b = tree.graph.adj[v]
    return b if a == known else a


def noncritical_oracle(tree: TreeCert, members) -> ConditionReport:
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
    near = [0] * n
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


def minimal_oracle(tree: TreeCert, members) -> ConditionReport:
    chosen = _validated_set(tree, members)
    cset = set(chosen)
    leaves = set(tree.leaves)
    conds = [_leaf_distance_condition(tree)]

    c2 = Condition(2, True, None, "every leaf or its support is in the set")
    for x in sorted(leaves):
        if x not in cset and tree.support_of(x) not in cset:
            c2 = Condition(
                2, False, (x,), f"leaf {x} and its support {tree.support_of(x)} are both outside"
            )
            break
    conds.append(c2)

    c3 = Condition(
        3, True, None,
        "support members without their pendant leaf have degree 2 and a member leaf at distance 2",
    )
    for xi in chosen:
        pendant = tree.leaf_neighbors(xi)
        if len(pendant) != 1 or pendant[0] in cset:
            continue
        ok = tree.graph.degree(xi) == 2 and any(
            y in cset for y in tree.leaf_neighbors(_other_neighbor(tree, xi, pendant[0]))
        )
        if not ok:
            c3 = Condition(
                3, False, (xi,),
                f"support member {xi} (pendant leaf outside): degree "
                f"{tree.graph.degree(xi)}, no member leaf at distance 2",
            )
            break
    conds.append(c3)
    return ConditionReport(tuple(conds))


# ---------------------------------------------------------------------------


def _outcome(check, tree: TreeCert, members):
    try:
        return check(tree, members)
    except GraphError as exc:
        return f"GraphError: {exc}"


PAIRS = ((check_noncritical_set, noncritical_oracle), (check_minimal_set, minimal_oracle))


def test_checkers_match_the_per_call_oracle_on_every_subset():
    # decomposable trees too: condition 1 fails and supports carry several leaves
    for n in range(5, 10):
        for tree in all_trees(n):
            for size in range(1, n + 1):
                for chosen in combinations(range(n), size):
                    for check, oracle in PAIRS:
                        assert check(tree, chosen) == oracle(tree, chosen), (tree, chosen)


@settings(max_examples=200, deadline=None)
@given(st.one_of(prime_trees(), labeled_trees(min_n=2, max_n=30)), st.data())
def test_checkers_match_the_per_call_oracle_on_hostile_sets(tree, data):
    n = tree.n
    vertex = st.one_of(
        st.sampled_from(tree.leaves),
        st.integers(0, n - 1),
        st.integers(-3, n + 3),
    )
    # duplicates, out-of-range ids, internal vertices and sets past floor(n/2)
    members = data.draw(st.lists(vertex, max_size=2 * n), label="members")
    # and a few members that are not integers (unhashable ones and bools
    # too), the first in the order read named
    unhashable = st.lists(st.integers(0, 3), max_size=1)
    stray = st.one_of(st.floats(), st.text(max_size=2), st.none(), unhashable, st.booleans())
    for value in data.draw(st.lists(stray, max_size=2), label="non-integers"):
        members.insert(data.draw(st.integers(0, len(members)), label="at"), value)
    for _ in range(2):  # the second round reads the table the first one built
        for drawn in (members, list(tree.leaves) + members):
            for check, oracle in PAIRS:
                expected = _outcome(oracle, tree, drawn)
                assert _outcome(check, tree, drawn) == expected
                # a one-shot iterator is read once, to the same report or error
                assert _outcome(check, tree, (v for v in drawn)) == expected


def test_checkers_refuse_a_non_integer_member_before_any_verdict():
    tree = path(6).cert
    readers = (
        check_noncritical_set,
        check_minimal_set,
        extract_minimal_subtree,
        prime_proper_subgraph_witness,
        classify_three_minimal,
    )
    for check in readers:
        for members, message in (
            (5, "vertex set 5 is not iterable"),
            (None, "vertex set None is not iterable"),
            ([[1], 2, 3], "vertex [1] is not an integer"),
            ([1, 2, "a"], "vertex 'a' is not an integer"),
            ([0, 2.5], "vertex 2.5 is not an integer"),
            ([2.0], "vertex 2.0 is not an integer"),
            ([9, "1"], "vertex '1' is not an integer"),
            ((v for v in (None, 3)), "vertex None is not an integer"),
            ([[1]], "vertex [1] is not an integer"),
            ([2, [1], 3.5], "vertex [1] is not an integer"),
            ((v for v in (9, {0}, [1])), "vertex {0} is not an integer"),
            ([True, 4], "vertex True is not an integer"),
            ([False, 5], "vertex False is not an integer"),
            ([1, True], "vertex True is not an integer"),
            ([9, 2.5, False], "vertex 2.5 is not an integer"),
            ([3, 9], "vertex 9 out of range 0..5"),
            ([0, 9], "vertex 9 out of range 0..5"),
        ):
            with pytest.raises(GraphError) as caught:
                check(tree, members)
            assert str(caught.value) == message, (check, members)
    for check in (check_noncritical_set, check_minimal_set):
        with pytest.raises(GraphError, match=">= 5 vertices"):
            check(path(4).cert, [2.5])


# Run under several PYTHONHASHSEED values: print each reader's refusal of
# member lists whose non-integers are strings, which a set holds in an order
# that follows the per-process string hash.
_REFUSALS = """
from primetrees.critical import check_noncritical_set
from primetrees.families import path
from primetrees.graph import GraphError
from primetrees.minimal import (
    check_minimal_set, classify_three_minimal, extract_minimal_subtree,
    prime_proper_subgraph_witness,
)
for check in (
    check_noncritical_set, check_minimal_set, extract_minimal_subtree,
    prime_proper_subgraph_witness, classify_three_minimal,
):
    for members in ([2.5, "a", "b", 3], ["b", "a", 9], iter(["a", "c", "b"])):
        try:
            check(path(6).cert, members)
        except GraphError as exc:
            print(exc)
"""


def test_refusals_name_the_first_non_integer_under_every_hash_seed():
    expected = [
        "vertex 2.5 is not an integer",
        "vertex 'b' is not an integer",
        "vertex 'a' is not an integer",
    ] * 5
    for seed in range(1, 7):
        proc = subprocess.run(
            [sys.executable, "-c", _REFUSALS],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == expected, seed


def test_threads_sharing_one_fresh_tree_get_the_oracle_reports():
    # the table and its interned failures are filled lazily by whichever
    # thread gets there first; every thread must still read exact reports
    tree = pmn(4, 1, 2).cert
    subsets = [c for size in range(1, tree.n + 1) for c in combinations(range(tree.n), size)]
    expected = {c: (noncritical_oracle(tree, c), minimal_oracle(tree, c)) for c in subsets}
    wrong = []

    def sweep(offset):
        for c in subsets[offset:] + subsets[:offset]:
            got = (check_noncritical_set(tree, c), check_minimal_set(tree, c))
            if got != expected[c]:
                wrong.append(c)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=sweep, args=(97 * i,)) for i in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert wrong == []
