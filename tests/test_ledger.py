"""The route–oracle ledger: every public name is a fast route, an oracle or
plumbing, stated once here, and each route names the oracle it is compared
with, which of its outputs that oracle checks, and where.

A place is a suite of `selftest.PLAN`, which states the range, or
`tests/<file>::<test>`, whose body states it; ranges are never restated
here.  An oracle is a public name, a function of a package module
(`module.function`), or a test-local copy (`tests/<file>::<function>`).
Test-local copies of a replaced implementation pin exact outputs (witnesses,
notes, the greedy's subtree) that the independent oracle does not speak to.

Adding an export means adding it here; a comparison that checks the same
outputs as a listed one over a smaller range is a copy and is deleted.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import primetrees
from primetrees.selftest import PLAN

ROOT = Path(__file__).resolve().parents[1]

# route: ((oracle, outputs the oracle checks, where they are compared), ...)
ROUTES = {
    "tree_is_prime": (
        ("is_prime_brute_force", "the verdict on every tree", "primality-oracle"),
    ),
    "is_prime": (
        (
            "is_prime_brute_force",
            "the verdict on trees",
            "tests/test_modules.py::test_is_prime_dispatches_to_tree_route",
        ),
    ),
    "tree_module_witness": (
        (
            "is_module",
            "the witness is a nontrivial module",
            "tests/test_modules.py::test_tree_module_witness_soundness",
        ),
    ),
    "noncritical_vertices": (
        (
            "noncritical_vertices_brute_force",
            "the set on every prime tree",
            "tests/test_critical.py::test_noncritical_routes_agree",
        ),
        (
            "tests/test_prime_tree_fuzz.py::certified_sigma",
            "the set on larger random prime trees",
            "tests/test_prime_tree_fuzz.py::test_leaf_rules_and_checkers_on_random_prime_trees",
        ),
    ),
    "check_noncritical_set": (
        (
            "noncritical_vertices",
            "the verdict on every nonempty set: true exactly on σ",
            "critical-characterization",
        ),
        (
            "tests/test_checker_tables.py::noncritical_oracle",
            "every condition's verdict, witness and note, and the error text",
            "tests/test_checker_tables.py::"
            "test_checkers_match_the_per_call_oracle_on_every_subset",
        ),
    ),
    "unique_module_of_leaf_deletion": (
        (
            "iter_nontrivial_modules",
            "the one module left by each leaf deletion, or None",
            "unique-module-after-leaf-deletion",
        ),
        (
            "tests/test_prime_tree_fuzz.py::certified_module",
            "the module, or None, on larger random prime trees",
            "tests/test_prime_tree_fuzz.py::test_leaf_rules_and_checkers_on_random_prime_trees",
        ),
    ),
    "classify_critical_family": (
        (
            "tests/test_critical.py::_family_table",
            "the family and its parameters",
            "tests/test_critical.py::test_classification_matches_a_table_of_every_family_member",
        ),
    ),
    "check_minimal_set": (
        (
            "is_minimal_brute_force",
            "the verdict on every nonempty set",
            "minimal-characterization",
        ),
        (
            "prime_proper_subgraph_witness",
            "the verdict on random sets of larger random trees",
            "tests/test_prime_tree_fuzz.py::"
            "test_minimality_checker_and_extraction_match_the_definition",
        ),
        (
            "tests/test_checker_tables.py::minimal_oracle",
            "every condition's verdict, witness and note, and the error text",
            "tests/test_checker_tables.py::"
            "test_checkers_match_the_per_call_oracle_on_every_subset",
        ),
    ),
    "is_k_minimal": (
        (
            "is_minimal_brute_force",
            "the verdict for every k: some k-set is minimal",
            "tests/test_minimal.py::test_is_k_minimal_matches_the_definition_on_every_small_tree",
        ),
    ),
    "classify_three_minimal": (
        (
            "is_minimal_brute_force",
            "minimal exactly when a shape is named",
            "tests/test_minimal.py::test_classify_matches_brute_force_small",
        ),
    ),
    "extract_minimal_subtree": (
        ("is_minimal_brute_force", "the result holds the set, is prime and minimal", "extraction"),
        (
            "is_minimal_brute_force",
            "the result is minimal, on larger random trees",
            "tests/test_prime_tree_fuzz.py::"
            "test_minimality_checker_and_extraction_match_the_definition",
        ),
        (
            "tests/test_extraction_oracle.py::extraction_oracle",
            "the subtree and its id map: the greedy order",
            "tests/test_extraction_oracle.py::"
            "test_extraction_matches_the_oracle_on_every_pinned_subset",
        ),
    ),
    "all_tree_codes": (
        ("labeled_tree_class_codes", "the set of class codes", "class-count-oracle"),
    ),
    "canonical_form": (
        (
            "tests/test_enumeration.py::adjacency_canonical",
            "the code bytes",
            "tests/test_enumeration.py::test_parent_array_coder_matches_the_adjacency_coder",
        ),
    ),
    "count_minus2_critical_formula": (
        ("noncritical_vertices", "the count of classes with k = 2", "count-critical2"),
        (
            "tests/test_counting.py::minus2_critical_closed_form",
            "the exact value past enumeration",
            "tests/test_counting.py::test_family_sums_match_the_closed_forms",
        ),
    ),
    "count_3minimal_formula": (
        ("is_k_minimal", "the count of 3-minimal classes", "count-minimal3"),
        (
            "tests/test_counting.py::three_minimal_closed_form",
            "the exact value past enumeration",
            "tests/test_counting.py::test_family_sums_match_the_closed_forms",
        ),
    ),
    "partitions_two_parts": (
        (
            "selftest.partition_oracle_exceptions",
            "the count, by direct enumeration",
            "partition-formulas",
        ),
    ),
    "partitions_three_parts": (
        (
            "selftest.partition_oracle_exceptions",
            "the count, by direct enumeration",
            "partition-formulas",
        ),
    ),
}

# oracle: what it computes, by definition
ORACLES = {
    "is_module": "the defining property: outsiders see all of M or none",
    "iter_nontrivial_modules": "every nontrivial module, by subset scan",
    "find_nontrivial_module": "the first module of that scan",
    "is_prime_brute_force": "primality: n >= 4 and no module in that scan",
    "noncritical_vertices_brute_force": "σ: the single-vertex deletions that scan finds prime",
    "prime_proper_subgraph_witness": "the first prime proper subtree that holds the set",
    "is_minimal_brute_force": "minimality: no such subtree",
    "labeled_tree_class_codes": "the class codes of every labeled tree",
}

# types, constructors, parsers and enumeration plumbing: no oracle of their own
PLUMBING = (
    "Condition",
    "ConditionReport",
    "CountRow",
    "CountTable",
    "CriticalFamily",
    "FamilyTree",
    "Graph",
    "GraphError",
    "MinimalForm",
    "ModuleWitness",
    "NoncriticalSet",
    "TreeCert",
    "all_trees",
    "build_family",
    "build_graph",
    "certify_tree",
    "count_table",
    "decode_canonical",
    "format_edge_list",
    "path",
    "pkt",
    "pmn",
    "prufer_decode",
    "read_edge_list",
    "skmn",
    "spider",
    "vertex_set",
)

# routes that call their own oracle: on a graph that is not a tree there is
# no fast route yet, so both fall back to the subset scan
CROSSINGS = {
    ("noncritical_vertices", "noncritical_vertices_brute_force"),
    ("is_prime", "is_prime_brute_force"),
}


def _pairings():
    for route, rows in ROUTES.items():
        for oracle, outputs, where in rows:
            yield route, oracle, outputs, where


def _test_functions(path: str) -> set[str]:
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_public_name_is_classified_once():
    groups = [*ROUTES, *ORACLES, *PLUMBING]
    assert sorted(groups) == sorted(primetrees.__all__)
    assert len(groups) == len(set(groups))


def test_every_named_oracle_suite_and_test_exists():
    suites = {row[0] for row in PLAN}
    for route, oracle, outputs, where in _pairings():
        if "::" in where:
            path, name = where.split("::")
            assert name.startswith("test_") and name in _test_functions(path), where
        else:
            assert where in suites, where
        if "::" in oracle:
            path, name = oracle.split("::")
            assert name in _test_functions(path), oracle
        elif "." in oracle:
            module, name = oracle.split(".")
            assert callable(getattr(importlib.import_module(f"primetrees.{module}"), name)), oracle
        else:
            assert oracle in ORACLES or oracle in ROUTES, oracle


def _called_names(func: ast.FunctionDef) -> set[str]:
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_no_route_calls_its_own_oracle():
    functions = {}
    for path in sorted((ROOT / "src" / "primetrees").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
    crossings = set()
    for route, oracle, _, _ in _pairings():
        assert route in functions, route
        if "::" not in oracle and oracle.rsplit(".", 1)[-1] in _called_names(functions[route]):
            crossings.add((route, oracle))
    assert crossings == CROSSINGS
