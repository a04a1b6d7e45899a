"""The public names of the package, pinned so that every export is a visible diff."""

from __future__ import annotations

import importlib

import pytest

import primetrees

PUBLIC = [
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
    "all_tree_codes",
    "all_trees",
    "build_family",
    "build_graph",
    "canonical_form",
    "certify_tree",
    "check_minimal_set",
    "check_noncritical_set",
    "classify_critical_family",
    "classify_three_minimal",
    "count_3minimal_formula",
    "count_minus2_critical_formula",
    "count_table",
    "decode_canonical",
    "extract_minimal_subtree",
    "find_nontrivial_module",
    "format_edge_list",
    "is_k_minimal",
    "is_minimal_brute_force",
    "is_module",
    "is_prime",
    "is_prime_brute_force",
    "iter_nontrivial_modules",
    "labeled_tree_class_codes",
    "noncritical_vertices",
    "noncritical_vertices_brute_force",
    "partitions_three_parts",
    "partitions_two_parts",
    "path",
    "pkt",
    "pmn",
    "prime_proper_subgraph_witness",
    "prufer_decode",
    "read_edge_list",
    "skmn",
    "spider",
    "tree_is_prime",
    "tree_module_witness",
    "unique_module_of_leaf_deletion",
    "vertex_set",
]


def test_public_names_are_pinned():
    # `__all__`, not `vars()`: the package loads each name on first access
    assert sorted(primetrees.__all__) == PUBLIC
    for name in PUBLIC:
        value = getattr(primetrees, name)
        assert value.__module__.startswith("primetrees."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert set(PUBLIC) <= set(dir(primetrees))
    with pytest.raises(AttributeError, match="no_such_name"):
        primetrees.no_such_name
