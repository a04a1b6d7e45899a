"""Prime trees under modular decomposition.

A graph is prime when all of its modules are trivial.  This package builds
and checks the structure theory of prime trees: which vertices can be
deleted without losing primality, which trees are minimal for a pinned
vertex set, the named families realizing the extremes, and counting formulas
cross-checked against exhaustive enumeration of all unlabeled trees.

The public names load lazily: `import primetrees` imports no submodule, and
the first access to a name imports its home module (PEP 562), so a command
line process loads only the modules its command runs.
"""

import importlib

# The home module of every public name.
_EXPORTS = {
    "counting": (
        "CountRow",
        "CountTable",
        "count_3minimal_formula",
        "count_minus2_critical_formula",
        "count_table",
        "partitions_three_parts",
        "partitions_two_parts",
    ),
    "critical": (
        "Condition",
        "ConditionReport",
        "CriticalFamily",
        "NoncriticalSet",
        "check_noncritical_set",
        "classify_critical_family",
        "noncritical_vertices",
        "noncritical_vertices_brute_force",
        "unique_module_of_leaf_deletion",
    ),
    "enumeration": (
        "all_tree_codes",
        "all_trees",
        "canonical_form",
        "decode_canonical",
        "labeled_tree_class_codes",
        "prufer_decode",
    ),
    "families": ("FamilyTree", "build_family", "path", "pkt", "pmn", "skmn", "spider"),
    "graph": (
        "Graph",
        "GraphError",
        "TreeCert",
        "build_graph",
        "certify_tree",
        "format_edge_list",
        "read_edge_list",
        "vertex_set",
    ),
    "minimal": (
        "MinimalForm",
        "check_minimal_set",
        "classify_three_minimal",
        "extract_minimal_subtree",
        "is_k_minimal",
        "is_minimal_brute_force",
        "prime_proper_subgraph_witness",
    ),
    "modules": (
        "ModuleWitness",
        "find_nontrivial_module",
        "is_module",
        "is_prime",
        "is_prime_brute_force",
        "iter_nontrivial_modules",
        "tree_is_prime",
        "tree_module_witness",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "selftest")

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name's home module, or a submodule, on first access."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
