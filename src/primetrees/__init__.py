"""Prime trees under modular decomposition.

A graph is prime when all of its modules are trivial.  This package builds
and checks the structure theory of prime trees: which vertices can be
deleted without losing primality, which trees are minimal for a pinned
vertex set, the named families realizing the extremes, and counting formulas
cross-checked against exhaustive enumeration of all unlabeled trees.
"""

from .counting import (
    CountRow,
    CountTable,
    count_3minimal_formula,
    count_minus2_critical_formula,
    count_table,
    partitions_three_parts,
    partitions_two_parts,
)
from .critical import (
    Condition,
    ConditionReport,
    CriticalFamily,
    NoncriticalSet,
    check_noncritical_set,
    classify_critical_family,
    noncritical_vertices,
    noncritical_vertices_brute_force,
    unique_module_of_leaf_deletion,
)
from .enumeration import (
    all_tree_codes,
    all_trees,
    canonical_form,
    decode_canonical,
    labeled_tree_class_codes,
    prufer_decode,
)
from .families import FamilyTree, build_family, path, pkt, pmn, skmn, spider
from .graph import (
    Graph,
    GraphError,
    TreeCert,
    build_graph,
    certify_tree,
    format_edge_list,
    read_edge_list,
    vertex_set,
)
from .minimal import (
    MinimalForm,
    check_minimal_set,
    classify_three_minimal,
    extract_minimal_subtree,
    is_k_minimal,
    is_minimal_brute_force,
    prime_proper_subgraph_witness,
)
from .modules import (
    ModuleWitness,
    find_nontrivial_module,
    is_module,
    is_prime,
    is_prime_brute_force,
    iter_nontrivial_modules,
    tree_is_prime,
    tree_module_witness,
)

__version__ = "0.1.0"
