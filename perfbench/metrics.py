"""Every metric the benchmark reports, with the layer-to-end-to-end table.

`END_TO_END` are what a user of the package sees; each has the bound by
which a later change may worsen its median before it counts as a
regression.  `PER_LAYER` are the traced numbers of single modules; for each,
`workload` names where the layer runs and `moves` names the end-to-end
metrics (as `<workload>.<metric>`) a change to that layer should move; a
`cli_p50_ms` there is the per-invocation median printed in the record line.
In a workload where a layer does not run, its counts and times read 0.

`python3 perfbench/metrics.py` prints the `BENCHMARK.json` manifest built
from these tables; `perfbench/selfcheck.py` checks that the committed file
matches.
"""

from __future__ import annotations

import json

WORKLOADS = {
    "classes": (
        "enumeration only: cold all_tree_codes(1..15), decoding at n=13, labeled "
        "sweep at n=8 on a pool; the generator, AHU coder and Pruefer decoder"
    ),
    "sweep": (
        "per-call overhead: sigma, 10^5 check_noncritical_set calls, checker vs "
        "brute force and both count formulas over all small prime trees"
    ),
    "large": (
        "asymptotics and memory: x2 ladder to n=1024 of path, spider, Pkt, Pmn and "
        "seeded corona trees, one huge parse/certify/code each; extraction on paths"
    ),
    "cli": (
        "one closed-loop client running `python -m primetrees` on a seeded mix of "
        "8 commands x 2 formats; process start, imports, argparse, rendering"
    ),
}

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

LADDER = (128, 256, 512, 1024)
SHAPES = ("path", "spider", "pkt", "pmn", "corona")
EXTRACT_LADDER = (20, 40, 80, 160)
CLI_COMMANDS = (
    "prime",
    "sigma",
    "classify-critical",
    "check-minimal",
    "extract-minimal",
    "gen",
    "enumerate",
    "count",
)


def _per_layer() -> dict[str, tuple[str, str, str, tuple[str, ...]]]:
    """name -> (unit, better, workload, moves)."""
    table: dict[str, tuple[str, str, str, tuple[str, ...]]] = {}

    def add(name, unit, better, workload, *moves):
        table[name] = (unit, better, workload, moves)

    add("enumeration.all_tree_codes_s", "s", "lower", "classes", "classes.wall_s")
    add("enumeration.classes_per_s", "1/s", "higher", "classes", "classes.wall_s")
    add("enumeration.decode_s", "s", "lower", "classes", "classes.wall_s", "sweep.setup_s")
    add("enumeration.labeled_sweep_s", "s", "lower", "classes", "classes.wall_s")
    add("enumeration.labeled_seqs_per_s", "1/s", "higher", "classes", "classes.wall_s")
    add("enumeration.labeled_parallel_eff", "ratio", "higher", "classes", "classes.wall_s")
    add("enumeration.canonical_form_calls", "count", "lower", "large", "large.wall_s", "sweep.wall_s")
    add("enumeration.canonical_form_s", "s", "lower", "large", "large.wall_s", "sweep.wall_s")

    add("critical.check_noncritical_set_calls", "count", "lower", "sweep", "sweep.wall_s")
    add("critical.check_noncritical_set_us", "us", "lower", "sweep", "sweep.wall_s")
    add("minimal.check_minimal_set_us", "us", "lower", "sweep", "sweep.wall_s")
    add("critical.noncritical_vertices_s", "s", "lower", "sweep", "sweep.wall_s")
    add("critical.classify_critical_family_s", "s", "lower", "sweep", "sweep.wall_s")
    add("counting.is_minus2_critical_s", "s", "lower", "sweep", "sweep.wall_s")
    add("counting.is_3_minimal_s", "s", "lower", "sweep", "sweep.wall_s")
    add("minimal.is_k_minimal_s", "s", "lower", "sweep", "sweep.wall_s")
    add("modules.tree_is_prime_calls", "count", "lower", "sweep", "sweep.wall_s")
    add("modules.tree_is_prime_s", "s", "lower", "sweep", "sweep.wall_s")
    add("modules.is_prime_brute_force_s", "s", "lower", "sweep", "sweep.wall_s")
    add("minimal.is_minimal_brute_force_s", "s", "lower", "sweep", "sweep.wall_s")

    for kernel in (
        "critical.noncritical_vertices",
        "critical.check_noncritical_set",
        "minimal.check_minimal_set",
    ):
        for shape in SHAPES:
            for n in LADDER:
                add(f"{kernel}.{shape}{n}_s", "s", "lower", "large", "large.wall_s")
            add(f"{kernel}.{shape}.slope", "ratio", "lower", "large", "large.wall_s")
    for n in EXTRACT_LADDER:
        add(f"minimal.extract_minimal_subtree.path{n}_s", "s", "lower", "large", "large.wall_s")
    add("minimal.extract_minimal_subtree.slope", "ratio", "lower", "large", "large.wall_s")
    add("critical.check_noncritical_set.peak_mb", "MB", "lower", "large", "large.peak_rss_mb")
    add("graph.read_edge_list_s", "s", "lower", "large", "large.wall_s", "large.setup_s")
    add("graph.certify_tree_s", "s", "lower", "large", "large.wall_s", "large.setup_s")
    add("families.build_s", "s", "lower", "large", "large.wall_s", "large.setup_s")

    add("cli.python_startup_ms", "ms", "lower", "cli")
    add("cli.import_ms", "ms", "lower", "cli", "cli.wall_s", "cli.cli_p50_ms")
    for command in CLI_COMMANDS:
        add(f"cli.run_ms.{command}", "ms", "lower", "cli", "cli.wall_s", "cli.cli_p50_ms")
    add("cli.process_overhead_share", "ratio", "lower", "cli", "cli.wall_s", "cli.cli_p50_ms")

    add("trace.wall_s", "s", "lower", "all")
    add("trace.overhead_share", "ratio", "lower", "all")
    return table


PER_LAYER = _per_layer()


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _, _) in PER_LAYER.items()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
