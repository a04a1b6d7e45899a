"""Command-line front end.

Subcommands cover primality verdicts, non-critical vertex sets, the
critical-set and minimal-set condition reports, minimal-subtree extraction,
family generation, exhaustive enumeration, and the formula-vs-enumeration
count tables.  Exit status: 0 when every requested check passes, 1 when a
check fails (a witness is printed), 2 on usage or input errors.

Output is deterministic: identical invocations produce identical bytes.
With `--format records` each output line is one JSON object.  Each command
computes its values once into record objects and builds its text lines from
the record fields, so the two formats cannot disagree.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from functools import partial
from typing import TYPE_CHECKING

# Only what the parser needs loads with this module; each command imports
# the functions it runs, so a process loads no module its command skips.
from .families import FAMILY_BUILDERS, build_family
from .graph import (
    BRUTE_FORCE_GUARD,
    GUARD_CAP,
    MINIMALITY_GUARD,
    Graph,
    GraphError,
    TreeCert,
    as_tree,
    certify_tree,
    format_edge_list,
    read_edge_list,
)

if TYPE_CHECKING:
    from .critical import ConditionReport


class Report(namedtuple("Report", "exit_code lines records format", defaults=(0, (), (), "text"))):
    """What a command produced: exit status, text lines, record objects, format."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# input helpers


def _load_graph(path: str) -> tuple[Graph, dict[str, int] | None]:
    """The graph in a file plus its `labels` annotation, checked against n;
    a name must be non-empty, and a name and a vertex may each appear once."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc
    graph, annotations = read_edge_list(text)
    raw = annotations.get("labels")
    if raw is None:
        return graph, None
    labels: dict[str, int] = {}
    named: set[int] = set()
    for chunk in raw.split():
        name, _, value = chunk.partition("=")
        try:
            v = int(value) if name else None
        except ValueError:
            v = None
        if v is None:
            raise GraphError(f"malformed labels annotation near {chunk!r}")
        if not 0 <= v < graph.n:
            raise GraphError(
                f"labels annotation names vertex {v} out of range "
                f"0..{graph.n - 1} near {chunk!r}"
            )
        if name in labels:
            raise GraphError(f"labels annotation repeats name {name!r} near {chunk!r}")
        if v in named:
            raise GraphError(f"labels annotation gives vertex {v} a second name near {chunk!r}")
        labels[name] = v
        named.add(v)
    return graph, labels


def _load_tree(path: str) -> tuple[TreeCert, dict[str, int] | None]:
    graph, labels = _load_graph(path)
    return certify_tree(graph), labels


def _parse_set(arg: str, labels: dict[str, int] | None, graph: Graph) -> tuple[int, ...]:
    """Comma-separated vertex set; names resolve through the label map when
    the input file carries one, bare integers are internal ids."""
    ids = []
    for token in arg.split(","):
        token = token.strip()
        if not token:
            continue
        if labels and token in labels:
            ids.append(labels[token])
            continue
        try:
            v = int(token)
        except ValueError:
            raise GraphError(f"unknown vertex {token!r} (not a label, not an id)") from None
        graph.check_vertex(v)
        ids.append(v)
    if not ids:
        raise GraphError("empty vertex set")
    return tuple(sorted(set(ids)))


def _label_list(ids, labels: dict[str, int] | None) -> list[str] | None:
    if not labels:
        return None
    back = {v: k for k, v in labels.items()}
    return [back.get(v, "?") for v in ids]


def _show(ids: list[int], names: list[str] | None = None) -> str:
    """An id list as text, each id tagged with its label when names are given."""
    if names is None:
        return " ".join(map(str, ids)) or "(empty)"
    return " ".join(f"{name}({v})" for name, v in zip(names, ids)) or "(empty)"


def _sigma_lines(n: int, ids: list[int], names: list[str] | None) -> list[str]:
    return [f"n: {n}", f"sigma: {_show(ids, names)}", f"k: {len(ids)}"]


def _dot_text(graph: Graph, names: list[str] | None = None) -> str:
    lines = ["graph tree {"]
    for v, name in enumerate(names or ()):
        lines.append(f'  {v} [label="{name}"];')
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _add_conditions(record: dict, cond_report: ConditionReport) -> None:
    record["conditions"] = [
        {
            "index": cond.index,
            "holds": cond.holds,
            "witness": list(cond.witness) if cond.witness is not None else None,
            "note": cond.note,
        }
        for cond in cond_report.conditions
    ]
    record["overall"] = cond_report.overall


def _condition_lines(conditions: list[dict] | None, skipped: str) -> list[str]:
    if conditions is None:
        return [f"conditions: skipped ({skipped})"]
    lines = []
    for cond in conditions:
        status = "ok" if cond["holds"] else "FAIL"
        witness = cond["witness"]
        suffix = "" if witness is None else f" [witness: {_show(witness)}]"
        lines.append(f"condition {cond['index']}: {status} - {cond['note']}{suffix}")
    return lines


# ---------------------------------------------------------------------------
# subcommands


def _cmd_prime(args) -> Report:
    from .modules import find_nontrivial_module, tree_module_witness

    graph, _ = _load_graph(args.file)
    tree = as_tree(graph)
    # one witness search: below 4 vertices no graph is prime, from 4 on a
    # graph is prime exactly when it has no nontrivial module
    if tree is not None:
        witness = tree_module_witness(tree)
    else:
        witness = find_nontrivial_module(graph, args.guard)
    rec = {
        "command": "prime",
        "n": graph.n,
        "prime": graph.n >= 4 and witness is None,
        "witness": None if witness is None else list(witness.members),
    }
    lines = [f"n: {rec['n']}", f"prime: {str(rec['prime']).lower()}"]
    if rec["witness"] is not None:
        lines.append(f"module witness: {_show(rec['witness'])}")
    elif not rec["prime"]:
        lines.append("module witness: none (fewer than 4 vertices)")
    return Report(0 if rec["prime"] else 1, lines, [rec])


def _cmd_sigma(args) -> Report:
    from .critical import noncritical_vertices

    graph, labels = _load_graph(args.file)
    sigma = noncritical_vertices(graph, args.guard)
    rec = {
        "command": "sigma",
        "n": graph.n,
        "ids": list(sigma.vertices),
        "labels": _label_list(sigma.vertices, labels),
        "k": sigma.k,
    }
    return Report(0, _sigma_lines(rec["n"], rec["ids"], rec["labels"]), [rec])


def _cmd_classify_critical(args) -> Report:
    from .critical import check_noncritical_set, classify_critical_family, noncritical_vertices

    tree, labels = _load_tree(args.file)
    sigma = noncritical_vertices(tree)
    family = classify_critical_family(tree)
    rec = {
        "command": "classify-critical",
        "n": tree.n,
        "k": sigma.k,
        "sigma_ids": list(sigma.vertices),
        "sigma_labels": _label_list(sigma.vertices, labels),
        "family": family.kind,
        "params": list(family.params),
        "conditions": None,
        "overall": None,
    }
    if tree.n >= 5 and sigma.k >= 1:
        _add_conditions(rec, check_noncritical_set(tree, sigma.vertices))
    lines = _sigma_lines(rec["n"], rec["sigma_ids"], rec["sigma_labels"])
    lines.append(f"family: {family}")
    if rec["family"] == "Pkt" and rec["params"][0] == 4:
        lines.append(
            "note: single-hub members with a 4-vertex backbone have exactly one "
            "non-critical vertex"
        )
    lines += _condition_lines(
        rec["conditions"], "stated for >= 5 vertices and a nonempty set"
    )
    return Report(1 if rec["overall"] is False else 0, lines, [rec])


def _cmd_check_minimal(args) -> Report:
    from .minimal import check_minimal_set, is_minimal_brute_force, prime_proper_subgraph_witness
    from .modules import tree_is_prime

    tree, labels = _load_tree(args.file)
    chosen = _parse_set(args.set, labels, tree.graph)
    rec = {
        "command": "check-minimal",
        "n": tree.n,
        "set_ids": list(chosen),
        "set_labels": _label_list(chosen, labels),
        "conditions": None,
        "brute": None,
    }
    if tree.n == 4:
        rec["minimal"] = is_minimal_brute_force(tree, chosen)
    else:
        _add_conditions(rec, check_minimal_set(tree, chosen))
        rec["minimal"] = rec["overall"]
    # a decomposable tree is minimal for nothing; the scan presumes prime
    brute_skipped = args.brute and not tree_is_prime(tree)
    if args.brute and not brute_skipped:
        witness = prime_proper_subgraph_witness(tree, chosen, args.guard)
        rec["brute"] = witness is None
        if witness is not None:
            rec["brute_witness"] = list(witness)

    lines = [f"n: {rec['n']}", f"set: {_show(rec['set_ids'], rec['set_labels'])}"]
    lines += _condition_lines(rec["conditions"], "4-vertex tree, certified by brute force")
    lines.append(f"minimal: {str(rec['minimal']).lower()}")
    if brute_skipped:
        lines.append("brute-force: skipped (tree is not prime)")
    elif rec["brute"] is not None:
        lines.append(f"brute-force: {str(rec['brute']).lower()}")
        if "brute_witness" in rec:
            shown = _show(rec["brute_witness"], _label_list(rec["brute_witness"], labels))
            lines.append(f"proper prime subgraph witness: {shown}")
        if rec["brute"] != rec["minimal"]:
            lines.append("DISAGREEMENT between conditions and brute force")
    passed = rec["minimal"] and rec["brute"] is not False
    return Report(0 if passed else 1, lines, [rec])


def _cmd_extract_minimal(args) -> Report:
    from .minimal import extract_minimal_subtree

    tree, labels = _load_tree(args.file)
    chosen = _parse_set(args.set, labels, tree.graph)
    sub, idmap = extract_minimal_subtree(tree, chosen)
    rec = {
        "command": "extract-minimal",
        "n": sub.n,
        "edges": [list(e) for e in sub.graph.edges()],
        "vertices": list(idmap),
        "set_ids": list(chosen),
    }
    out_annotations = {
        "command": f"extract-minimal --set {args.set}",
        "vertices": " ".join(str(v) for v in idmap),
    }
    if labels:
        back = {v: k for k, v in labels.items()}
        sub_labels = {back[orig]: new for new, orig in enumerate(idmap) if orig in back}
        out_annotations["labels"] = " ".join(
            f"{name}={idx}" for name, idx in sub_labels.items()
        )
    body = _dot_text(sub.graph) if args.dot else format_edge_list(sub.graph, out_annotations)
    return Report(0, body.rstrip("\n").split("\n"), [rec])


def _cmd_gen(args) -> Report:
    from .critical import noncritical_vertices
    from .modules import tree_is_prime

    family = build_family(args.family, args.params)
    sigma = None
    if tree_is_prime(family.cert):
        sigma = _label_list(noncritical_vertices(family.cert).vertices, family.labels)
    rec = {
        "command": "gen",
        "family": family.tag,
        "params": list(family.params),
        "n": family.cert.n,
        "edges": [list(e) for e in family.cert.graph.edges()],
        "labels": dict(family.labels),
        "sigma": sigma,
    }
    if args.dot:
        body = _dot_text(family.cert.graph, _label_list(range(family.cert.n), rec["labels"]))
    else:
        annotations = {
            "family": f"{rec['family']} {' '.join(map(str, rec['params']))}",
            "labels": " ".join(f"{name}={idx}" for name, idx in rec["labels"].items()),
        }
        if rec["sigma"] is not None:
            annotations["sigma"] = " ".join(rec["sigma"])
        body = format_edge_list(family.cert.graph, annotations)
    return Report(0, body.rstrip("\n").split("\n"), [rec])


def _cmd_enumerate(args) -> Report:
    from .enumeration import all_tree_codes, all_trees

    keep = None
    if args.predicate is not None:
        from .counting import predicate

        keep = predicate(args.predicate)
    records = [
        {
            "command": "enumerate",
            "code": code.hex(),
            "n": tree.n,
            "edges": [list(e) for e in tree.graph.edges()],
        }
        for code, tree in zip(all_tree_codes(args.n), all_trees(args.n))
        if keep is None or keep(tree)
    ]
    lines = [
        " ".join([rec["code"], str(rec["n"])] + [f"{u}-{v}" for u, v in rec["edges"]])
        for rec in records
    ]
    return Report(0, lines, records)


def _cmd_count(args) -> Report:
    from .counting import _PREDICATES, count_table
    from .critical import classify_critical_family
    from .enumeration import all_trees

    table = count_table(args.what, args.nmax, verify=args.verify)
    records = [
        {
            "command": "count",
            "what": args.what,
            "n": row.n,
            "formula": row.formula,
            "enumerated": row.enumerated,
            "agree": row.agree,
        }
        for row in table.rows
    ]
    columns = ["n", "formula"] + (["enumerated", "agree"] if args.verify else [])
    cells = []
    for rec in records:
        cell = [str(rec["n"]), str(rec["formula"])]
        if args.verify:
            cell += [str(rec["enumerated"]), "yes" if rec["agree"] else "NO"]
        cells.append(cell)
    widths = [
        max(len(name), *(len(cell[i]) for cell in cells)) if cells else len(name)
        for i, name in enumerate(columns)
    ]
    lines = [f"what: {args.what}"]
    lines.append("  ".join(name.rjust(w) for name, w in zip(columns, widths)))
    for cell in cells:
        lines.append("  ".join(value.rjust(w) for value, w in zip(cell, widths)))
    if not args.verify:
        return Report(0, lines, records)
    if args.what == "critical2":
        lines.append(
            "note: single-hub trees with a 4-vertex backbone are counted under "
            "k=1 (one non-critical vertex), not here"
        )
    if table.all_agree:
        lines.append("all rows agree")
        return Report(0, lines, records)
    lines.append("DISAGREEMENT; witness trees follow")
    _, predicate, _ = _PREDICATES[args.what]
    for row in table.disagreements():
        for tree in all_trees(row.n):
            if predicate(tree):
                family = classify_critical_family(tree)
                edges = " ".join(f"{u}-{v}" for u, v in tree.graph.edges())
                lines.append(f"witness n={row.n} family={family} edges: {edges}")
    return Report(1, lines, records)


def _cmd_selftest(args) -> Report:
    from .selftest import run_suites

    records = [
        {
            "command": "selftest",
            "suite": result.name,
            "ok": result.ok,
            "detail": result.detail,
        }
        for result in run_suites(full=args.full)
    ]
    lines = [
        f"{'PASS' if rec['ok'] else 'FAIL'} {rec['suite']}: {rec['detail']}"
        for rec in records
    ]
    passed = sum(1 for rec in records if rec["ok"])
    lines.append(
        f"{passed}/{len(records)} suites passed"
        + (" (full ranges)" if args.full else " (quick ranges)")
    )
    return Report(0 if passed == len(records) else 1, lines, records)


# ---------------------------------------------------------------------------
# parser and entry points


def _guard(text: str) -> int:
    """A `--guard` value: an integer in 0..GUARD_CAP."""
    if not (text.isascii() and text.isdigit()) or int(text) > GUARD_CAP:
        raise argparse.ArgumentTypeError(f"must be an integer in 0..{GUARD_CAP}, got {text!r}")
    return int(text)


class _UsageError(Exception):
    """A command line argparse rejects: its usage text and its message."""


class _HelpRequested(Exception):
    """`--help`: the help text argparse would print."""


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError or _HelpRequested where argparse would print and
    exit, so that `run` can report either in the requested format;
    subparsers inherit this."""

    def __init__(self, **kwargs):
        # argparse's width off a terminal, so help bytes never depend on one
        super().__init__(formatter_class=partial(argparse.HelpFormatter, width=78), **kwargs)

    def error(self, message: str):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}\n", message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())

    def _check_value(self, action, value):
        # the choices quoted, as up to Python 3.13.0; later releases drop the quotes
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")


def _format_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "records"),
        default="text",
        help="text lines (default) or one JSON object per line",
    )
    return common


def _requested_format(argv: list[str]) -> str:
    """The `--format` of a rejected command line; text when it names none."""
    try:
        return _format_parser().parse_known_args(argv)[0].format
    except _UsageError:
        return "text"


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="primetrees",
        description="Prime trees under modular decomposition: checks, families, counts.",
    )
    common = _format_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prime", parents=[common], help="primality verdict with a module witness")
    p.add_argument("file")
    p.add_argument("--guard", type=_guard, default=BRUTE_FORCE_GUARD)

    p = sub.add_parser("sigma", parents=[common], help="non-critical vertices of a prime graph")
    p.add_argument("file")
    p.add_argument("--guard", type=_guard, default=BRUTE_FORCE_GUARD)

    p = sub.add_parser("classify-critical", parents=[common], help="condition report and family tag")
    p.add_argument("file")

    p = sub.add_parser("check-minimal", parents=[common], help="minimality conditions for a vertex set")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated labels or ids")
    p.add_argument("--brute", action="store_true", help="confirm by definitional scan")
    p.add_argument("--guard", type=_guard, default=MINIMALITY_GUARD)

    p = sub.add_parser("extract-minimal", parents=[common], help="greedy minimal subtree for a vertex set")
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("gen", parents=[common], help="emit a named family member as an edge list")
    p.add_argument("--family", required=True, choices=sorted(FAMILY_BUILDERS))
    p.add_argument("--params", required=True, type=int, nargs="+")
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("enumerate", parents=[common], help="all unlabeled trees on n vertices")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--predicate", help="prime, critical=K, or minimal=K")

    p = sub.add_parser("count", parents=[common], help="formula table, optionally verified by enumeration")
    p.add_argument("--what", required=True, choices=("critical2", "minimal3"))
    p.add_argument("--nmax", required=True, type=int)
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("selftest", parents=[common], help="run the invariant suites")
    p.add_argument("--full", action="store_true", help="full ranges (slower)")
    # the usage as Python 3.10 to 3.12 wrap it, which 3.13 wraps otherwise
    parser.usage = "%(prog)s [-h]\n{0}{{{1}}}\n{0}...".format(" " * 18, ",".join(sub.choices))
    return parser


_COMMANDS = {
    "prime": _cmd_prime,
    "sigma": _cmd_sigma,
    "classify-critical": _cmd_classify_critical,
    "check-minimal": _cmd_check_minimal,
    "extract-minimal": _cmd_extract_minimal,
    "gen": _cmd_gen,
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "selftest": _cmd_selftest,
}


def run(argv: list[str]) -> Report:
    """Parse and execute; never raises for bad input, returns exit code 2."""
    try:
        args = _build_parser().parse_args(argv)
    except _HelpRequested as exc:
        (text,) = exc.args
        return Report(0, text.splitlines(), [{"help": text}], _requested_format(argv))
    except _UsageError as exc:
        usage, message = exc.args
        sys.stderr.write(usage)
        return Report(2, records=[{"error": message}], format=_requested_format(argv))
    try:
        report = _COMMANDS[args.command](args)
    except (ValueError, MemoryError) as exc:  # GraphError included: bad or oversized input
        message = "out of memory" if isinstance(exc, MemoryError) else str(exc)
        return Report(2, [f"error: {message}"], [{"error": message}], args.format)
    return report._replace(format=args.format)


def render(report: Report) -> str:
    """The exact bytes `main` would print, for tests and embedding."""
    if report.format == "records":
        import json

        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in report.records)
    return "".join(line + "\n" for line in report.lines)


def main() -> None:
    report = run(sys.argv[1:])
    try:
        sys.stdout.write(render(report))
        sys.stdout.flush()
    except OSError as exc:
        # Whatever is still buffered goes to devnull, so the interpreter's
        # final flush of stdout cannot fail and print a second report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader closed the pipe
            sys.exit(1)
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        sys.exit(2)
    sys.exit(report.exit_code)


if __name__ == "__main__":
    main()
