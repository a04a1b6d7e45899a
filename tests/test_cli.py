from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import primetrees.cli
import primetrees.graph
from primetrees import counting
from primetrees.cli import render, run
from primetrees.graph import GUARD_CAP, read_edge_list


def write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text)
    return str(target)


def gen_file(tmp_path, name, family, params):
    report = run(["gen", "--family", family, "--params", *map(str, params)])
    assert report.exit_code == 0
    return write(tmp_path, name, render(report))


def test_gen_spider_edge_list():
    report = run(["gen", "--family", "A", "--params", "3"])
    assert report.exit_code == 0
    text = render(report)
    graph, annotations = read_edge_list(text)
    assert graph.n == 7
    assert annotations["family"] == "A 3"
    assert annotations["sigma"] == "4 5 6"
    assert graph.edges() == [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)]


def test_gen_rejects_bad_params():
    assert run(["gen", "--family", "Pkt", "--params", "3", "1"]).exit_code == 2
    assert run(["gen", "--family", "Skmn", "--params", "2", "1", "3"]).exit_code == 2


def test_gen_dot_output():
    report = run(["gen", "--family", "path", "--params", "4", "--dot"])
    text = render(report)
    assert text.startswith("graph tree {")
    assert "0 -- 1;" in text


def test_sigma_on_path4(tmp_path):
    target = gen_file(tmp_path, "p4.txt", "path", ["4"])
    report = run(["sigma", target])
    assert report.exit_code == 0
    assert "k: 0" in report.lines
    record = report.records[0]
    assert record["ids"] == [] and record["k"] == 0


def test_sigma_echoes_labels(tmp_path):
    target = gen_file(tmp_path, "pkt51.txt", "Pkt", ["5", "1"])
    report = run(["sigma", target])
    assert report.exit_code == 0
    record = report.records[0]
    assert record["labels"] == ["3", "7"] and record["k"] == 2


def test_sigma_rejects_decomposable(tmp_path):
    target = write(tmp_path, "star.txt", "4\n0 1\n0 2\n0 3\n")
    report = run(["sigma", target])
    assert report.exit_code == 2
    assert report.lines and report.lines[0].startswith("error:")


def test_prime_verdicts(tmp_path):
    prime_file = gen_file(tmp_path, "p6.txt", "path", ["6"])
    report = run(["prime", prime_file])
    assert report.exit_code == 0 and "prime: true" in report.lines
    star = write(tmp_path, "star.txt", "4\n0 1\n0 2\n0 3\n")
    report = run(["prime", star])
    assert report.exit_code == 1
    assert any("module witness: 1 2" in line for line in report.lines)
    nontree = write(tmp_path, "c5.txt", "5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    report = run(["prime", nontree])
    assert report.exit_code == 0 and "prime: true" in report.lines


def test_classify_critical(tmp_path):
    target = gen_file(tmp_path, "pkt42.txt", "Pkt", ["4", "2"])
    report = run(["classify-critical", target])
    assert report.exit_code == 0
    record = report.records[0]
    assert record["family"] == "Pkt" and record["params"] == [4, 2]
    assert record["k"] == 1 and record["overall"] is True
    target = gen_file(tmp_path, "p4.txt", "path", ["4"])
    report = run(["classify-critical", target])
    assert report.exit_code == 0
    assert report.records[0]["overall"] is None  # conditions need >= 5 vertices


def test_check_minimal_with_labels(tmp_path):
    target = gen_file(tmp_path, "s122.txt", "Skmn", ["1", "2", "2"])
    report = run(["check-minimal", target, "--set", "a1,b1,c1", "--brute"])
    assert report.exit_code == 0
    record = report.records[0]
    assert record["minimal"] is True and record["brute"] is True
    report = run(["check-minimal", target, "--set", "a1,b1"])
    assert report.exit_code == 1
    assert report.records[0]["minimal"] is False


def test_check_minimal_four_vertices(tmp_path):
    target = gen_file(tmp_path, "p4.txt", "path", ["4"])
    report = run(["check-minimal", target, "--set", "1,2", "--brute"])
    assert report.exit_code == 0
    assert report.records[0]["minimal"] is True


def test_check_minimal_on_decomposable_tree(tmp_path):
    target = write(tmp_path, "chair.txt", "5\n0 1\n1 2\n2 3\n1 4\n")
    report = run(["check-minimal", target, "--set", "0", "--brute"])
    assert report.exit_code == 1
    assert report.records[0]["minimal"] is False
    assert report.records[0]["brute"] is None
    assert any("skipped (tree is not prime)" in line for line in report.lines)


def test_enumerate_guard_and_tiny():
    assert run(["enumerate", "--n", "19"]).exit_code == 2
    report = run(["enumerate", "--n", "1"])
    assert report.exit_code == 0 and len(report.lines) == 1
    assert report.lines[0].startswith(b"10".hex())


def test_extract_minimal_dot(tmp_path):
    target = gen_file(tmp_path, "p6.txt", "path", ["6"])
    report = run(["extract-minimal", target, "--set", "1,4", "--dot"])
    text = render(report)
    assert text.startswith("graph tree {") and "--" in text


def test_prime_guard_exceeded(tmp_path):
    edges = "\n".join(f"0 {i}" for i in range(1, 25))
    # 25 vertices, not a tree shape (star is, actually) -- force non-tree
    target = write(tmp_path, "big.txt", "25\n" + edges + "\n1 2\n")
    report = run(["prime", target])
    assert report.exit_code == 2
    assert "guard" in report.lines[0]


def test_repeated_labels_exit_2(tmp_path):
    path5 = "5\n0 1\n1 2\n2 3\n3 4\n"
    repeated_name = write(tmp_path, "name.txt", "# labels: a=0 b=1 a=4\n" + path5)
    second_name = write(tmp_path, "vertex.txt", "# labels: a=0 b=0\n" + path5)
    for target, message in ((repeated_name, "repeats name 'a' near 'a=4'"),
                            (second_name, "vertex 0 a second name near 'b=0'")):
        for argv in (["sigma", target], ["check-minimal", target, "--set", "a,b"]):
            report = run(argv)
            assert report.exit_code == 2 and len(report.lines) == 1
            assert message in report.lines[0]


def test_guard_out_of_range_exit_2(monkeypatch):
    # parsing alone must refuse these: reaching the graph would start a scan
    def refuse(n, edges):
        raise AssertionError("build_graph reached")

    monkeypatch.setattr(primetrees.graph, "build_graph", refuse)
    for command, extra in (("prime", []), ("sigma", []), ("check-minimal", ["--set", "0"])):
        for guard in ("-5", str(GUARD_CAP + 1), "40", "x"):
            assert run([command, "unused.txt", *extra, "--guard", guard]).exit_code == 2


def test_oversized_header_exit_2(tmp_path, monkeypatch):
    def refuse(n, edges):
        raise AssertionError(f"build_graph reached with n={n}")

    monkeypatch.setattr(primetrees.graph, "build_graph", refuse)
    target = write(tmp_path, "huge.txt", "200000000\n0 1\n")
    for command in ("prime", "sigma", "classify-critical"):
        report = run([command, target])
        assert report.exit_code == 2 and len(report.lines) == 1
        assert "guard cap" in report.lines[0]


def test_memory_error_exit_2(monkeypatch):
    def exhaust(args):
        raise MemoryError

    monkeypatch.setitem(primetrees.cli._COMMANDS, "prime", exhaust)
    report = run(["prime", "unused.txt"])
    assert (report.exit_code, report.lines) == (2, ["error: out of memory"])
    report = run(["prime", "unused.txt", "--format", "records"])
    assert render(report) == '{"error": "out of memory"}\n'


def test_check_minimal_bad_set(tmp_path):
    target = gen_file(tmp_path, "p6.txt", "path", ["6"])
    assert run(["check-minimal", target, "--set", "zz"]).exit_code == 2
    assert run(["check-minimal", target, "--set", ""]).exit_code == 2


def test_extract_minimal(tmp_path):
    target = gen_file(tmp_path, "p6.txt", "path", ["6"])
    # labels 1..6 -> ids 0..5; labels "1","4" pin ids 0 and 3
    report = run(["extract-minimal", target, "--set", "1,4"])
    assert report.exit_code == 0
    graph, annotations = read_edge_list(render(report))
    assert graph.n == 4
    assert annotations["vertices"] == "0 1 2 3"


def test_enumerate_counts():
    report = run(["enumerate", "--n", "4"])
    assert report.exit_code == 0 and len(report.lines) == 2
    report = run(["enumerate", "--n", "4", "--predicate", "prime"])
    assert len(report.lines) == 1
    report = run(["enumerate", "--n", "7", "--predicate", "critical=2"])
    assert len(report.lines) == 2
    report = run(["enumerate", "--n", "6", "--predicate", "minimal=3"])
    assert len(report.lines) == 2
    report = run(["enumerate", "--n", "5", "--predicate", "bogus"])
    assert report.exit_code == 2


def test_enumerate_record_schema():
    report = run(["enumerate", "--n", "4", "--format", "records"])
    lines = render(report).splitlines()
    assert len(lines) == 2
    for line in lines:
        record = json.loads(line)
        assert record["n"] == 4
        assert len(record["edges"]) == 3
        assert bytes.fromhex(record["code"])


def test_count_table_output():
    report = run(["count", "--what", "minimal3", "--nmax", "6"])
    assert report.exit_code == 0
    assert report.lines[1].split() == ["n", "formula"]
    assert [line.split() for line in report.lines[2:]] == [
        ["4", "1"],
        ["5", "1"],
        ["6", "2"],
    ]
    report = run(["count", "--what", "critical2", "--nmax", "8", "--verify"])
    assert report.exit_code == 0
    assert "all rows agree" in report.lines[-1]
    records_report = run(
        ["count", "--what", "critical2", "--nmax", "8", "--verify", "--format", "records"]
    )
    rows = [json.loads(line) for line in render(records_report).splitlines()]
    assert all(row["agree"] for row in rows)


def test_count_rejects_bad_range():
    assert run(["count", "--what", "critical2", "--nmax", "4"]).exit_code == 2


def test_usage_errors_exit_2():
    assert run([]).exit_code == 2
    assert run(["frobnicate"]).exit_code == 2
    assert run(["gen", "--family", "Z", "--params", "1"]).exit_code == 2
    assert run(["sigma", "/nonexistent/file.txt"]).exit_code == 2


def test_output_is_deterministic(tmp_path):
    target = gen_file(tmp_path, "pmn.txt", "Pmn", ["5", "1", "2"])
    first = render(run(["classify-critical", target]))
    second = render(run(["classify-critical", target]))
    assert first == second
    assert render(run(["enumerate", "--n", "6"])) == render(run(["enumerate", "--n", "6"]))


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "primetrees", "count", "--what", "minimal3", "--nmax", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert [line.split() for line in proc.stdout.splitlines()[-2:]] == [
        ["4", "1"],
        ["5", "1"],
    ]


# Run in a fresh interpreter: import the package, run one command line (none
# for a bare import), then report the package modules loaded and whether
# `dataclasses` is among all the modules loaded.
_LOADS = """
import json, sys
import primetrees
if sys.argv[1:]:
    primetrees.cli.render(primetrees.cli.run(sys.argv[1:]))
mods = sorted(m[len("primetrees."):] for m in sys.modules if m.startswith("primetrees."))
print(json.dumps([mods, "dataclasses" in sys.modules]))
"""

# What each command of the benchmark mix loads, beyond the package itself.
_CLI = ["cli", "families", "graph"]
_CRITICAL = [*_CLI, "critical", "modules"]
COMMAND_LOADS = [
    ([], []),
    (["prime", "{tree}"], [*_CLI, "modules"]),
    (["sigma", "{tree}"], _CRITICAL),
    (["classify-critical", "{tree}"], _CRITICAL),
    (["check-minimal", "{tree}", "--set", "4,5", "--brute"], [*_CRITICAL, "minimal"]),
    (["extract-minimal", "{tree}", "--set", "4"], [*_CRITICAL, "minimal"]),
    (["gen", "--family", "A", "--params", "3"], _CRITICAL),
    (["enumerate", "--n", "6"], [*_CLI, "enumeration"]),
    (
        ["count", "--what", "critical2", "--nmax", "8", "--verify"],
        [*_CRITICAL, "counting", "enumeration", "minimal"],
    ),
]


@pytest.fixture(scope="module")
def bare_interpreter_has_dataclasses() -> bool:
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip() == "True"


@pytest.mark.parametrize(
    "argv, loads", COMMAND_LOADS, ids=[argv[0] if argv else "bare" for argv, _ in COMMAND_LOADS]
)
def test_each_command_loads_only_the_modules_it_runs(
    tmp_path, bare_interpreter_has_dataclasses, argv, loads
):
    tree = gen_file(tmp_path, "a3.txt", "A", ["3"])
    argv = [word.format(tree=tree) for word in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADS, *argv], capture_output=True, text=True, check=True
    )
    modules, dataclasses_loaded = json.loads(proc.stdout)
    assert modules == sorted(loads)
    assert dataclasses_loaded == bare_interpreter_has_dataclasses


def _main_subprocess(argv, stdout):
    return subprocess.Popen(
        [sys.executable, "-m", "primetrees", *argv], stdout=stdout, stderr=subprocess.PIPE
    )


def test_closed_stdout_exits_1_quietly():
    # closed before the child starts writing, and more output than a pipe holds
    proc = _main_subprocess(["gen", "--family", "path", "--params", "20000"], subprocess.PIPE)
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_exits_2_with_one_error_line():
    with open("/dev/full", "w") as full:
        proc = _main_subprocess(["gen", "--family", "A", "--params", "3"], full)
        _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 2
    (line,) = stderr.decode().splitlines()
    assert line.startswith("error: cannot write output: ")


def test_count_disagreement_prints_witness_trees(monkeypatch):
    start, predicate, formula = counting._PREDICATES["critical2"]
    bumped = (start, predicate, lambda n: formula(n) + (n == 7))
    monkeypatch.setitem(counting._PREDICATES, "critical2", bumped)
    report = run(["count", "--what", "critical2", "--nmax", "7", "--verify"])
    assert report.exit_code == 1
    assert "DISAGREEMENT; witness trees follow" in report.lines
    assert report.lines[-2:] == [
        "witness n=7 family=Pkt(5, 1) edges: 0-1 0-2 0-4 2-3 4-5 5-6",
        "witness n=7 family=Path(7) edges: 0-1 0-4 1-2 2-3 4-5 5-6",
    ]
