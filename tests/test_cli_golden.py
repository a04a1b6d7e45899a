"""Golden output of every CLI subcommand, in both output formats.

Each case runs `cli.run` and compares the exit status and the exact bytes of
`cli.render` with `cli_golden.json`.  Inputs are the `gen` families plus
hand-written files (a decomposable star and chair, the non-tree prime C5,
5-paths with a malformed, an out-of-range, a repeating, an empty-name, a
partial and an empty labels annotation, and three non-trees), written to a
scratch directory that the cases address by relative name.

Regenerate the expected data after a deliberate output change with
`PYTHONPATH=src python tests/test_cli_golden.py`, and review the diff.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from primetrees.cli import render, run

GOLDEN = Path(__file__).with_name("cli_golden.json")

FAMILIES = {
    "path3.txt": ["path", "3"],
    "path4.txt": ["path", "4"],
    "path7.txt": ["path", "7"],
    "a3.txt": ["A", "3"],
    "pkt42.txt": ["Pkt", "4", "2"],
    "pkt51.txt": ["Pkt", "5", "1"],
    "pmn412.txt": ["Pmn", "4", "1", "2"],
    "skmn113.txt": ["Skmn", "1", "1", "3"],
    "skmn122.txt": ["Skmn", "1", "2", "2"],
    "skmn124.txt": ["Skmn", "1", "2", "4"],
}

HAND_WRITTEN = {
    "star.txt": "4\n0 1\n0 2\n0 3\n",
    "chair.txt": "5\n0 1\n1 2\n2 3\n1 4\n",
    "c5.txt": "5\n0 1\n1 2\n2 3\n3 4\n0 4\n",
    "badlabels.txt": "# labels: a=0 b=x\n5\n0 1\n1 2\n2 3\n3 4\n",
    "farlabels.txt": "# labels: a=0 b=9\n5\n0 1\n1 2\n2 3\n3 4\n",
    "duplabels.txt": "# labels: a=0 b=0 a=4\n5\n0 1\n1 2\n2 3\n3 4\n",
    "emptylabel.txt": "# labels: =0 b=4\n5\n0 1\n1 2\n2 3\n3 4\n",
    "partlabels.txt": "# labels: a=0 b=2\n5\n0 1\n1 2\n2 3\n3 4\n",
    "nolabels.txt": "# labels:\n5\n0 1\n1 2\n2 3\n3 4\n",
    "forest.txt": "4\n0 1\n2 3\n",
    "triangle.txt": "4\n0 1\n1 2\n0 2\n",
    "empty.txt": "0\n",
}

FILES = [*FAMILIES, *HAND_WRITTEN, "missing.txt"]


def _gen_argv(params: list[str]) -> list[str]:
    return ["gen", "--family", params[0], "--params", *params[1:]]


def _cases() -> list[list[str]]:
    cases: list[list[str]] = []
    for params in FAMILIES.values():
        cases += [_gen_argv(params), _gen_argv(params) + ["--dot"]]
    cases += [
        _gen_argv(["Pkt", "3", "1"]),
        _gen_argv(["Skmn", "2", "1", "3"]),
        _gen_argv(["path", "0"]),
        _gen_argv(["Q", "1"]),
        _gen_argv(["path", "1", "2"]),
        _gen_argv(["path", "1000001"]),
        _gen_argv(["A", "500000"]),
    ]
    for name in FILES:
        cases += [["prime", name], ["sigma", name], ["classify-critical", name]]
    cases += [
        ["prime", "c5.txt", "--guard", "3"],
        ["sigma", "c5.txt", "--guard", "3"],
        ["check-minimal", "skmn122.txt", "--set", "a1,b1,c1", "--brute"],
        ["check-minimal", "skmn122.txt", "--set", "a1,b1"],
        ["check-minimal", "skmn124.txt", "--set", "a1,b2,c4", "--brute"],
        ["check-minimal", "skmn124.txt", "--set", "1,3,7", "--brute"],
        ["check-minimal", "skmn124.txt", "--set", "0,2,8", "--brute"],
        ["check-minimal", "path7.txt", "--set", "1,2", "--brute"],
        ["check-minimal", "path7.txt", "--set", "1,7", "--brute"],
        ["check-minimal", "path7.txt", "--set", "1", "--brute", "--guard", "3"],
        ["check-minimal", "path7.txt", "--set", "zz"],
        ["check-minimal", "path7.txt", "--set", ","],
        ["check-minimal", "path4.txt", "--set", "1,2", "--brute"],
        ["check-minimal", "pkt42.txt", "--set", "1,3,8", "--brute"],
        ["check-minimal", "chair.txt", "--set", "0", "--brute"],
        ["check-minimal", "star.txt", "--set", "0"],
        ["check-minimal", "path3.txt", "--set", "0"],
        ["check-minimal", "c5.txt", "--set", "0"],
        ["check-minimal", "badlabels.txt", "--set", "a"],
        ["check-minimal", "farlabels.txt", "--set", "a"],
        ["check-minimal", "duplabels.txt", "--set", "a,b"],
        ["check-minimal", "emptylabel.txt", "--set", "b"],
        ["check-minimal", "partlabels.txt", "--set", "a,4", "--brute"],
        ["extract-minimal", "partlabels.txt", "--set", "b,4"],
        ["extract-minimal", "nolabels.txt", "--set", "0,3"],
        ["extract-minimal", "path7.txt", "--set", "1,4"],
        ["extract-minimal", "path7.txt", "--set", "1,4", "--dot"],
        ["extract-minimal", "skmn124.txt", "--set", "a1,c4"],
        ["extract-minimal", "skmn124.txt", "--set", "1,7"],
        ["extract-minimal", "skmn124.txt", "--set", "0,8"],
        ["extract-minimal", "skmn124.txt", "--set", "0,8", "--dot"],
        ["extract-minimal", "pmn412.txt", "--set", "1,2"],
        ["extract-minimal", "star.txt", "--set", "0"],
        ["extract-minimal", "path7.txt", "--set", "9"],
        ["enumerate", "--n", "1"],
        ["enumerate", "--n", "6"],
        ["enumerate", "--n", "7", "--predicate", "prime"],
        ["enumerate", "--n", "8", "--predicate", "critical=1"],
        ["enumerate", "--n", "8", "--predicate", "critical=2"],
        ["enumerate", "--n", "8", "--predicate", "minimal=3"],
        ["enumerate", "--n", "5", "--predicate", "bogus"],
        ["enumerate", "--n", "5", "--predicate", "critical=x"],
        ["enumerate", "--n", "5", "--predicate", "critical=-1"],
        ["enumerate", "--n", "19"],
        ["enumerate", "--n", "0"],
        ["count", "--what", "minimal3", "--nmax", "9"],
        ["count", "--what", "minimal3", "--nmax", "9", "--verify"],
        ["count", "--what", "critical2", "--nmax", "10", "--verify"],
        ["count", "--what", "critical2", "--nmax", "4"],
        ["count", "--what", "critical2", "--nmax", "19", "--verify"],
        ["count", "--what", "critical2", "--nmax", "100001"],
        ["selftest"],
        [],
        ["--help"],
        ["sigma", "--help"],
        ["bogus"],
        ["prime"],
        ["gen", "--family", "path"],
        ["check-minimal", "path7.txt"],
        ["count", "--what", "other", "--nmax", "6"],
        ["enumerate", "--n", "x"],
    ]
    return cases


def _write_inputs(directory: Path) -> None:
    for name, params in FAMILIES.items():
        report = run(_gen_argv(params))
        assert report.exit_code == 0, params
        (directory / name).write_text(render(report))
    for name, text in HAND_WRITTEN.items():
        (directory / name).write_text(text)


def _outcomes() -> list[dict]:
    """Every case in both formats, run from a scratch directory of inputs."""
    out = []
    for argv in _cases():
        for fmt in ("text", "records"):
            full = argv + ["--format", fmt]
            report = run(full)
            out.append({"argv": full, "exit": report.exit_code, "stdout": render(report)})
    return out


def test_cli_output_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = _outcomes()
    assert [case["argv"] for case in actual] == [case["argv"] for case in expected]
    for got, want in zip(actual, expected):
        assert (got["exit"], got["stdout"]) == (want["exit"], want["stdout"]), got["argv"]


if __name__ == "__main__":
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            _write_inputs(Path(scratch))
            outcomes = _outcomes()
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(outcomes, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(outcomes)} cases to {GOLDEN}\n")
