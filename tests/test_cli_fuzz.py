"""Hostile input: mutated edge lists for `read_edge_list`, and random command
lines for `cli.run` over every subcommand but `selftest`.

The parser must return a graph or raise GraphError.  A command must end with
exit status 0, 1 or 2 and let no exception escape, write nothing to stdout
itself, render the same bytes when run again, and in records mode print one
JSON object per line.

Sizes are drawn so that no run starts a scan of more than 2^12 subsets:
drawn headers are <= 12 or > 24 (every guard is below 25), `--guard` is
<= 12, and `--n` and `--nmax` are <= 9.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primetrees.cli import render, run
from primetrees.graph import Graph, GraphError, read_edge_list
from test_cli_golden import FAMILIES as GOLDEN_FAMILIES
from test_cli_golden import HAND_WRITTEN

# the golden test's inputs, all below 13 vertices, plus one above the guards
FAMILIES = {**GOLDEN_FAMILIES, "path30.txt": ["path", "30"]}


def _family_text(params: list[str]) -> str:
    return render(run(["gen", "--family", params[0], "--params", *params[1:]]))


BASE_TEXTS = {
    **{name: _family_text(params) for name, params in FAMILIES.items()},
    **HAND_WRITTEN,
}

JUNK = ["", "x", "-1", "1.5", "0x10", "--", "1e3", ",", "a,,b", "٣", "99999999999999"]
HEADERS = st.one_of(st.integers(-5, 12), st.integers(25, 10**12)).map(str)
JUNK_LINES = st.one_of(
    st.sampled_from(["x y", "1 2 3", "-1 0", "0 0", "3", "#", "# :", "0 99999999999", "1\t2"]),
    st.text(alphabet="0123456789 -#:=xab\t", max_size=12),
)
JUNK_LABELS = st.one_of(
    st.sampled_from(["a=0 b=x", "=1", "a=99", "a=-1", "a=0 a=1", "a=0 b=0", "a", ""]),
    st.text(alphabet="ab01=- ", max_size=12),
)


def _header_index(lines: list[str]) -> int | None:
    for i, line in enumerate(lines):
        if line.strip() and not line.strip().startswith("#"):
            return i
    return None


@st.composite
def mutated_texts(draw) -> str:
    """A valid family or hand-written file with up to four mutations."""
    lines = draw(st.sampled_from(sorted(BASE_TEXTS.values()))).split("\n")
    for _ in range(draw(st.sampled_from(range(5)))):
        op = draw(st.sampled_from(["drop", "dup", "swap", "junk", "header", "labels"]))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if op == "drop" and lines:
            del lines[i]
        elif op == "dup" and lines:
            lines.insert(i, lines[i])
        elif op == "swap" and lines:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "junk":
            lines.insert(i, draw(JUNK_LINES))
        elif op == "header":
            h = _header_index(lines)
            if h is not None:
                lines[h] = draw(HEADERS)
        else:
            lines.insert(0, "# labels: " + draw(JUNK_LABELS))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(mutated_texts())
def test_read_edge_list_returns_a_graph_or_refuses(text):
    try:
        graph, annotations = read_edge_list(text)
    except GraphError:
        return
    assert isinstance(graph, Graph) and isinstance(annotations, dict)


# ---------------------------------------------------------------------------
# command lines


def _ints(lo: int, hi: int):
    return st.sampled_from(range(lo, hi + 1)).map(str)


def _chance(num: int, den: int):
    """True num times in den.  Choices are sampled, since `st.integers`
    favours its bounds."""
    return st.sampled_from(range(den)).map(lambda i: i < num)


def _values(good):
    """Mostly a drawn good value, one time in four a junk word."""
    return _chance(3, 4).flatmap(lambda ok: good if ok else st.sampled_from(JUNK))


GUARD = _values(st.sampled_from([*range(13), 25, 40]).map(str))
VERTEX = st.sampled_from([*map(str, range(8)), "-1", "31", "a1", "b2", "c4", "r", " 2", "zz"])
SET = _values(st.lists(VERTEX, min_size=1, max_size=5).map(",".join))
# family parameters: small, or one past the size cap
PARAM = _values(st.sampled_from([*range(-1, 10), 10**7]).map(str))
ARITY = {"path": 1, "A": 1, "Pkt": 2, "Pmn": 3, "Skmn": 3, "Q": 1}


@st.composite
def _family_flags(draw) -> list[str]:
    """`--family` and `--params`, usually as many as the family takes."""
    tag = draw(st.sampled_from(sorted(ARITY)))
    count = ARITY[tag] if draw(_chance(4, 5)) else draw(st.sampled_from(range(5)))
    return ["--family", tag, "--params", *draw(st.lists(PARAM, min_size=count, max_size=count))]


def _flags(command: str):
    """Each drawn flag as its argv words; required ones are often but not
    always drawn."""
    if command in ("prime", "sigma"):
        return [GUARD.map(lambda v: ["--guard", v])]
    if command == "check-minimal":
        return [
            SET.map(lambda v: ["--set", v]),
            st.just(["--brute"]),
            GUARD.map(lambda v: ["--guard", v]),
        ]
    if command == "extract-minimal":
        return [SET.map(lambda v: ["--set", v]), st.just(["--dot"])]
    if command == "gen":
        return [_family_flags(), st.just(["--dot"])]
    if command == "enumerate":
        return [
            _values(_ints(0, 9)).map(lambda v: ["--n", v]),
            _values(
                st.sampled_from(["prime", "critical=0", "critical=2", "minimal=3", "minimal=x"])
            ).map(lambda v: ["--predicate", v]),
        ]
    if command == "count":
        return [
            _values(st.sampled_from(["critical2", "minimal3", "other"])).map(
                lambda v: ["--what", v]
            ),
            _values(_ints(0, 9)).map(lambda v: ["--nmax", v]),
            st.just(["--verify"]),
        ]
    return []


FILE_COMMANDS = ["prime", "sigma", "classify-critical", "check-minimal", "extract-minimal"]
COMMANDS = FILE_COMMANDS + ["gen", "enumerate", "count"]
FILES = sorted(BASE_TEXTS) + ["drawn.txt", "missing.txt"]


@st.composite
def command_lines(draw) -> list[str]:
    """A subcommand, usually its file, a draw of its flags and sometimes a
    junk word, now and then shuffled, then a format; files by bare name."""
    command = draw(st.sampled_from([*COMMANDS, "bogus"]))
    words = []
    if command in FILE_COMMANDS and draw(_chance(9, 10)):
        words.append(draw(st.sampled_from(FILES)))
    for flag in _flags(command):
        if draw(_chance(4, 5)):
            words += draw(flag)
    if draw(_chance(1, 6)):
        words.append(draw(st.sampled_from(["--bogus", "-x", "--help", "extra", "--guard"])))
    if draw(_chance(1, 8)):
        words = draw(st.permutations(words))
    fmt = draw(_values(st.sampled_from(["text", "records"])))
    return [command, *words, *(["--format", fmt] if draw(st.booleans()) else [])]


@pytest.fixture(scope="module")
def directory(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("fuzz")
    for name, text in BASE_TEXTS.items():
        (path / name).write_text(text)
    return path


@settings(max_examples=400, deadline=None)
@given(command_lines(), mutated_texts())
def test_cli_exits_cleanly_and_deterministically(directory, argv, drawn):
    (directory / "drawn.txt").write_text(drawn)
    argv = [str(directory / word) if word in FILES else word for word in argv]
    with contextlib.redirect_stdout(io.StringIO()) as leaked:
        first = run(argv)
        again = run(argv)
    # everything `main` prints comes from the report, `--help` text included
    assert leaked.getvalue() == "", argv
    assert first.exit_code in (0, 1, 2), argv
    out = render(first)
    assert (again.exit_code, render(again)) == (first.exit_code, out), argv
    if first.format == "records":
        for line in out.splitlines():
            assert isinstance(json.loads(line), dict), (argv, line)


# ---------------------------------------------------------------------------
# extraction output read back

# every character `str.splitlines` ends a line at
LINE_BREAKS = [
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
]
# mostly plain spacing; `\x1f` is whitespace but ends no line
SPACING = _chance(7, 8).flatmap(
    lambda plain: st.sampled_from(["", " ", "\t", "\x1f"] if plain else LINE_BREAKS)
)


@st.composite
def spaced_sets(draw) -> str:
    """A `--set` value of good vertex words, each wrapped in drawn spacing."""
    vertex = st.sampled_from([*map(str, range(8)), "a1", "c4", "r"])
    words = draw(st.lists(vertex, min_size=1, max_size=3))
    return ",".join(draw(SPACING) + word + draw(SPACING) for word in words)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BASE_TEXTS)), spaced_sets())
def test_extract_minimal_output_reads_back(directory, name, raw):
    report = run(["extract-minimal", str(directory / name), "--set", raw])
    if report.exit_code == 2:
        (line,) = report.lines
        assert line.startswith("error: ")
        return
    assert report.exit_code == 0 and raw.splitlines() == [raw]
    graph, annotations = read_edge_list(render(report))
    (record,) = report.records
    assert (graph.n, graph.edges()) == (record["n"], [tuple(e) for e in record["edges"]])
    assert annotations["vertices"] == " ".join(map(str, record["vertices"]))
    assert annotations["command"] == f"extract-minimal --set {raw}".rstrip()
