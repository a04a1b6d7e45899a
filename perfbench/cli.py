"""Workload `cli`: one closed-loop client running the command line.

Each invocation is a fresh `python -m primetrees` process, started only
after the previous one has exited.  The job is a fixed, seeded mix of
every command in both output formats on small inputs (family files and
corona files written at set-up).  Every invocation must print the same
bytes and exit with the same status as the in-process `cli.run` + `render`
route, and must agree with the known answers (class counts, stated
non-critical sets, family tags, corona trees being prime).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from harness import ROOT, SRC, Tracer, Verdicts, fresh_import
from inputs import corona, digest, edge_list_text
from metrics import CLI_COMMANDS

WORK = ROOT / "perfbench" / "_work"
VARIANTS = 2
PROBES = 10
FORMATS = ("text", "records")


def _subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Invocation:
    command: str
    argv: list[str]
    meta: dict
    expected: bytes = b""
    expected_code: int = 0


@dataclass
class Context:
    pt: object
    cli: object
    refs: object
    workdir: str
    mix: list[Invocation]
    env: dict = field(default_factory=_subprocess_env)
    fixed_digest: str = ""
    random_digest: str = ""


def _random_family(rng: random.Random) -> tuple[str, tuple[int, ...]]:
    tag = rng.choice(("path", "A", "Pkt", "Pmn"))
    if tag == "path":
        return tag, (rng.randint(5, 9),)
    if tag == "A":
        return tag, (rng.randint(3, 4),)
    if tag == "Pkt":
        return tag, (rng.randint(5, 6), rng.randint(1, 2))
    n1 = rng.randint(1, 2)
    return tag, (rng.randint(4, 5), n1, rng.randint(n1, 2))


def _write_inputs(pt, workdir: str, rng: random.Random) -> list[dict]:
    files = []
    for index in range(4):
        tag, params = _random_family(rng)
        member = pt.build_family(tag, list(params))
        path = f"{workdir}/family{index}.txt"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(edge_list_text(member.cert.n, member.cert.graph.edges(), member.labels))
        files.append({"path": path, "names": list(member.labels.items()), "family": (tag, params)})
    for index in range(2):
        n, edges = corona(rng.randint(4, 6), rng)
        path = f"{workdir}/corona{index}.txt"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(edge_list_text(n, edges))
        files.append({"path": path, "names": [(str(v), v) for v in range(n)], "family": None})
    return files


def _argv(command: str, fmt: str, files: list[dict], rng: random.Random) -> tuple[list[str], dict]:
    source = rng.choice(files)
    meta = {"family": source["family"]}
    if command in ("prime", "sigma", "classify-critical"):
        argv = [command, source["path"]]
    elif command in ("check-minimal", "extract-minimal"):
        chosen = rng.sample(source["names"], rng.randint(1, 3))
        meta["set_ids"] = {v for _, v in chosen}
        argv = [command, source["path"], "--set", ",".join(name for name, _ in chosen)]
        if command == "check-minimal":
            argv.append("--brute")
    elif command == "gen":
        tag, params = _random_family(rng)
        meta["family"] = (tag, params)
        argv = [command, "--family", tag, "--params", *map(str, params)]
    elif command == "enumerate":
        meta["n"] = rng.randint(6, 9)
        argv = [command, "--n", str(meta["n"])]
    else:
        argv = [command, "--what", rng.choice(("critical2", "minimal3")), "--nmax", str(rng.randint(8, 10)), "--verify"]
    return argv + ["--format", fmt], meta


def setup(seed: int, refs, t: Tracer) -> Context:
    pt, cli = fresh_import("primetrees", "primetrees.cli")
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    rng = random.Random(seed)
    files = _write_inputs(pt, workdir, rng)
    mix = []
    for command in CLI_COMMANDS:
        for fmt in FORMATS:
            for _ in range(VARIANTS):
                argv, meta = _argv(command, fmt, files, rng)
                mix.append(Invocation(command, argv, meta))
    rng.shuffle(mix)
    for inv in mix:
        report = cli.run(inv.argv)
        inv.expected, inv.expected_code = cli.render(report).encode(), report.exit_code
    ctx = Context(pt, cli, refs, workdir, mix)
    ctx.fixed_digest = digest(CLI_COMMANDS, FORMATS, VARIANTS)
    ctx.random_digest = digest(
        [[arg.replace(workdir, "") for arg in inv.argv] for inv in mix],
        [Path(f["path"]).read_text() for f in files],
    )
    return ctx


def close(ctx: Context) -> None:
    shutil.rmtree(ctx.workdir, ignore_errors=True)


def prepare(ctx: Context) -> None:
    return None


def _run_process(ctx: Context, args: list[str], module: bool = True) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "primetrees", *args] if module else [sys.executable, *args]
    return subprocess.run(cmd, capture_output=True, env=ctx.env, cwd=ROOT, timeout=120)


def _family_str(kind: str, params) -> str:
    return f"{kind}({', '.join(map(str, params))})" if params else kind


def _meaning_ok(ctx: Context, inv: Invocation, out: str, code: int) -> bool:
    """Check the output against known answers, independent of the in-process route."""
    refs, records = ctx.refs, inv.argv[-1] == "records"
    recs = [json.loads(line) for line in out.splitlines()] if records else []
    lines = out.splitlines()
    family = inv.meta.get("family")
    if inv.command == "enumerate":
        return len(lines) == refs.tree_classes(inv.meta["n"])
    if inv.command == "count":
        return code == 0 and (all(r["agree"] for r in recs) if records else "all rows agree" in lines)
    if inv.command == "prime":
        return code == 0 and (recs[0]["prime"] is True if records else "prime: true" in lines)
    if inv.command == "gen":
        if records:
            got = set(recs[0]["sigma"])
        else:
            got = set(next(x for x in lines if x.startswith("# sigma: ")).split(":", 1)[1].split())
        return got == refs.family_sigma_labels(*family)
    if inv.command == "sigma":
        if records:
            labels, k = recs[0]["labels"], recs[0]["k"]
        else:
            shown = next(x for x in lines if x.startswith("sigma: ")).split(":", 1)[1].split()
            labels = [s.split("(")[0] for s in shown] if family else None
            k = len(shown)
        return set(labels) == refs.family_sigma_labels(*family) if family else k >= 1
    if inv.command == "classify-critical":
        if code != 0 or family is None:
            return code == 0
        kind, params = refs.family_kind(*family)
        if records:
            return (recs[0]["family"], tuple(recs[0]["params"])) == (kind, params)
        return f"family: {_family_str(kind, params)}" in lines
    if inv.command == "check-minimal":
        if records:
            return recs[0]["minimal"] == recs[0]["brute"]
        verdict = next(x for x in lines if x.startswith("minimal: ")).split(": ")[1]
        return f"brute-force: {verdict}" in lines
    # extract-minimal
    if code != 0:
        return False
    if records:
        return set(recs[0]["set_ids"]) <= set(recs[0]["vertices"])
    kept = next(x for x in lines if x.startswith("# vertices: ")).split(":", 1)[1].split()
    return inv.meta["set_ids"] <= {int(x) for x in kept}


def job(ctx: Context, state, t: Tracer, v: Verdicts) -> dict:
    latencies = []
    for inv in ctx.mix:
        with v.guard(" ".join(inv.argv)):
            start = perf_counter()
            proc = _run_process(ctx, inv.argv)
            latencies.append(1000 * (perf_counter() - start))
            v.check(
                proc.stdout == inv.expected and proc.returncode == inv.expected_code,
                f"{' '.join(inv.argv)}: process output differs from cli.run",
            )
            ok = _meaning_ok(ctx, inv, proc.stdout.decode(), proc.returncode)
            v.check(ok, f"{' '.join(inv.argv)}: wrong answer")
            if t.on:
                ctx.pt.enumeration.all_tree_codes.cache_clear()  # as cold as the process
                t.call("cli.run", lambda: ctx.cli.render(ctx.cli.run(inv.argv)), tag=inv.command)
    return {"latencies": latencies}


def layers(ctx: Context, traced: list[tuple[Tracer, dict]]) -> dict[str, float]:
    startup, imports = [], []
    for _ in range(PROBES):
        for args, sink in ((["-c", "pass"], startup), (["-c", "import primetrees.cli"], imports)):
            start = perf_counter()
            _run_process(ctx, args, module=False)
            sink.append(1000 * (perf_counter() - start))
    out = {
        "cli.python_startup_ms": median(startup),
        "cli.import_ms": median(imports) - median(startup),
        "cli.process_overhead_share": median(
            1 - 1000 * t.secs["cli.run"] / sum(extras["latencies"]) for t, extras in traced
        ),
    }
    for command in CLI_COMMANDS:
        key = f"cli.run.{command}"
        out[f"cli.run_ms.{command}"] = median(1000 * t.secs[key] / t.calls[key] for t, _ in traced)
    return out
