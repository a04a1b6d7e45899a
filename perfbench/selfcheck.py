"""Check the benchmark itself.

    python3 perfbench/selfcheck.py [--seconds 1]

- BENCHMARK.json is the manifest built from perfbench/metrics.py.
- Every workload, traced and untraced, is correct on the package as it is
  and prints every declared metric with its unit.
- Against corrupted references every workload reports failures.
- Another seed changes the random inputs (corona trees, relabelings, pinned
  sets, the CLI mix) but not the fixed ladders.
- Without the package source next to it, the benchmark exits non-zero and
  prints no result.

Exit status 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from harness import ROOT
from metrics import END_TO_END, PER_LAYER, WORKLOADS, manifest

WORK = ROOT / "perfbench" / "_work"


def _run(cwd: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )
    return proc.returncode, proc.stdout.splitlines()


def _result(*args: str) -> tuple[int, dict, dict]:
    """Exit status, last-line result and record of one benchmark run."""
    code, lines = _run(ROOT, *args)
    if code != 0 or len(lines) < 2:
        return code, {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}, {"inputs": {}}
    return code, json.loads(lines[-1]), json.loads(lines[-2])["record"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", default="1")
    args = parser.parse_args()
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(committed == manifest(), "BENCHMARK.json matches perfbench/metrics.py")

    for name in WORKLOADS:
        common = ["--workload", name, "--seconds", args.seconds]
        digests = {}
        for trace, declared in (("0", END_TO_END), ("1", PER_LAYER)):
            code, result, record = _result(*common, "--seed", "1", "--trace", trace)
            digests[1] = record["inputs"]
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{name} trace {trace}: correct, {result['attempted']} verdicts")
            units = {key: metric.get("unit") for key, metric in result["metrics"].items()}
            wanted = {key: spec[0] for key, spec in declared.items()}
            expect(units == wanted, f"{name} trace {trace}: every declared metric, with its unit")
        code, result, record = _result(*common, "--seed", "2", "--trace", "0", "--corrupt")
        digests[2] = record["inputs"]
        expect(code == 0 and result["failed"] > 0 and not result["correct"],
               f"{name}: corrupted references give {result['failed']} failed verdicts")
        expect(digests[1].get("fixed") == digests[2].get("fixed"), f"{name}: fixed inputs do not depend on the seed")
        if name != "classes":
            expect(digests[1].get("random") != digests[2].get("random"), f"{name}: random inputs follow the seed")

    WORK.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        code, lines = _run(bare, "--workload", "classes", "--seed", "1", "--seconds", "1", "--trace", "0")
        expect(code != 0 and not lines, "without the package source: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
