"""Measurement plumbing shared by the workloads.

`Tracer` times calls made from the benchmark's own code into the package:
with tracing off it only forwards the call, with tracing on it adds the
call's duration and count under the layer name (and under `name.tag` when
a tag is given).  `Verdicts` counts checked outcomes; a mismatch and a
raised exception both count as failed.
"""

from __future__ import annotations

import importlib
import os
import platform
import resource
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Tracer:
    def __init__(self, on: bool):
        self.on = on
        self.calls: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)

    def call(self, name: str, fn, *args, tag: str | None = None, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = perf_counter() - start
            for key in (name,) if tag is None else (name, f"{name}.{tag}"):
                self.calls[key] += 1
                self.secs[key] += seconds


class Verdicts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(what)

    def record(self, attempted: int, failures: list[str]) -> None:
        """Tally a batch of checks made in a hot loop; `failures` are the misses."""
        self.attempted += attempted
        for message in failures:
            self._fail(message)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)

    @contextmanager
    def guard(self, what: str):
        """Count an exception escaping the block as one failed verdict."""
        try:
            yield
        except Exception as exc:  # any crash of the code under test is a wrong verdict
            self.attempted += 1
            self._fail(f"{what}: raised {exc!r}")


def fresh_import(*names: str) -> list:
    """Import the package modules anew, so every set-up pays for its imports."""
    for mod in [m for m in sys.modules if m == "primetrees" or m.startswith("primetrees.")]:
        del sys.modules[mod]
    importlib.invalidate_caches()
    return [importlib.import_module(name) for name in names]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, samples): the highest percentile that still has at
    least ten samples above it, read from the sorted samples."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return 100.0, ordered[-1], count
    index = count - 11
    return 100.0 * (index + 1) / count, ordered[index], count


def _loadavg() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _git_sha() -> str:
    if not (ROOT / ".git").exists():  # an exported tree; do not let git search above it
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "loadavg_1m_start": _loadavg(),
    }


def finish_facts(facts: dict) -> dict:
    """Complete the facts once measuring is over (git runs as a child process,
    which must not count towards the workload's peak memory)."""
    facts["loadavg_1m_end"] = _loadavg()
    facts["git_sha"] = _git_sha()
    return facts
