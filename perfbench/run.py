"""Benchmark of the primetrees package: four seeded workloads, checked answers.

    python3 perfbench/run.py --workload classes --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`.  With `--trace 0` the workload is set up several times (each set-up
imports the package anew) and its fixed job is then repeated, from a cold
state each time, until `--seconds` are used; the median set-up and job times
are reported with the peak memory (this process plus its largest child)
after set-up and the first repetition.  With `--trace 1` the job
alternates untraced and traced repetitions and reports the per-layer
numbers of the traced ones, plus the tracing overhead.

Output: one `{"record": ...}` line with every metric by name and unit, the
failure count and share, input fingerprints and machine facts; then, last,
`{"correct", "attempted", "failed", "metrics"}` with the metrics named in
BENCHMARK.json.  `--corrupt` runs against deliberately wrong references and
must report failures; `--workload all` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import subprocess
import sys
from statistics import median
from time import perf_counter

from harness import SRC, Tracer, Verdicts, finish_facts, machine_facts, peak_rss_mb, tail
from metrics import END_TO_END, PER_LAYER, WORKLOADS
from references import References

SETUP_REPS = 9


def _repeat(mod, ctx, seconds: float, modes: tuple[bool, ...], v: Verdicts) -> tuple[list, float]:
    """Run the job, cycling through tracing modes, until the time is used.

    Returns the repetitions and the peak memory after the first one (later
    repetitions start from a larger heap, and how many run depends on speed).
    When comparing modes, one untimed repetition runs first: the first
    repetition in a process is slower (the heap is still growing), which
    would otherwise be charged to whichever mode goes first.
    """
    runs = []
    peak = 0.0
    if len(modes) > 1:
        mod.job(ctx, mod.prepare(ctx), Tracer(False), Verdicts())
    start = perf_counter()
    while True:
        traced = modes[len(runs) % len(modes)]
        state = mod.prepare(ctx)
        tracer = Tracer(traced)
        gc.collect()
        began = perf_counter()
        extras = mod.job(ctx, state, tracer, v)
        runs.append((traced, perf_counter() - began, tracer, extras))
        peak = peak or peak_rss_mb()
        longest = max(wall for _, wall, _, _ in runs)
        if len(runs) >= len(modes) and perf_counter() - start + longest > seconds:
            return runs, peak


def _traced_value(name: str, tracer: Tracer, setup: Tracer) -> float:
    """Counts and times read straight off the tracer: `<layer>_calls`,
    `<layer>_s` (total) and `<layer>_us` (per call)."""
    for suffix in ("_calls", "_us", "_s"):
        if not name.endswith(suffix):
            continue
        base = name[: -len(suffix)]
        source = tracer if base in tracer.calls else setup
        calls, secs = source.calls.get(base, 0), source.secs.get(base, 0.0)
        if suffix == "_calls":
            return calls
        if suffix == "_us":
            return 1e6 * secs / calls if calls else 0.0
        return secs
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool, corrupt: bool) -> tuple[dict, dict]:
    mod = importlib.import_module(name)
    refs = References(corrupt)
    facts = machine_facts()
    verdicts = Verdicts()
    close = getattr(mod, "close", lambda _: None)
    ctx = None
    try:
        if not trace:
            setup_times = []
            for _ in range(SETUP_REPS):
                if ctx is not None:  # keep only the set-up in use alive
                    close(ctx)
                    ctx = None
                gc.collect()
                start = perf_counter()
                ctx = mod.setup(seed, refs, Tracer(False))
                setup_times.append(perf_counter() - start)
            runs, peak = _repeat(mod, ctx, seconds, (False,), verdicts)
            walls = [wall for _, wall, _, _ in runs]
            metrics = {"setup_s": median(setup_times), "wall_s": median(walls), "peak_rss_mb": peak}
            extra = {}
            latencies = [ms for _, _, _, extras in runs for ms in extras.get("latencies", ())]
            if latencies:
                pct, value, count = tail(latencies)
                extra["cli_p50_ms"] = (median(latencies), "ms")
                extra["cli_tail_ms"] = (value, "ms")
                extra["cli_tail_percentile"] = (pct, "%")
                extra["cli_samples"] = (count, "count")
            declared = {key: (value, END_TO_END[key][0]) for key, value in metrics.items()}
            setup_reps = len(setup_times)
        else:
            setup_tracer = Tracer(True)
            ctx = mod.setup(seed, refs, setup_tracer)
            runs, _ = _repeat(mod, ctx, seconds, (False, True), verdicts)
            traced = [(tracer, extras) for on, _, tracer, extras in runs if on]
            plain = [wall for on, wall, _, _ in runs if not on]
            traced_walls = [wall for on, wall, _, _ in runs if on]
            values = {
                key: median(_traced_value(key, tracer, setup_tracer) for tracer, _ in traced)
                for key in PER_LAYER
            }
            values.update(mod.layers(ctx, traced))
            values["trace.wall_s"] = median(traced_walls)
            values["trace.overhead_share"] = median(traced_walls) / median(plain) - 1
            declared = {key: (values[key], PER_LAYER[key][0]) for key in PER_LAYER}
            extra = {"untraced_wall_s": (median(plain), "s")}
            setup_reps = 1
    finally:
        if ctx is not None:
            close(ctx)

    extra["failed_share"] = (verdicts.failed / max(verdicts.attempted, 1), "ratio")
    every = {**declared, **extra}
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "corrupt_references": corrupt,
        "machine": finish_facts(facts),
        "setup_repetitions": setup_reps,
        "repetition_walls_s": [wall for _, wall, _, _ in runs],
        "inputs": {"fixed": ctx.fixed_digest, "random": ctx.random_digest},
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "failures": verdicts.messages,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in every.items()},
    }
    result = {
        "correct": verdicts.failed == 0 and verdicts.attempted > 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in declared.items()},
    }
    return record, result


def run_all(args) -> dict:
    """Each workload in its own process, so its peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.corrupt:
            argv.append("--corrupt")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} failed with exit status {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true", help="check against wrong references")
    args = parser.parse_args()
    if not (SRC / "primetrees" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a primetrees checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.corrupt)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
