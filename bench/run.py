"""spanwalk benchmark: one workload per process, closed loop, pinned answers.

Usage (from the repository root):

  python3 bench/run.py --workload identify-ladder --seed 1 --seconds 20 --trace 0
  python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run imports the program from src/, sets it up several times (import, input
generation, edge-list files, one warm-up op) and reports the median set-up
time, then runs the workload's fixed batch of ops again and again, one op at
a time, until the next pass would overrun --seconds (at least one pass).
Every op's result is checked against expected.json after each pass.

Times are reported in reference seconds: the host's speed drifts by up to
1.8x within a minute, so a fixed probe task is timed between ops and every
op latency and set-up time is rescaled by the probe's time around it (see
harness.SpeedProbe).  A timed-out op counts at the deadline.

--trace 0 prints the end-to-end metrics: wall_ref_s (the median over passes
of the batch's time), success_rate, setup_s (median) and peak_rss_mb.  The
median and tail op latencies (op_p50_ref_ms, op_tail_ref_ms: over the batch,
each op at its median over passes) go to the info line, because their
run-to-run spread is too wide for a regression bound; so do the unscaled
figures.  --trace 1 spends half the time untraced and half traced, and
prints the per-layer metrics of the traced passes (unscaled) plus
trace.overhead_s.
The last line of stdout is one JSON object {"correct", "attempted",
"failed", "metrics"}; the line before it ("info: {...}") carries the
environment stamp, the failures by kind, the error rate (success_rate is
one minus it) and the tail percentile used.  `correct` is false when any op
returned an answer that disagrees with its pinned value; ops that raise,
time out or print invalid JSON count in `failed`.

Results go to .bench_out/results/ and spans of traced runs to
.bench_out/spans/; compare.py compares result files.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up repeats: at least SETUP_MIN, and more (up to SETUP_MAX) while their
# total stays under SETUP_BUDGET_S, so that a cheap set-up gets a steadier median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.0

UNITS = {
    "wall_ref_s": "s",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ProgramMissing(Exception):
    pass


def forget_program() -> None:
    """Drop earlier imports of spanwalk and mpmath, so the next import starts cold."""
    for name in list(sys.modules):
        if name in ("spanwalk", "mpmath") or name.startswith(("spanwalk.", "mpmath.")):
            del sys.modules[name]
    gc.collect()  # free them now, so peak memory does not grow with the set-up repeats


def import_program():
    """Import spanwalk (and mpmath) from src/."""
    if not (SRC / "spanwalk" / "__init__.py").is_file():
        raise ProgramMissing(f"no spanwalk package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("spanwalk")
    if Path(package.__file__).resolve().parent != SRC / "spanwalk":
        raise ProgramMissing(f"spanwalk imported from {package.__file__}, not from {SRC}")
    mods = {layer: importlib.import_module(f"spanwalk.{layer}") for layer in tracing.LAYERS}
    return SimpleNamespace(mpmath=importlib.import_module("mpmath"), **mods)


def env_stamp(workload: str, seed: int, load: tuple) -> dict:
    mpmath = sys.modules["mpmath"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "loadavg_start": list(load),
        "platform": platform.platform(),
        "deadline_s": harness.DEADLINE_S,
    }


@dataclass
class PassResult:
    wall: float
    cpu: float
    latencies: list
    kinds: list  # failure kind per op, None for a correct op
    leaks: int
    ref_latencies: list | None  # latencies at the reference speed (untraced passes)


def run_pass(ops, mods, expected, rec=None, probe=None) -> PassResult:
    """One pass over the batch.  Untraced passes time the probe between ops (given `probe`)."""
    leaks = 0

    def on_leak():
        nonlocal leaks
        leaks += 1

    mp = mods.mpmath.mp
    outcomes, starts = [], []
    if rec is not None:
        rec.op = len(ops)  # the pass span itself belongs to no op
        root = rec.begin("bench.pass")
    probe_wall, probe_cpu = (probe.wall, probe.cpu) if probe else (0.0, 0.0)
    cpu0 = time.process_time()
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if rec is None:
            if probe is not None:
                probe.due()
            starts.append(time.perf_counter())
            outcomes.append(harness.run_op(op.call, harness.DEADLINE_S, mp, on_leak))
            continue
        rec.op = index
        first, depth = len(rec.spans), len(rec.stack)
        rec.begin("bench.op")
        try:
            outcomes.append(harness.run_op(op.call, harness.DEADLINE_S, mp, on_leak))
        finally:
            rec.close_from(first, depth)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    ref = None
    if probe is not None:
        wall -= probe.wall - probe_wall
        cpu -= probe.cpu - probe_cpu
        probe.run()  # so that the last op has a probe after it
        ref = [
            harness.DEADLINE_S if o.kind == harness.DEADLINE else probe.to_reference(o.latency, t)
            for o, t in zip(outcomes, starts)
        ]
    if rec is not None:
        rec.end(root)
        rec.op = tracing.SETUP_OP
    kinds = []
    for op, outcome in zip(ops, outcomes):
        kind = outcome.kind
        if kind is None:
            try:
                kind = workloads.check(op, outcome.result, expected)
            except (AttributeError, TypeError, ValueError):
                kind = harness.WRONG_ANSWER  # a result of the wrong shape
        kinds.append(kind)
    return PassResult(wall, cpu, [o.latency for o in outcomes], kinds, leaks, ref)


def run_passes(ops, mods, expected, seconds: float, rec=None, probe=None) -> list[PassResult]:
    """Whole passes until the next one would overrun `seconds`; at least one."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_pass(ops, mods, expected, rec, probe))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.wall for r in results) > seconds:
            return results


def setup(workload: str, seed: int, workdir: str):
    """Import the program, generate the inputs, write edge lists, run one warm-up op."""
    forget_program()
    start = time.perf_counter()
    mods = import_program()
    ops = workloads.build_batch(mods, workload, random.Random(f"{workload}:{seed}"), workdir)
    harness.run_op(ops[0].call, harness.DEADLINE_S, mods.mpmath.mp)
    return time.perf_counter() - start, mods, ops


def latency_stats(passes, attr: str, p: float) -> tuple[float, float]:
    """Median and tail latency in ms over the ops of a pass, each op at its median over passes.

    Taking each op's median first keeps one slow pass from moving the percentiles.
    """
    per_op = [statistics.median(values) for values in zip(*(getattr(r, attr) for r in passes))]
    return statistics.median(per_op) * 1e3, harness.percentile(per_op, p) * 1e3


def end_to_end(passes, setup_ref, setup_raw) -> tuple[dict, dict]:
    count = len(passes[0].latencies)
    p = harness.tail_percentile(count)
    if p is None:
        raise RuntimeError(f"{count} ops per pass is too few for a tail percentile")
    attempted = sum(len(r.kinds) for r in passes)
    failed = sum(k is not None for r in passes for k in r.kinds)
    ref_p50, ref_tail = latency_stats(passes, "ref_latencies", p)
    raw_p50, raw_tail = latency_stats(passes, "latencies", p)
    metrics = {
        "wall_ref_s": statistics.median(sum(r.ref_latencies) for r in passes),
        "success_rate": 1 - failed / attempted,
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # Op latencies are reported but not gated: with one to four passes a run,
    # single ops of a few ms keep a run-to-run spread of 0.08-0.10 after
    # rescaling, too close to the largest bound a benchmark may set.
    info = {
        "latency": {
            "op_p50_ref_ms": {"value": ref_p50, "unit": "ms"},
            "op_tail_ref_ms": {"value": ref_tail, "unit": "ms"},
        },
        # The same figures unscaled: what this host gave, drift included.
        "unscaled": {
            "wall_s": {"value": statistics.median(r.wall for r in passes), "unit": "s"},
            "wall_min_s": {"value": min(r.wall for r in passes), "unit": "s"},
            "op_p50_ms": {"value": raw_p50, "unit": "ms"},
            "op_tail_ms": {"value": raw_tail, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_raw), "unit": "s"},
        },
        "tail_percentile": p,
        "tail_samples_per_pass": count,
        "pass_wall_ref_s": [sum(r.ref_latencies) for r in passes],
    }
    return metrics, info


def reconcile(rec, traced) -> dict:
    """Summed self times of the traced passes against their wall time."""
    times = tracing.span_times(rec)
    by_layer = tracing.self_by_layer(times)
    wall = sum(r.wall for r in traced)
    total = sum(by_layer.values())
    gap = wall - total
    negative = min(self_s for _, _, _, self_s in times)
    if abs(gap) > 0.01 * wall + 0.01 or negative < -1e-6:
        raise RuntimeError(f"span tree does not reconcile: wall {wall}, self sum {total}, min self {negative}")
    return {"self_s_by_layer": by_layer, "traced_wall_s": wall, "gap_s": gap}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load = os.getloadavg()
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    workdirs = []
    try:
        probe = harness.SpeedProbe()
        probe.run(3)
        setup_raw, setup_ref = [], []
        while len(setup_raw) < SETUP_MIN or (len(setup_raw) < SETUP_MAX and sum(setup_raw) < SETUP_BUDGET_S):
            workdirs.append(tempfile.mkdtemp(dir=OUT / "tmp"))
            start = time.perf_counter()
            elapsed, mods, ops = setup(workload, seed, workdirs[-1])
            probe.run(3)
            setup_raw.append(elapsed)
            setup_ref.append(probe.to_reference(elapsed, start))
        env = env_stamp(workload, seed, load)
        info = {"env": env, "setup_s_each": setup_raw, "setup_ref_s_each": setup_ref}
        if not trace:
            passes = run_passes(ops, mods, expected, seconds, probe=probe)
            metrics, extra = end_to_end(passes, setup_ref, setup_raw)
            extra["probe_median_ms"] = statistics.median(probe.durations) * 1e3
            info.update(extra)
            units = UNITS
        else:
            passes = run_passes(ops, mods, expected, seconds / 2)
            rec = tracing.Recorder()
            undo = tracing.install(mods, rec)
            try:
                workdirs.append(tempfile.mkdtemp(dir=OUT / "tmp"))
                root = rec.begin("bench.setup")
                traced_ops = workloads.build_batch(mods, workload, random.Random(f"{workload}:{seed}"), workdirs[-1])
                rec.end(root)
                traced = run_passes(traced_ops, mods, expected, seconds / 2, rec)
            finally:
                undo()
            metrics = tracing.layer_metrics(rec, len(traced))
            metrics["run.cpu_s"] = statistics.median(r.cpu for r in passes)
            metrics["trace.overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in passes)
            info["reconcile"] = reconcile(rec, traced)
            info["traced_passes"] = len(traced)
            info["slowest_ops"] = tracing.op_breakdown(rec, [op.label for op in traced_ops], len(traced))
            (OUT / "spans").mkdir(parents=True, exist_ok=True)
            span_path = OUT / "spans" / f"{workload}-seed{seed}-{os.getpid()}.jsonl"
            rec.write(span_path)
            info["spans_file"] = str(span_path.relative_to(ROOT))
            passes = passes + traced
            units = {name: tracing.UNITS.get(name, "count") for name in metrics}
    finally:
        for path in workdirs:
            shutil.rmtree(path, ignore_errors=True)
    kinds = Counter(k for r in passes for k in r.kinds if k is not None)
    attempted = sum(len(r.kinds) for r in passes)
    failed = sum(kinds.values())
    labels = sorted({op.label for r in passes for op, k in zip(ops, r.kinds) if k is not None})
    info.update(
        passes=len(passes),
        pass_wall_s=[r.wall for r in passes],
        pass_cpu_s=[r.cpu for r in passes],
        ops_per_pass=len(ops),
        failures_by_kind=dict(kinds),
        failed_ops=labels,
        error_rate=failed / attempted,
        precision_leaks=sum(r.leaks for r in passes),
    )
    result = {
        "correct": kinds[harness.WRONG_ANSWER] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    latencies = defaultdict(list)
    for r in passes:
        for op, latency in zip(ops, r.latencies):
            latencies[op.label].append(latency)
    op_ms = {label: statistics.median(values) * 1e3 for label, values in latencies.items()}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {"info": info, "result": result, "trace": trace, "op_median_ms": op_ms}
    path = OUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("info: " + json.dumps(info))
    return result


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process, one after another; prints a table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload {workload} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        info = json.loads(lines[-2].removeprefix("info: "))
        ungated = {**info.get("latency", {}), **{f"unscaled.{k}": m for k, m in info.get("unscaled", {}).items()}}
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
        for name, metric in ungated.items():
            print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}  (not gated)")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            with harness.deadline_handler():
                result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
