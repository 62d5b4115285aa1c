#!/usr/bin/env python3
"""ccc4 benchmark: one closed-loop workload per run.

From the root of a ccc4 checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

With --trace 0 the run measures the end-to-end metrics with no tracing.
With --trace 1 it runs every op twice, untraced and then with every layer
wrapped, and reports the per-layer metrics of the traced copies and the
tracing overhead (traced over untraced op time, minus one).  Either way it
prints a report, writes it with the environment stamp to .bench_out/, and
prints as its last line one JSON object with the keys correct, attempted,
failed and metrics.  --smoke runs every workload at a tiny size in both
modes and checks that every metric named in BENCHMARK.json is present with
its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SIZES = {"solve_inputs": 384, "grid": 4, "scan_inputs": 4, "records": 32,
         "battery_samples": 100, "warmup_ops": 3, "setup_reps": 5}
SMOKE_SIZES = {"solve_inputs": 2, "grid": 2, "scan_inputs": 1, "records": 2,
               "battery_samples": 10, "warmup_ops": 1, "setup_reps": 1}
SMOKE_SECONDS = 0.4
BLOCK_S = 2.0   # throughput is taken per block of whole cycles this long

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import ccc4; "
                "print(repr(time.perf_counter() - t))")


def load_package():
    """Import ccc4 from this checkout's src/ and nowhere else."""
    init = SRC / "ccc4" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init.relative_to(ROOT)} not found; "
                 "run from the root of a ccc4 checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import ccc4
    if Path(ccc4.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported ccc4 from {ccc4.__file__}, not from {init}")


class Loop(NamedTuple):
    results: list
    latencies: list
    wall_s: float


def run_loop(workload, seconds: float) -> Loop:
    """Closed loop on one thread: the next op starts when the previous one
    returns, in whole cycles of the workload's inputs, until `seconds` have
    passed.  Whole cycles keep the mix of inputs the same in every run."""
    results, latencies = [], []
    start = time.perf_counter()
    i = 0
    while i % workload.cycle or i == 0 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        results.append(workload.op(i))
        latencies.append(time.perf_counter() - t0)
        i += 1
    return Loop(results, latencies, time.perf_counter() - start)


def run_paired(workload, seconds: float, tracer):
    """Like run_loop, but runs each op twice, untraced and then traced, so
    drifts in machine speed hit both sides alike.  Each Loop's wall_s is
    the sum of its op times."""
    plain, traced = Loop([], [], 0.0), Loop([], [], 0.0)
    start = time.perf_counter()
    i = 0
    while i % workload.cycle or i == 0 or time.perf_counter() - start < seconds:
        for loop, on in ((plain, False), (traced, True)):
            if on:
                tracer.op = i
                tracer.install()
            t0 = time.perf_counter()
            try:
                loop.results.append(workload.op(i))
            finally:
                loop.latencies.append(time.perf_counter() - t0)
                if on:
                    tracer.uninstall()
        i += 1
    return (plain._replace(wall_s=sum(plain.latencies)),
            traced._replace(wall_s=sum(traced.latencies)))


def import_seconds() -> float:
    """Time of `import ccc4` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def measure_setup(workload, reps: int):
    """Import, input generation and warm-up, `reps` times; the workload
    keeps the inputs of the last repetition."""
    times = []
    for _ in range(reps):
        t_import = import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        times.append(t_import + time.perf_counter() - t0)
    return statistics.median(times), times


def digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(len(res.digest).to_bytes(8, "little"))
        h.update(res.digest)
    return h.hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ccc4").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed: int) -> dict:
    try:
        backend = importlib.import_module("ccc4.kernels").backend
    except (ImportError, AttributeError):
        backend = None
    return {"git_sha": git_sha(), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "kernel_backend": backend() if callable(backend) else None,
            "workload": workload.name, "seed": seed, **workload.env()}


def failure_counts(results):
    """Checked items, failed items and failures by reason."""
    items = [reasons for res in results for reasons in res.items]
    by_reason = Counter(reason for reasons in items for reason in reasons)
    return len(items), sum(1 for reasons in items if reasons), dict(sorted(by_reason.items()))


def block_throughputs(latencies, cycle: int) -> list:
    """Ops per second of consecutive blocks, each made of whole cycles and
    lasting at least BLOCK_S; a short tail joins the last block."""
    rates, ops, secs = [], 0, 0.0
    for start in range(0, len(latencies), cycle):
        ops += len(latencies[start:start + cycle])
        secs += sum(latencies[start:start + cycle])
        if secs >= BLOCK_S:
            rates.append((ops, secs))
            ops, secs = 0, 0.0
    if ops and rates:
        last_ops, last_secs = rates.pop()
        rates.append((last_ops + ops, last_secs + secs))
    elif ops:
        rates.append((ops, secs))
    return [n / t for n, t in rates]


def end_to_end(loop: Loop, setup_s: float, cycle: int) -> dict:
    ms = 1e3 * np.asarray(loop.latencies)
    # No median latency: on a shared machine op times split between a fast
    # and a slow mode whose mix drifts, which moves the median by 10-40% from
    # run to run; the 90th percentile sits in the slow mode and holds.  The
    # throughput is the median over blocks, so a slow spell in part of the
    # run moves it less than it moves the run's mean.
    return {"setup_s": (setup_s, "s"),
            "op_ms.p90": (float(np.percentile(ms, 90)), "ms"),
            "ops_per_s": (statistics.median(block_throughputs(loop.latencies, cycle)),
                          "1/s")}


def per_layer(phase_a: Loop, phase_b: Loop, tracer) -> dict:
    import layertrace
    metrics = {}
    for layer, quantities in layertrace.layer_table(tracer, phase_b.wall_s).items():
        for quantity, value in quantities.items():
            metrics[f"{layer}.{quantity}"] = value
    scan = [r.parts for r in phase_a.results if "j2_s" in r.parts]
    efficiency = (sum(p["j1_s"] for p in scan) / (2.0 * sum(p["j2_s"] for p in scan))
                  if scan else 0.0)
    metrics["cli.cmd_scan.parallel_efficiency"] = (efficiency, "ratio")
    op_time = sum(phase_b.latencies)
    attributed = sum(value for name, (value, _) in metrics.items()
                     if name.endswith(".self_s"))
    metrics.update({
        "trace.overhead_ratio": (phase_b.wall_s / phase_a.wall_s - 1.0, "ratio"),
        "trace.unattributed_ratio": (1.0 - attributed / op_time, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.absent_layers": (len(tracer.absent), "count"),
        "trace.ops": (len(phase_b.latencies), "count"),
        "trace.traced_op_s": (phase_b.wall_s, "s"),
    })
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict) -> dict:
    import layertrace
    import workloads

    workload = workloads.WORKLOADS[name](seed, sizes)
    setup_s, setup_reps = measure_setup(workload, sizes["setup_reps"])
    env = environment(workload, seed)

    if trace:
        tracer = layertrace.Tracer()
        phase_a, phase_b = run_paired(workload, seconds, tracer)
        loops = [phase_a, phase_b]
        metrics = per_layer(phase_a, phase_b, tracer)
    else:
        phase_a = run_loop(workload, seconds)
        loops = [phase_a]
        metrics = end_to_end(phase_a, setup_s, workload.cycle)

    # Every op on an input must repeat the first op on it byte for byte, so
    # attempted and failed count the seed's inputs once, whatever the time.
    first = phase_a.results[:workload.cycle]
    replay_matches = all(res[:2] == first[j % workload.cycle][:2] for loop in loops
                         for j, res in enumerate(loop.results))
    attempted, failed, by_reason = failure_counts(first)
    named = {"setup_s": (setup_s, "s", len(setup_reps)),
             "fail_ratio": (failed / attempted, "ratio", attempted)}
    named.update(workload.summary(phase_a.results, phase_a.latencies, phase_a.wall_s))

    correct = (replay_matches
               and "byte_mismatch" not in by_reason
               and all(math.isfinite(v) for v, _ in metrics.values()))
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_by_reason": by_reason,
        "digest": {"sha256": digest(first), "ops": len(first),
                   "replay_matches": replay_matches},
        "setup_reps_s": setup_reps,
        "named": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if trace:
        report["absent_layers"] = tracer.absent
        OUT_DIR.mkdir(exist_ok=True)
        layertrace.write_spans(tracer, OUT_DIR / f"{name}-seed{seed}-spans.json")
    return report


def print_report(report: dict) -> None:
    print(f"# ccc4 perfbench workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for name, m in report["named"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (samples={m['samples']})")
    for reason, count in report["failed_by_reason"].items():
        print(f"failed.{reason} = {count} (in {report['attempted']} checked items)")
    d = report["digest"]
    print(f"digest sha256:{d['sha256']} over the first {d['ops']} ops"
          + ("" if d["replay_matches"] else " (a repeated op DIFFERS)"))
    for layer in report.get("absent_layers", ()):
        print(f"{layer}: absent")
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")


def result_line(report: dict) -> str:
    return json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": report["metrics"]})


def smoke() -> int:
    """Every workload at a tiny size, traced and untraced; prints the named
    metrics of each workload and checks that each metric BENCHMARK.json
    names is reported with its unit."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            report = run(name, 1, SMOKE_SECONDS, trace, SMOKE_SIZES)
            got = report["metrics"]
            want = {m["name"]: m["unit"] for m in spec[section]}
            for metric, unit in want.items():
                if metric not in got:
                    problems.append(f"{name}/trace={int(trace)}: {metric} missing")
                elif got[metric]["unit"] != unit:
                    problems.append(f"{name}/trace={int(trace)}: {metric} unit "
                                    f"{got[metric]['unit']} != {unit}")
            problems += [f"{name}/trace={int(trace)}: {metric} not in BENCHMARK.json"
                         for metric in got if metric not in want]
            if not report["correct"]:
                problems.append(f"{name}/trace={int(trace)}: outputs not correct")
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{report['attempted']} checked items, {report['failed']} failed")
            if not trace:
                for metric, m in report["named"].items():
                    print(f"  {metric} = {m['value']:.6g} {m['unit']} "
                          f"(samples={m['samples']})")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("solve", "scan", "verify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the metric names")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_package()
    if args.smoke:
        return smoke()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), SIZES)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
