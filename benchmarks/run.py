"""minorbit benchmark: every workload, every metric, every output checked.

    python3 benchmarks/run.py                      # all workloads, untraced and traced
    python3 benchmarks/run.py --workload cli-cold --seed 3 --seconds 20 --trace 0

A single-workload run prints its metrics by name with their units and, as
its last line, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  It writes the request list, the environment and the
results (and, when traced, the spans) under benchmarks/out/.  The
workloads, metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import harness
import workloads
from spans import Tracer, layer_metrics

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
OUT = harness.HERE / "out"
WORKER = harness.HERE / "worker.py"
SETUP_REPEATS = 24
# Times are reported as they would read on a machine that runs the
# reference loop (harness.reference_time) in this many seconds.
NOMINAL_REFERENCE_S = 0.0015
PERCENTILE_LADDER = (50, 90, 99, 99.9)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(len(ordered) * Fraction(str(p)) / 100)
    return ordered[max(rank, 1) - 1]


def highest_percentile(samples: int) -> float | None:
    """The highest percentile of the ladder with at least ten samples beyond it."""
    fitting = [p for p in PERCENTILE_LADDER if samples * (100 - Fraction(str(p))) / 100 >= 10]
    return max(fitting) if fitting else None


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def setup_time(name: str, seed: int) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports minorbit and generates
    the workload's inputs, with the reference time taken just before it."""
    reference = harness.reference_time()
    start = time.perf_counter()
    subprocess.run([sys.executable, str(WORKER), "setup", name, str(seed)], check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start, reference


def scaled(seconds: float, reference_s: float) -> float:
    """A wall time measured while the reference loop took reference_s, as
    it reads at NOMINAL_REFERENCE_S.

    A shared machine's speed swings by 20-50% over tens of seconds, and
    every Python request slows with it.  The reference loop, timed at most
    50 ms before each request, follows the same swings, and changes to the
    program do not touch it.  Scaled by it, the quartile spread of runs of
    the same code stayed under 7% of the median on a VM where unscaled
    figures spread by up to a third."""
    return seconds * NOMINAL_REFERENCE_S / reference_s


def worker_round(name: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = [sys.executable, str(WORKER), "round", name, str(seed), str(seconds), str(int(trace))]
    timeout = harness.HARD_CAP_S / harness.ROUNDS[name] + 30
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    if proc.returncode:
        raise RuntimeError(f"round worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["failed"] = {int(i): reason for i, reason in result["failed"].items()}
    return result


def timings(latencies_s: list[float], completed: int) -> tuple[float, float, float]:
    """p50 and p90 latency (ms) and throughput (1/s): completed requests
    per second spent in requests, which leaves out the benchmark's own
    work between requests."""
    latencies_ms = [x * 1000 for x in latencies_s]
    return percentile(latencies_ms, 50), percentile(latencies_ms, 90), completed / sum(latencies_s)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: harness.ROUNDS[name] rounds, each in a fresh process, with
    the set-up probes spread between them.  Every request time is scaled by
    the reference time taken just before it, and the set-up time by the
    median of those taken before the probes; the record keeps the times as
    measured beside them."""
    harness.check_source()
    inputs = workloads.generate(name, seed)
    rounds, probes = [], []
    for _ in range(harness.ROUNDS[name]):
        if not trace:
            probes += [setup_time(name, seed) for _ in range(SETUP_REPEATS // harness.ROUNDS[name])]
        rounds.append(worker_round(name, seed, seconds, trace))

    attempted = sum(len(r["issued"]) for r in rounds)
    failures = [r["failed"][i] for r in rounds for i in sorted(r["failed"])]
    completed = attempted - len(failures)
    raw = [x for r in rounds for x in r["latencies"]]
    latencies = [scaled(x, ref) for r in rounds for x, ref in zip(r["latencies"], r["reference_s"])]
    top = highest_percentile(len(latencies))
    p50, p90, throughput = timings(latencies, completed)
    measured = dict(zip(("latency_p50_ms", "latency_p90_ms", "throughput_rps"), timings(raw, completed)))
    if trace:
        tracer, issued = Tracer(), 0
        for r in rounds:
            tracer.merge(r["spans"], r["counters"], request_offset=issued)
            issued += len(r["issued"])
        metrics = layer_metrics(tracer.spans, tracer.counters, sum(r["passes"] for r in rounds))
        metrics["trace.throughput_rps"] = throughput
        spec = BENCHMARK["per_layer"]
    else:
        measured["setup_s"] = statistics.median(t for t, _ in probes)
        metrics = {
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
            "throughput_rps": throughput,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
            # One reference time varies by up to a third from the next, so the
            # probes share the median of theirs.
            "setup_s": scaled(measured["setup_s"], statistics.median(ref for _, ref in probes)),
        }
        spec = BENCHMARK["end_to_end"]
    missing = {m["name"] for m in spec} - set(metrics)
    if missing:
        raise KeyError(f"metrics not produced: {sorted(missing)}")

    record = {
        "workload": name,
        "why": WHY[name],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "src_lines": harness.src_lines(),
        "rounds": [
            {k: r[k] for k in ("passes", "wall_s", "warmup_s", "peak_rss_mb")} | {"requests": len(r["issued"])}
            for r in rounds
        ],
        "passes": sum(r["passes"] for r in rounds),
        "wall_s": sum(r["wall_s"] for r in rounds),
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:50],
        "samples": len(latencies),
        "highest_percentile": top and {"p": top, "ms": percentile(latencies, top) * 1000},
        "reference_median_s": statistics.median(x for r in rounds for x in r["reference_s"]),
        "measured": measured,
        "setup_probes": [{"s": t, "reference_s": ref} for t, ref in probes],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
        "requests": inputs,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "request"], "spans": tracer.spans}) + "\n"
        )
    return record


def print_record(record: dict) -> None:
    name = record["workload"]
    print(f"{name}: {record['why']}")
    print(
        f"  seed {record['seed']}, {record['passes']:.3g} passes, {record['attempted']} requests "
        f"(one closed-loop client) in {record['wall_s']:.2f} s; src_lines {record['src_lines']}"
    )
    print(
        f"  times are scaled to a reference loop of {NOMINAL_REFERENCE_S * 1000:g} ms; it took "
        f"{record['reference_median_s'] * 1000:.4g} ms (median) in this run. As measured: "
        + ", ".join(f"{k} = {v:.6g}" for k, v in record["measured"].items())
    )
    print(f"  failed_ratio = {record['failed_ratio']:.4g} ({record['failed']}/{record['attempted']})")
    for metric, m in record["metrics"].items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if record["highest_percentile"]:
        top = record["highest_percentile"]
        print(f"  highest percentile with >= 10 samples beyond it: p{top['p']:g} = {top['ms']:.6g} ms")
    for reason in record["failures"][:10]:
        print(f"  FAILED {reason}")


def result_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary, status = {}, 0
    for name in WHY:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode:
                status = 1
            if proc.stdout.strip():
                summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
        plain, traced = summary.get(f"{name}/trace0"), summary.get(f"{name}/trace1")
        if plain and traced:
            untraced_rps = plain["metrics"]["throughput_rps"]["value"]
            traced_rps = traced["metrics"]["trace.throughput_rps"]["value"]
            print(f"  tracing overhead on {name}: {untraced_rps - traced_rps:.4g} 1/s ({untraced_rps:.4g} untraced, {traced_rps:.4g} traced)")
        print()
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(
        json.dumps({"seed": seed, "seconds": seconds, "environment": environment(), "src_lines": harness.src_lines(), "runs": summary}, indent=1)
        + "\n"
    )
    ok = status == 0 and all(r["correct"] for r in summary.values()) and len(summary) == 2 * len(WHY)
    print("all outputs correct" if ok else "FAILED: an output was wrong or a run did not finish")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WHY])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_record(record)
    print(result_line(record))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
