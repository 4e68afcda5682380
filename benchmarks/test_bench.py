"""Self-tests of the benchmark harness: python3 -m pytest benchmarks"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import harness
import run
import workloads
from certify import certify_smith
from spans import Tracer, layer_metrics


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_request_list_is_a_function_of_the_seed(name):
    first = json.dumps(workloads.generate(name, 7), sort_keys=True).encode()
    assert first == json.dumps(workloads.generate(name, 7), sort_keys=True).encode()
    assert first != json.dumps(workloads.generate(name, 8), sort_keys=True).encode()


@pytest.mark.parametrize(
    "samples, expected", [(19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (9999, 99), (10000, 99.9)]
)
def test_highest_percentile_keeps_ten_samples_beyond_it(samples, expected):
    assert run.highest_percentile(samples) == expected


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert [run.percentile(values, p) for p in (1, 50, 90, 99, 100)] == [1, 50, 90, 99, 100]


def test_timings_are_those_of_the_time_spent_in_requests():
    p50, p90, throughput = run.timings([0.001] * 9 + [0.011], 9)
    assert (p50, p90) == (1.0, 1.0) and throughput == pytest.approx(450)


def test_a_time_is_scaled_by_the_reference_time_taken_before_it():
    assert run.scaled(0.2, 2 * run.NOMINAL_REFERENCE_S) == pytest.approx(0.1)
    loop = harness.run_loop(Idle(), 0, 1, min_requests=0)
    assert len(loop["reference_s"]) == len(loop["latencies"]) and min(loop["reference_s"]) > 0


def test_quota_meets_shares_exactly():
    picks = workloads.quota({"a": 30, "b": 25, "c": 25, "d": 20}, 400)
    assert [picks.count(k) for k in "abcd"] == [120, 100, 100, 80]
    assert len(workloads.quota(workloads.zipf(workloads.HOT_SET), 101)) == 101


def test_big_primes_are_prime_and_in_range():
    import random

    primes = workloads.big_primes(random.Random(0), 10)
    lo, hi = workloads.BIG_PRIME_RANGE
    assert all(lo <= p < hi and workloads.is_prime(p) for p in primes)
    assert all(p % d for p in primes for d in range(2, 2000))


@pytest.fixture(scope="module")
def mb():
    return harness.load_minorbit()


class Mutating(harness.SessionWarm):
    """Returns the program's output with one number changed."""

    def call(self, req, timeout):
        out = super().call(req, timeout)
        out["H"][0]["rank"] += 1
        return out


def test_mutated_session_output_is_counted_as_failed(mb):
    inputs = {"requests": [{"op": "cohomology", "type": t} for t in ("G2", "A3", "B3")]}
    assert harness.run_loop(harness.SessionWarm(inputs, mb), 0, 5, min_requests=0)["failed"] == {}
    loop = harness.run_loop(Mutating(inputs, mb), 0, 5, min_requests=0)
    assert sorted(loop["failed"]) == [0, 1, 2]


def test_mutated_cli_output_is_counted_as_failed():
    workload = harness.CliCold({"requests": [{"command": "cohomology", "type": "G2", "format": "text"}]})
    req = workload.requests[0]
    argv = [sys.executable, "-m", "minorbit.cli", *harness.cli_args(req)]
    stdout = subprocess.run(argv, env=harness.child_env(), capture_output=True, check=True).stdout
    assert workload.check(req, harness.sha256(stdout)) is None
    assert workload.check(req, harness.sha256(stdout.replace(b"Z/3", b"Z/9", 1))) is not None


def test_mutated_smith_result_fails_certification(mb):
    matrix = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    sf = mb.int_linalg.smith(matrix)
    assert sf.diag == (2, 6, 12)
    assert certify_smith(matrix, sf.left, sf.diag, sf.right) is None
    assert certify_smith(matrix, sf.left, (2, 6, 24), sf.right) is not None

    workload = harness.SmithDense({"requests": [], "matrices": [matrix]}, mb)
    workload.first[(0, "kernel_rank")] = 1
    assert workload.certify() == {(0, "kernel_rank"): "kernel_rank 1 disagrees with the certified diagonal (2, 6, 12)"}


def test_non_unimodular_transform_fails_certification():
    # U * A * V = diag(1, 2) holds, but det U = 2, so diag is not A's Smith form
    assert "det U" in certify_smith([[1, 0], [0, 1]], [[1, 0], [0, 2]], (1, 2), [[1, 0], [0, 1]])


class Sleepy:
    """A workload whose first request hangs."""

    requests = [{"op": "sleep", "s": 5}, {"op": "sleep", "s": 0}]

    def call(self, req, timeout):
        return harness.in_process(lambda: time.sleep(req["s"]), timeout)

    def check(self, req, out):
        return None


def test_timed_out_request_fails_and_the_run_goes_on():
    start = time.perf_counter()
    loop = harness.run_loop(Sleepy(), 0, 0.2, min_requests=0)
    assert time.perf_counter() - start < 2
    assert loop["issued"] == [0, 1]
    assert list(loop["failed"]) == [0] and "timed out" in loop["failed"][0]


class Idle(Sleepy):
    requests = [{"op": "sleep", "s": 0}] * 3


def test_a_loop_ends_after_a_whole_pass():
    loop = harness.run_loop(Idle(), 0, 1, min_requests=0)
    assert loop["issued"] == [0, 1, 2] and loop["passes"] == 1
    loop = harness.run_loop(Idle(), 0, 1, min_requests=7)
    assert loop["issued"] == [0, 1, 2] * 3 and loop["passes"] == 3


def test_traced_and_untraced_runs_issue_identical_requests(mb):
    inputs = {"requests": workloads.generate("session-warm", 3)["requests"][:40]}
    plain = harness.run_loop(harness.SessionWarm(inputs, mb), 0, 10, min_requests=0)
    build = mb.root_system.build
    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.run_loop(harness.SessionWarm(inputs, mb), 0, 10, tracer, min_requests=0)
    finally:
        tracer.uninstall()
    assert plain["issued"] == traced["issued"] == list(range(40))
    assert plain["failed"] == traced["failed"] == {}
    assert {span[4] for span in tracer.spans} <= set(range(40))
    assert mb.root_system.build is build


def test_traced_cli_worker_matches_the_cli():
    inputs = {"requests": [{"command": c, "type": "B3", "format": f} for c in ("cohomology", "dmatrices") for f in ("text", "json")]}
    plain = harness.run_loop(harness.CliCold(inputs), 0, 30, min_requests=0)
    tracer = Tracer()
    traced = harness.run_loop(harness.CliCold(inputs, tracer), 0, 30, min_requests=0)
    assert plain["issued"] == traced["issued"] and plain["failed"] == traced["failed"] == {}
    metrics = layer_metrics(tracer.spans, tracer.counters, traced["passes"])
    assert metrics["cli.startup_ms"] > 0 and metrics["long_root_poset.d_matrix_ms"] > 0
    assert metrics["root_system.roots"] == 4 * 18


def test_every_listed_per_layer_metric_is_produced():
    produced = set(layer_metrics([], Tracer().counters, 1)) | {"trace.throughput_rps"}
    assert {m["name"] for m in run.BENCHMARK["per_layer"]} == produced


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, "benchmarks/run.py", "--workload", "smith-dense", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
