"""Issuing requests to minorbit, timing them and checking their outputs.

One closed-loop client: the next request goes out only when the previous
one has returned.  A round repeats whole passes of the seeded request
list until its share of the run's seconds has gone by.  It stops mid-pass
only at its hard cap, so that a run of timeouts cannot keep it from
reporting within its time limit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import workloads
from certify import certify_smith
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
CLI_WORKER = HERE / "cli_worker.py"

HARD_CAP_S = 100.0  # per run, split between its rounds
TIMEOUT_S = {"cli-cold": 30.0, "session-warm": 10.0, "smith-dense": 10.0}
MIN_REQUESTS = 100  # per run, so that p90 has at least ten samples beyond it
# Rounds per run, each in a fresh process.  Each cli-cold request is a
# process of its own already, so its run is one round.
ROUNDS = {"cli-cold": 1, "session-warm": 4, "smith-dense": 4}
REFERENCE_LOOP = 20_000  # iterations of the reference loop, about 1.5 ms
CALIBRATE_EVERY_S = 0.05


class RequestTimeout(BaseException):
    """Raised by the alarm inside an in-process request that ran too long.

    A BaseException, so that no handler in the program can swallow it."""


class SourceMissing(RuntimeError):
    pass


def check_source() -> None:
    if not (SRC / "minorbit" / "__init__.py").is_file():
        raise SourceMissing(f"no minorbit package under {SRC}")


def load_minorbit():
    """Import minorbit from this checkout's src/ and return the package."""
    check_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import minorbit
    from minorbit import (  # noqa: F401  (loads every module the tracer patches)
        cli,
        decomposition,
        gln_springer,
        int_linalg,
        long_root_poset,
        orbit_cohomology,
        root_system,
        weyl_oracle,
    )

    if Path(minorbit.__file__).resolve().parent != (SRC / "minorbit").resolve():
        raise SourceMissing(f"minorbit was imported from {minorbit.__file__}, not from {SRC}")
    return minorbit


def src_lines() -> int:
    """Non-blank lines of src/minorbit, the size measure of ROADMAP aim 2."""
    return sum(
        1 for path in sorted((SRC / "minorbit").rglob("*.py")) for line in path.read_text().splitlines() if line.strip()
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def sha256(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED / f"{name}.json").read_text())


# ---------------------------------------------------------------- cli-cold


def cli_args(req: dict) -> list[str]:
    return [req["command"], "--type", req["type"], "--format", req["format"]]


class CliCold:
    """Each request is a fresh `python -m minorbit.cli` process."""

    def __init__(self, inputs: dict, tracer=None):
        self.requests = inputs["requests"]
        self.tracer = tracer
        self.env = child_env()
        self.expected = {c: load_expected(c) for c in ("cohomology", "dmatrices")}

    def call(self, req: dict, timeout: float):
        if self.tracer is None:
            argv = [sys.executable, "-m", "minorbit.cli", *cli_args(req)]
        else:
            argv = [sys.executable, str(CLI_WORKER), str(time.monotonic_ns()), json.dumps(req)]
        proc = subprocess.run(argv, env=self.env, capture_output=True, timeout=timeout)
        if proc.returncode:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
        if self.tracer is None:
            return sha256(proc.stdout)
        report = json.loads(proc.stdout.decode().splitlines()[-1])
        self.tracer.merge(report["spans"], report["counters"])
        if report["code"]:
            raise RuntimeError(f"minorbit.cli.main returned {report['code']}")
        return report["sha256"]

    def check(self, req: dict, digest: str) -> str | None:
        want = self.expected[req["command"]][req["type"]][f"{req['format']}_sha256"]
        return None if digest == want else f"stdout digest {digest[:12]} != expected {want[:12]}"


# ------------------------------------------------------------ session-warm


def session_call(mb, req: dict):
    """One library request; returns the program's raw result."""
    op = req["op"]
    if op == "gln":
        g = mb.gln_springer
        lam, mu = tuple(req["lam"]), tuple(req["mu"])
        image = g.springer_image(req["n"], req["ell"])
        adjacent = g.adjacent_in_dominance(lam, mu)
        return image, adjacent, g.decomp_adjacent(lam, mu, req["ell"]) if adjacent else None
    rs_mod = mb.root_system
    label = rs_mod.parse_type(req["type"])
    if op == "cohomology":
        oc = mb.orbit_cohomology.minimal_orbit_cohomology(rs_mod.build(label))
        return mb.orbit_cohomology.to_json_dict(oc)
    if op == "verify":
        rs = rs_mod.build(label)
        return [mb.weyl_oracle.verify_level_length(rs), mb.weyl_oracle.verify_reflection_length(rs)]
    if op == "simple_singularity":
        data = mb.decomposition.simple_singularity(label)
        return data, mb.int_linalg.tensor_f_dimension(data.quotient, 0, req["ell"])
    return getattr(mb.decomposition, op)(label, req["ell"])


def session_output(req: dict, raw):
    """The JSON form in which expected outputs are stored."""
    op = req["op"]
    if op == "gln":
        image, adjacent, decomp = raw
        return {"image": sha256(canonical([list(p) for p in image])), "adjacent": adjacent, "decomp": decomp}
    if op == "simple_singularity":
        data, dim = raw
        return {
            "gamma_hat": str(data.gamma_hat),
            "symmetry_group": data.symmetry_group,
            "quotient": list(data.quotient),
            "dim": dim,
        }
    return raw


def ell_key(ell: int) -> str:
    # Above every invariant factor in the hot set, each answer is the same
    # for every prime; make_expected.py checks this on two big primes.
    return str(ell) if ell in workloads.SMALL_PRIMES else "big"


def session_expected(expected: dict, req: dict):
    op = req["op"]
    if op == "cohomology":
        return expected["cohomology"][req["type"]]["value"]
    if op == "verify":
        return expected["verify"][req["type"]]
    if op == "gln":
        gln = expected["gln"]
        pair = gln["adjacent"][f"{','.join(map(str, req['lam']))}|{','.join(map(str, req['mu']))}"]
        return {
            "image": gln["springer_image"][f"{req['n']}:{req['ell']}"],
            "adjacent": pair is not None,
            "decomp": None if pair is None else pair[str(req["ell"])],
        }
    return expected["decomposition"][op][f"{req['type']}:{ell_key(req['ell'])}"]


class SessionWarm:
    """A long-lived library session; warm() fills its caches before the
    first timed request."""

    def __init__(self, inputs: dict, mb):
        self.requests = inputs["requests"]
        self.mb = mb
        self.expected = {k: load_expected(k) for k in ("cohomology", "decomposition", "gln", "verify")}

    def warm(self) -> None:
        """First touch of every type in the stream, so that build, levels
        and d_matrix are cached before the first timed request."""
        rs_mod = self.mb.root_system
        for t in sorted({r["type"] for r in self.requests if "type" in r}):
            self.mb.orbit_cohomology.minimal_orbit_cohomology(rs_mod.build(rs_mod.parse_type(t)))

    def call(self, req: dict, timeout: float):
        return in_process(lambda: session_call(self.mb, req), timeout)

    def check(self, req: dict, raw) -> str | None:
        out = session_output(req, raw)
        want = session_expected(self.expected, req)
        return None if out == want else f"got {canonical(out)[:80]}, expected {canonical(want)[:80]}"


# ------------------------------------------------------------- smith-dense


class SmithDense:
    """In-process smith / cokernel / kernel_rank on dense integer matrices.

    The first output of each (matrix, op) is kept and later ones must equal
    it; after the run, every kept Smith form is certified and the cokernel
    and kernel rank outputs are compared with its diagonal."""

    def __init__(self, inputs: dict, mb):
        self.requests = inputs["requests"]
        self.matrices = inputs["matrices"]
        self.mb = mb
        self.first: dict[tuple, object] = {}

    def call(self, req: dict, timeout: float):
        fn = getattr(self.mb.int_linalg, req["op"])
        matrix = self.matrices[req["matrix"]]
        return in_process(lambda: fn(matrix), timeout)

    def check(self, req: dict, out) -> str | None:
        key = (req["matrix"], req["op"])
        first = self.first.setdefault(key, out)
        return None if out == first else "output differs from an earlier call on the same matrix"

    def certify(self) -> dict[tuple, str]:
        """Certify the kept outputs, outside any timing; returns the failing
        (matrix, op) keys with their reasons."""
        failing = {}
        for index in sorted({i for i, _ in self.first}):
            matrix = self.matrices[index]
            sf = self.first.get((index, "smith")) or self.mb.int_linalg.smith(matrix)
            reason = certify_smith(matrix, sf.left, sf.diag, sf.right)
            if reason:
                failing.update({(index, op): reason for op in workloads.SMITH_OPS})
                continue
            nonzero = [d for d in sf.diag if d]
            derived = {
                "cokernel": (len(matrix) - len(nonzero), tuple(d for d in nonzero if d > 1)),
                "kernel_rank": len(matrix[0]) - len(nonzero),
            }
            for op, want in derived.items():
                got = self.first.get((index, op), want)
                if got != want:
                    failing[(index, op)] = f"{op} {got} disagrees with the certified diagonal {sf.diag}"
        return failing


# -------------------------------------------------------------- request loop


def reference_time() -> float:
    """Wall time of a fixed pure-Python integer loop: how fast the machine
    runs Python code at this moment."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def _alarm(signum, frame):
    raise RequestTimeout


def in_process(fn, timeout: float):
    """Run fn under a wall-clock alarm; RequestTimeout if it runs too long."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_loop(
    workload, seconds: float, timeout: float, tracer=None, min_requests: int = MIN_REQUESTS, hard_cap: float = HARD_CAP_S
) -> dict:
    """Closed loop over workload.requests, whole pass after whole pass,
    until `seconds` have gone by and at least `min_requests` requests are
    done, or mid-pass when `hard_cap` seconds have gone by.  Between
    requests, once CALIBRATE_EVERY_S has gone by since it last did, it
    times the reference loop.

    Returns the issued request indices, per-request latencies and the
    reference time last taken before each request, the failed requests
    (index into issued -> reason), the number of passes made (a fraction
    when the hard cap ended the loop) and the wall time.  Each request is
    checked after its clock has stopped."""
    issued: list[int] = []
    latencies: list[float] = []
    reference: list[float] = []
    failed: dict[int, str] = {}
    size = len(workload.requests)
    start = calibrated = time.perf_counter()
    current = reference_time()
    while True:
        elapsed = time.perf_counter() - start
        remaining = hard_cap - elapsed
        whole = len(issued) % size == 0
        if remaining <= 0 or (whole and elapsed >= seconds and len(issued) >= max(size, min_requests)):
            break
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            current, calibrated = reference_time(), time.perf_counter()
        reference.append(current)
        index = len(issued) % size
        req = workload.requests[index]
        if tracer is not None:
            tracer.request = len(issued)
        issued.append(index)
        t0 = time.perf_counter()
        try:
            out = workload.call(req, min(timeout, remaining))
            error = None
        except (RequestTimeout, subprocess.TimeoutExpired):
            error = f"timed out after {min(timeout, remaining):.1f} s"
        except Exception as exc:  # a failing request is counted, and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if error is None:
            error = workload.check(req, out)
        if error is not None:
            failed[len(issued) - 1] = f"request {index} {canonical(req)[:120]}: {error}"
    return {
        "issued": issued,
        "latencies": latencies,
        "failed": failed,
        "reference_s": reference,
        "passes": len(issued) / size,
        "wall_s": time.perf_counter() - start,
    }


def make_workload(name: str, inputs: dict, tracer=None):
    """The object whose call() issues one request of the named workload."""
    if name == "cli-cold":
        check_source()
        return CliCold(inputs, tracer)
    mb = load_minorbit()
    if name == "smith-dense":
        return SmithDense(inputs, mb)
    return SessionWarm(inputs, mb)


def run_round(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One round of a workload in this process, outputs checked: its share
    of the run's seconds, requests and hard cap.

    session-warm fills its caches first (warmup_s, untimed).  smith-dense
    certifies its results after the loop.  Failed requests are keyed by
    their position in `issued`."""
    inputs = workloads.generate(name, seed)
    tracer = Tracer() if trace else None
    workload = make_workload(name, inputs, tracer)
    start = time.perf_counter()
    if name == "session-warm":
        workload.warm()
    warmup_s = time.perf_counter() - start
    if tracer is not None and name != "cli-cold":
        tracer.install()
    rounds = ROUNDS[name]
    loop = run_loop(workload, seconds / rounds, TIMEOUT_S[name], tracer, math.ceil(MIN_REQUESTS / rounds), HARD_CAP_S / rounds)
    if tracer is not None:
        tracer.uninstall()
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    loop["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    if name == "smith-dense":
        failing = workload.certify()
        for i, index in enumerate(loop["issued"]):
            req = inputs["requests"][index]
            reason = failing.get((req["matrix"], req["op"]))
            if reason and i not in loop["failed"]:
                loop["failed"][i] = f"request {index} {canonical(req)}: {reason}"
    loop["warmup_s"] = warmup_s
    loop["spans"] = tracer.spans if tracer else []
    loop["counters"] = dict(tracer.counters) if tracer else {}
    return loop
