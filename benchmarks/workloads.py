"""Seeded request lists for the three benchmark workloads.

Every list is one *pass*: a fixed multiset of requests whose order and
free parameters come from the seed (for smith-dense, the order only).  Proportions are met exactly by quota
(largest-remainder rounding) instead of independent draws, so two seeds
produce the same mix of work and the percentiles stay steady between
seeds.  Nothing here imports minorbit: the program receives only what
these functions generate.
"""

from __future__ import annotations

import math
import random
from collections import Counter

CLI_TYPES = (
    ["G2", "F4", "E6", "E7", "E8"]
    + [f"A{n}" for n in range(2, 17)]
    + [f"B{n}" for n in range(2, 14)]
    + [f"C{n}" for n in range(2, 21)]
    + [f"D{n}" for n in range(4, 13)]
)

# Zipf rank order of the session-warm hot set: weight 1/k for the k-th type.
HOT_SET = (
    ["G2", "F4", "E6", "E7", "E8"]
    + [f"A{n}" for n in range(3, 13)]
    + [f"B{n}" for n in range(3, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
)
# Hot-set types whose Weyl group has at most 5040 elements (|W(A6)| = 7!).
VERIFY_TYPES = ["G2", "F4", "A3", "A4", "A5", "A6", "B3", "B4", "B5", "C3", "C4", "C5", "D4", "D5"]
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
DECOMP_OPS = ("decomp_minimal", "decomp_subregular", "simple_singularity")
SMITH_OPS = ("smith", "cokernel", "kernel_rank")
BIG_PRIME_RANGE = (10**9, 10**11)
GLN_SIZES = range(6, 17)
SMITH_SIZES = range(6, 25)
SMITH_ENTRY = 9

SESSION_PASS = 400
SESSION_SHARES = {"cohomology": 30, "decomp": 25, "gln": 25, "verify": 20}
SMITH_PER_SHAPE = 3  # matrices per (size, square/rectangular)


def quota(weights: dict, total: int) -> list:
    """Counts proportional to weights that sum to total, expanded to a list."""
    norm = sum(weights.values())
    raw = {k: total * w / norm for k, w in weights.items()}
    counts = {k: int(v) for k, v in raw.items()}
    by_remainder = sorted(weights, key=lambda k: (counts[k] - raw[k], list(weights).index(k)))
    for k in by_remainder[: total - sum(counts.values())]:
        counts[k] += 1
    return [k for k in weights for _ in range(counts[k])]


def zipf(items) -> dict:
    return {item: 1 / rank for rank, item in enumerate(items, start=1)}


def shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24 with these bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2:
        return False
    for b in bases:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def big_primes(rng: random.Random, count: int) -> list[int]:
    """One prime per equal slice of the log-scaled range, so the cost of a
    trial-division primality test is spread the same way for every seed."""
    lo, hi = (math.log(x) for x in BIG_PRIME_RANGE)
    out = []
    for i in range(count):
        p = int(math.exp(lo + (hi - lo) * (i + rng.random()) / count))
        while not is_prime(p):
            p += 1
        out.append(p)
    return out


def partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n in decreasing lexicographic order."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, cap), 0, -1) for rest in partitions(n - first, first)]


def cli_cold(seed: int) -> dict:
    rng = random.Random(f"cli-cold:{seed}")
    types = shuffled(rng, CLI_TYPES)
    kinds = shuffled(
        rng,
        quota(
            {
                ("cohomology", "text"): 40,
                ("cohomology", "json"): 40,
                ("dmatrices", "text"): 10,
                ("dmatrices", "json"): 10,
            },
            len(types),
        ),
    )
    return {
        "requests": [
            {"command": command, "type": t, "format": fmt} for t, (command, fmt) in zip(types, kinds)
        ]
    }


def session_warm(seed: int) -> dict:
    rng = random.Random(f"session-warm:{seed}")
    counts = Counter(quota(SESSION_SHARES, SESSION_PASS))

    requests = [{"op": "cohomology", "type": t} for t in quota(zipf(HOT_SET), counts["cohomology"])]

    # Each decomposition function gets its share of small and of big primes;
    # the big ones are dealt out in order of size so each gets a like spread.
    m = counts["decomp"]
    ops = quota({op: 1 for op in DECOMP_OPS}, m)
    big = sorted(big_primes(rng, m // 10))
    ells = []
    for k, op in enumerate(DECOMP_OPS):
        mine = big[k :: len(DECOMP_OPS)]
        ells += shuffled(rng, quota({p: 1 for p in SMALL_PRIMES}, ops.count(op) - len(mine)) + mine)
    types = shuffled(rng, quota(zipf(HOT_SET), m))
    requests += [{"op": op, "type": t, "ell": ell} for op, t, ell in zip(ops, types, ells)]

    m = counts["gln"]
    sizes = quota({k: 1 for k in GLN_SIZES}, m)
    ells = shuffled(rng, quota({p: 1 for p in SMALL_PRIMES}, m))
    for size, ell in zip(sizes, ells):
        parts = partitions(size)
        k = rng.randrange(len(parts) - 1)
        requests.append({"op": "gln", "n": size, "ell": ell, "lam": list(parts[k]), "mu": list(parts[k + 1])})

    requests += [{"op": "verify", "type": t} for t in quota(zipf(VERIFY_TYPES), counts["verify"])]
    return {"requests": shuffled(rng, requests)}


def _partner(size: int) -> int:
    """The other side of the rectangular shape of a given size, fixed so that
    every seed times the same shapes."""
    return size - 4 if size - 4 >= SMITH_SIZES.start else size + 4


def smith_dense(seed: int) -> dict:
    """The matrices are one fixed pool; the seed orders the requests.

    Smith's transform growth is heavy-tailed: with matrices drawn per seed,
    one pass cost from 0.5 s to 1.0 s (quartile spread 39% of the median
    over 16 seeds), far above any bound on throughput."""
    pool = random.Random("smith-dense:pool")
    matrices = []
    for size in SMITH_SIZES:
        for square in (True, False):
            for _ in range(SMITH_PER_SHAPE):
                other = size if square else _partner(size)
                rows, cols = (size, other) if pool.random() < 0.5 else (other, size)
                matrices.append(
                    [[pool.randint(-SMITH_ENTRY, SMITH_ENTRY) for _ in range(cols)] for _ in range(rows)]
                )
    requests = [{"op": op, "matrix": i} for i in range(len(matrices)) for op in SMITH_OPS]
    return {"requests": shuffled(random.Random(f"smith-dense:{seed}"), requests), "matrices": matrices}


GENERATORS = {"cli-cold": cli_cold, "session-warm": session_warm, "smith-dense": smith_dense}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)
