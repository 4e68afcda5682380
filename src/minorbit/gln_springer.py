"""Partition combinatorics behind the nilpotent orbits of GL_n.

Partitions are weakly-decreasing tuples of positive integers, and nothing
else is taken for one.  The module covers the dominance order, the
ell-regular/ell-restricted split, the map sending a simple module label to
its orbit (conjugation), the row-and-column removal rule for degeneration
pairs, and the multiplicity for adjacent orbit pairs, which the two rows
of the one box moved between them decide.
"""

from __future__ import annotations

import re
from itertools import accumulate

from .errors import DomainError, weighed_cache
from .int_linalg import _check_prime

Partition = tuple[int, ...]

# partitions_of refuses an n with more partitions than this (p(45) = 89134
# is admitted, p(46) = 105558 is not): the callers scan all of them.
PARTITION_BUDGET = 100_000

# conjugate, psi and parse_partition refuse to build a partition of more
# parts than this: a conjugate has p_1 parts, and "1^k" expands to k parts.
PART_BUDGET = 1_000_000


def _validate(p: Partition) -> Partition:
    if type(p) is not tuple:
        raise DomainError(f"a partition is a tuple of parts, got a {type(p).__name__}")
    if not {int}.issuperset(map(type, p)) or any(x <= 0 for x in p):
        raise DomainError(f"partition parts must be positive integers: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise DomainError(f"partition parts must be weakly decreasing: {p}")
    return p


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts; exponents allowed, e.g. "2,1^3".
    Anything but a str is refused with DomainError."""
    if type(text) is not str:
        raise DomainError(f"a partition is parsed from a str, got {type(text).__name__}")
    parts: list[int] = []
    for chunk in text.split(","):
        m = re.fullmatch(r"\s*(\d+)\s*(?:\^\s*(\d+))?\s*", chunk)
        if not m:
            raise DomainError(f"cannot parse partition {text!r}")
        try:
            part, count = int(m.group(1)), int(m.group(2) or 1)
        except ValueError:  # over the interpreter's limit on digits in int(str)
            raise DomainError("a part or exponent in a partition has too many digits") from None
        if len(parts) + count > PART_BUDGET:
            raise DomainError(f"the partition has more than {PART_BUDGET} parts, over the part budget")
        parts.extend([part] * count)
    return _validate(tuple(parts))


def format_partition(p: Partition) -> str:
    return ",".join(str(x) for x in p)


def _partition_numbers():
    """p(0), p(1), ... by Euler's pentagonal recurrence,
    p(m) = sum over k >= 1 of (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2)),
    so p(m) takes O(sqrt m) integer steps."""
    p = [1]
    while True:
        yield p[-1]
        m, total, k = len(p), 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            term = p[m - g] + (p[m - g - k] if g + k <= m else 0)
            total += term if k % 2 else -term
            k += 1
        p.append(total)


def _check_int(n) -> None:
    if type(n) is not int:
        raise DomainError(f"partitions of a non-integer {n!r}")


def _weigh_partitions(n: int) -> int:
    """The parts of all partitions of n, a part j occurring sum_{i >= 1} p(n - ij) times.  Refuses an n < 0,
    or with more than PARTITION_BUDGET partitions: p increases, so a huge n stops at the first m past it."""
    if n < 0:
        raise DomainError("partitions of a negative integer")
    p = []
    for m, count in zip(range(n + 1), _partition_numbers()):
        if count > PARTITION_BUDGET:
            raise DomainError(f"p({n}) exceeds the partition budget of {PARTITION_BUDGET} (p({m}) = {count})")
        p.append(count)
    return sum(p[n - i * j] for j in range(1, n + 1) for i in range(1, n // j + 1))


@weighed_cache(_check_int, _weigh_partitions)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in decreasing lexicographic order; refuses, before
    enumerating, an n with more than PARTITION_BUDGET partitions."""

    def gen(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(n, n))


def _conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram: p_i - p_{i+1} parts equal to i.
    Refuses a p_1 over PART_BUDGET, the number of parts it would build."""
    if p and p[0] > PART_BUDGET:
        raise DomainError(f"the conjugate would have {p[0]} parts, over the part budget of {PART_BUDGET}")
    q = p + (0,)
    return tuple(i for i in range(len(p), 0, -1) for _ in range(q[i - 1] - q[i]))


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram of a partition, validated first."""
    return _conjugate(_validate(p))


def dominance_le(mu: Partition, lam: Partition) -> bool:
    """mu <= lam in dominance: partial sums of mu never exceed those of lam."""
    _validate(mu)
    _validate(lam)
    if sum(mu) != sum(lam):
        raise DomainError("dominance compares partitions of the same integer")
    # zip stops at the shorter one's last part, where its sum n settles the rest
    return all(a <= b for a, b in zip(accumulate(mu), accumulate(lam)))


def _regular(p: Partition, ell: int) -> bool:
    return all(a != b for a, b in zip(p, p[ell - 1 :]))


def _restricted(p: Partition, ell: int) -> bool:
    return all(a - b < ell for a, b in zip(p, p[1:] + (0,)))


def is_ell_regular(p: Partition, ell: int) -> bool:
    """No part repeated ell times or more: no ell consecutive parts equal."""
    _validate(p)
    if type(ell) is not int or ell < 2:
        raise DomainError(f"ell must be at least 2 and an int, got {ell!r}")
    return _regular(p, ell)


def is_ell_restricted(p: Partition, ell: int) -> bool:
    """Conjugate is ell-regular: every step down p_i - p_{i+1} (a 0 read
    after the last part) is below ell, by the rule in ``conjugate``."""
    _validate(p)
    if type(ell) is not int or ell < 2:
        raise DomainError(f"ell must be at least 2 and an int, got {ell!r}")
    return _restricted(p, ell)


def springer_image(n: int, ell: int) -> tuple[Partition, ...]:
    """Orbits hit by simple modules mod ell: the ell-restricted partitions."""
    if type(n) is not int or n < 1:
        raise DomainError(f"springer_image needs an int n >= 1, got {n!r}")
    _check_prime(ell)
    return tuple(p for p in partitions_of(n) if _restricted(p, ell))


def psi(mu: Partition, ell: int) -> Partition:
    """Orbit attached to the simple module labelled by an ell-regular mu."""
    if not is_ell_regular(mu, ell):
        raise DomainError(f"{mu} is not {ell}-regular, no simple module attached")
    return _conjugate(mu)


def row_column_reduce(lam: Partition, mu: Partition) -> tuple[Partition, Partition]:
    """Erase common leading rows and columns of a degeneration pair.

    Rows with lam_i = mu_i are removed from the top, then columns with
    equal heights from the left.  Neither rule then applies again: the
    first rows differ (mu_1 < lam_1), the s columns removed leave boxes on
    both sides, so both first rows stay longer than s and still differ,
    and column s + 1 would have gone had its heights been equal.
    Idempotent; the singularity of the orbit closure pair is unchanged.
    """
    if sum(_validate(lam)) != sum(_validate(mu)):
        raise DomainError("pair must partition the same integer")
    if lam == mu:
        raise DomainError("pair must be a strict degeneration")
    if not dominance_le(mu, lam):
        raise DomainError("reduction expects mu <= lam in dominance")
    r = 0
    while lam[r] == mu[r]:  # of one sum and unequal, they differ before either ends
        r += 1
    lam, mu = lam[r:], mu[r:]
    s = _common_columns(lam, mu)
    return tuple(x - s for x in lam if x > s), tuple(x - s for x in mu if x > s)


def _common_columns(lam: Partition, mu: Partition) -> int:
    """How many leading columns of the two diagrams have equal heights.

    Column s + 1 has as many boxes as there are parts above s, a count that
    changes only at a part, so the heights are compared once per distinct
    part: O(parts), never O(boxes) as a conjugate would be.
    """
    i, j, s = len(lam), len(mu), 0
    for v in sorted(set(lam + mu)):
        while i and lam[i - 1] <= s:
            i -= 1
        while j and mu[j - 1] <= s:
            j -= 1
        if i != j:
            break
        s = v
    return s


def _moved_box(lam: Partition, mu: Partition) -> tuple[Partition, int, int] | None:
    """(upper, i, j) when one partition covers the other, else None.

    Brylawski's rule (Discrete Math. 6, 1973): the upper partition covers
    the lower iff they differ in exactly two rows i < j, by one box each,
    and either j = i + 1 or upper_i = upper_j + 2 (upper padded with zeros
    to the longer length).  O(n), so unlike partitions_of it needs no budget.
    """
    if sum(_validate(lam)) != sum(_validate(mu)):
        raise DomainError("adjacency compares partitions of the same integer")
    k = max(len(lam), len(mu))
    lam, mu = lam + (0,) * (k - len(lam)), mu + (0,) * (k - len(mu))
    rows = [r for r in range(k) if lam[r] != mu[r]]
    if len(rows) != 2:
        return None
    i, j = rows
    if lam[i] < mu[i]:
        lam, mu = mu, lam
    return (lam, i, j) if lam[i] - mu[i] == 1 and (j == i + 1 or lam[i] == lam[j] + 2) else None


def adjacent_in_dominance(lam: Partition, mu: Partition) -> bool:
    """True iff the two partitions are comparable with nothing in between."""
    return _moved_box(lam, mu) is not None


def minimal_degeneration(lam: Partition, mu: Partition) -> tuple[str, int]:
    """Classify an adjacent pair by what row and column removal leaves.

    Every adjacent pair reduces to one of two extremes on m boxes:
    ((m), (m-1,1)), the type A_{m-1} surface singularity ("simple_A"), or
    ((2,1^{m-2}), (1^m)), the minimal orbit closure in gl_m ("minimal_a").
    The rows i < j of the moved box decide: the rows above i go, and so do
    the first upper_j columns.  That leaves (upper_i - upper_j) when
    j = i + 1, else the rows between i and j all equal upper_j + 1 and
    leave (2, 1^(j-i-1)).  At m = 2 the tie goes to "simple_A".
    """
    if (found := _moved_box(lam, mu)) is None:
        raise DomainError(f"({lam}, {mu}) is not an adjacent pair")
    upper, i, j = found
    if j == i + 1:
        return "simple_A", upper[i] - upper[j]
    return "minimal_a", j - i + 1


def decomp_adjacent(lam: Partition, mu: Partition, ell: int) -> int:
    """Multiplicity for an adjacent orbit pair: 1 iff ell divides the box
    count of the reduced extreme pair."""
    _check_prime(ell)
    _, m = minimal_degeneration(lam, mu)
    return 1 if m % ell == 0 else 0
