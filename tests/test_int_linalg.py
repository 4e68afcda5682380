"""Smith form and cokernel tests, checked against independent oracles.

The oracles here never touch the Smith reduction path: determinants come
from cofactor expansion, invariant factors from gcds of k x k minors, and
small quotient groups are enumerated coset by coset.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorbit.errors import DomainError
from minorbit.int_linalg import (
    MILLER_RABIN_BOUND,
    cokernel,
    identity,
    invariant_factors,
    is_prime,
    kernel_rank,
    mat_mul,
    rank,
    smith,
    tensor_f_dimension,
    transpose,
)


def det_oracle(m):
    """Cofactor-expansion determinant, independent of the Smith pipeline."""
    k = len(m)
    if k == 0:
        return 1
    if k == 1:
        return m[0][0]
    total = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_oracle(minor)
    return total


def minor_gcd_oracle(m):
    """Invariant factors via gcds of all k x k minors."""
    rows, cols = len(m), len(m[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = math.gcd(g, det_oracle(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def quotient_order_oracle(m):
    """|Z^rows / column span| by direct coset enumeration.

    Only valid when the quotient is finite; the exponent divides the
    product of the claimed torsion, so reduction mod that product is
    faithful.
    """
    rows = len(m)
    free, torsion = cokernel(m)
    assert free == 0
    modulus = math.prod(torsion) if torsion else 1
    cols = [tuple(m[i][j] % modulus for i in range(rows)) for j in range(len(m[0]))]
    subgroup = {tuple([0] * rows)}
    frontier = list(subgroup)
    while frontier:
        nxt = []
        for v in frontier:
            for c in cols:
                w = tuple((a + b) % modulus for a, b in zip(v, c))
                if w not in subgroup:
                    subgroup.add(w)
                    nxt.append(w)
        frontier = nxt
    return modulus**rows // len(subgroup)


def check_form(m):
    form = smith(m)
    rows, cols = len(m), len(m[0]) if m else 0
    assert abs(det_oracle([list(r) for r in form.left])) == 1
    assert abs(det_oracle([list(r) for r in form.right])) == 1
    product = mat_mul(mat_mul([list(r) for r in form.left], m), [list(r) for r in form.right])
    for i in range(rows):
        for j in range(cols):
            expected = form.diag[i] if i == j and i < len(form.diag) else 0
            assert product[i][j] == expected
    for a, b in zip(form.diag, form.diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return form


def test_identity():
    assert smith(identity(4)).diag == (1, 1, 1, 1)


def test_cartan_d5():
    from minorbit.root_system import TypeLabel, cartan_matrix

    assert smith(cartan_matrix(TypeLabel("D", 5))).diag == (1, 1, 1, 1, 4)


def test_det_twelve():
    rng = random.Random(7)
    found = 0
    while found < 5:
        m = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        if abs(det_oracle(m)) == 12:
            found += 1
            form = check_form(m)
            assert math.prod(d for d in form.diag if d) == 12


def test_empty_shapes():
    assert smith([]).diag == ()
    assert cokernel([]) == (0, ())
    assert kernel_rank([]) == 0
    # one row, no columns: the map from the zero module into Z
    assert cokernel([[]]) == (1, ())
    assert kernel_rank([[]]) == 0


def test_cokernel_zero_map():
    assert cokernel([[0, 0], [0, 0], [0, 0]]) == (3, ())


def test_cokernel_tridiagonal_a():
    # the middle matrix of type A_{n-1} has cokernel Z/n
    for n in range(2, 10):
        m = [[0] * (n - 1) for _ in range(n - 1)]
        for i in range(n - 1):
            m[i][i] = 2
            if i + 1 < n - 1:
                m[i][i + 1] = m[i + 1][i] = 1
        assert cokernel(m) == (0, (n,))


def test_cokernel_f4_middle():
    assert cokernel([[2, 1], [1, 2]]) == (0, (3,))


def test_kernel_rank():
    assert kernel_rank(identity(3)) == 0
    n_4 = [[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]]
    assert kernel_rank(n_4) == 0
    assert kernel_rank([[1, 1], [1, 1]]) == 1


def test_rank_nullity_vs_transpose():
    rng = random.Random(3)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        r = rank(m)
        assert kernel_rank(m) == cols - r
        free, _ = cokernel(transpose(m))
        assert free == cols - r


def test_tensor_f_dimension():
    assert tensor_f_dimension((), 5, 3) == 5
    assert tensor_f_dimension((2, 2), 0, 2) == 2
    assert tensor_f_dimension((4,), 0, 2) == 1
    assert tensor_f_dimension((4,), 0, 3) == 0
    with pytest.raises(DomainError):
        tensor_f_dimension((2,), 0, 4)
    with pytest.raises(DomainError):
        tensor_f_dimension((2,), 0, 1)


def test_is_prime_matches_trial_division():
    limit = 10**5
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    assert [n for n in range(-5, limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_is_prime_large():
    assert is_prime(10**18 + 9)
    assert not is_prime((10**9 + 7) * (10**9 + 9))
    # strong pseudoprimes to the first 9 and the first 12 prime bases
    assert not is_prime(3_825_123_056_546_413_051)
    assert not is_prime(318_665_857_834_031_151_167_461)
    assert is_prime(2**61 - 1) and not is_prime(2**67 - 1)
    # the largest prime below the bound
    assert is_prime(MILLER_RABIN_BOUND - 168)
    with pytest.raises(DomainError):
        is_prime(MILLER_RABIN_BOUND)
    with pytest.raises(DomainError):
        is_prime(10**30)


def test_quotient_orders_500_random():
    rng = random.Random(20250811)
    checked = 0
    while checked < 500:
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        form = check_form(m)
        assert list(invariant_factors(m)) == minor_gcd_oracle(m)
        free, torsion = cokernel(m)
        if free == 0:
            assert quotient_order_oracle(m) == math.prod(torsion) if torsion else 1
        checked += 1


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda r: st.integers(0, 4).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )
)
def test_reconstruction_property(m):
    check_form(m)
    assert list(invariant_factors(m)) == minor_gcd_oracle(m)
