"""Smith form and cokernel tests, checked against independent oracles.

The oracles here never touch the Smith reduction path: determinants come
from cofactor expansion (fraction-free elimination for large transforms),
invariant factors from gcds of k x k minors or from sympy, and small
quotient groups are enumerated coset by coset.
"""

import importlib.util
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minorbit import cli, int_linalg
from minorbit.decomposition import characters, decomp_minimal, decomp_subregular, simple_singularity
from minorbit.errors import DomainError
from minorbit.gln_springer import springer_image
from minorbit.int_linalg import (
    MILLER_RABIN_BOUND,
    cokernel,
    identity,
    invariant_factors,
    is_prime,
    kernel_rank,
    rank,
    smith,
    tensor_f_dimension,
)
from minorbit.long_root_poset import d_matrix, dimension, levels
from minorbit.orbit_cohomology import minimal_orbit_cohomology
from minorbit.root_system import build, parse_type


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    """Schoolbook product; the shapes must agree."""
    assert all(len(row) == len(b) for row in a)
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


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


def bareiss_det(m):
    """Fraction-free determinant, for transforms too large for cofactor expansion."""
    a = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(len(a)):
        i0 = next((i for i in range(k, len(a)) if a[i][k]), None)
        if i0 is None:
            return 0
        if i0 != k:
            a[k], a[i0], sign = a[i0], a[k], -sign
        for i in range(k + 1, len(a)):
            a[i] = [(a[k][k] * x - a[i][k] * y) // prev for x, y in zip(a[i], a[k])]
        prev = a[k][k]
    return sign * prev


def check_form(m, det=det_oracle):
    form = smith(m)
    rows, cols = len(m), len(m[0]) if m else 0
    assert abs(det([list(r) for r in form.left])) == 1
    assert abs(det([list(r) for r in form.right])) == 1
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
    # a negative free rank used to cancel torsion: ((2,), -1, 2) gave 0
    for free in [-1, 1.0, True, None]:
        with pytest.raises(DomainError, match="free rank"):
            tensor_f_dimension((2,), free, 2)
    # "ab" and None once raised a bare TypeError, and (2.0,) counted as Z/2
    for torsion in ["ab", None, 5, (2.0,), (True,), (2, None)]:
        with pytest.raises(DomainError, match="torsion must be a tuple or list of ints"):
            tensor_f_dimension(torsion, 0, 2)


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


@pytest.mark.parametrize("ell", [2.0, 3.0, True, False, "2", None, Fraction(2)])
def test_primality_refuses_a_non_int(ell):
    # 2.0 == 2 and True == 1 were once answered as those, so springer_image(3, 2.0) gave partitions
    calls = (
        lambda: is_prime(ell),
        lambda: springer_image(3, ell),
        lambda: tensor_f_dimension((2,), 1, ell),
        lambda: characters("S3", ell),
    )
    for call in calls:
        with pytest.raises(DomainError, match=f"^primality of a non-integer {re.escape(repr(ell))}$"):
            call()


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


@settings(max_examples=300, deadline=None)
@given(st.integers(-(10**40), 10**40) | st.integers(-12, 12), st.integers(-(10**40), 10**40) | st.integers(-12, 12))
@example(0, 0)
@example(0, -5)
@example(-6, 0)
@example(-4, 6)
def test_xgcd_bezout(a, b):
    g, s, c = int_linalg._xgcd(a, b)
    assert s * a + c * b == g == math.gcd(a, b)


# Each matrix drives one branch of a Hermite step in ``smith``, with its
# count of extended-gcd pairs.  The column reaches the pivot 1 through 2 by
# two row pairs, each clearing the entering row to zero; the row is that
# column after one transposition.  With [0, 7, 0] added, the transposed pass
# takes a pair for the 3 under the pivot 6 and one in the 7s' column, and
# the divisibility chain a third, for diag(3, 7).  A negative pivot takes
# the pair (-4, 6); a zero column is dropped without one.
# ``invariant_factors`` decides each in closed form but the row with [0, 7, 0].
STEP_CASES = {
    "column": ([[6], [10], [15]], 2),
    "row": ([[6, 10, 15]], 2),
    "row-refill": ([[6, 10, 15], [0, 7, 0]], 3),
    "negative-pivot": ([[-4, 6], [6, 9]], 2),
    "zero-leading-column": ([[0, 4, 6], [0, 10, 15]], 2),
}


@pytest.mark.parametrize("name", sorted(STEP_CASES))
def test_one_pass_step_branches(name, monkeypatch):
    m, pairs = STEP_CASES[name]
    calls = []
    xgcd = int_linalg._xgcd
    monkeypatch.setattr(int_linalg, "_xgcd", lambda a, b: calls.append((a, b)) or xgcd(a, b))
    form = check_form(m)
    assert len(calls) == pairs
    nonzero = tuple(d for d in form.diag if d)
    assert list(nonzero) == minor_gcd_oracle(m)
    assert invariant_factors(m) == nonzero
    assert cokernel(m) == (len(m) - len(nonzero), tuple(d for d in nonzero if d > 1))
    assert kernel_rank(m) == len(m[0]) - len(nonzero)


@st.composite
def unit_heavy_matrices(draw):
    """Up to 5x5, mostly entries 0 and +-1, with some rows and columns zeroed."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.sampled_from((0, 0, 1, -1)) | st.integers(-4, 4)
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)] for i, row in enumerate(m)]


@settings(max_examples=300, deadline=None)
@given(unit_heavy_matrices())
@example([[0, 1, 0], [0, 0, 0], [1, 0, 1]])
@example([[2, 1, 0, 0], [1, 2, 1, 1], [0, 1, 2, 0], [0, 1, 0, 2]])
def test_unit_pivots_keep_the_invariant_factors(m):
    assert list(invariant_factors(m)) == minor_gcd_oracle(m)
    units, block = int_linalg._unit_pivots(sparse_rows(m), len(m[0]) if m else 0)
    bound = math.prod(math.isqrt(sum(x * x for x in row)) + 1 for row in m)  # above every minor
    assert all(abs(x) < bound for row in block for x in row)
    if units:  # the leftover block has no unit entry and no zero row or column
        assert not any(abs(x) == 1 for row in block for x in row)
        assert all(any(row) for row in block) and all(any(col) for col in zip(*block))
    assert units + rank(block) == rank(m)
    assert (units, block) == unit_pivots_by_scan(sparse_rows(m), len(m[0]) if m else 0)  # the same pivots


def unit_pivots_by_scan(rows, width):
    """The reference for ``_unit_pivots``: the same pivot rule, with a scan that makes a
    (fill, i, j) for every unit entry each time no lone unit is stacked, and runs once more
    to find none left.  The kernel's scan skips rows and stops early, so equal counts and
    blocks on every input show that it picks the same pivots."""
    rows = [dict(row) for row in rows]
    cols = [set() for _ in range(width)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    alone = [(*col, j) for j, col in enumerate(cols) if len(col) == 1][::-1]
    alone += [(i, *row) for i, row in enumerate(rows) if len(row) == 1][::-1]
    units = 0
    while True:
        if alone:
            i, j = alone.pop()
            if rows[i].get(j) not in (1, -1) or (len(rows[i]) > 1 and len(cols[j]) > 1):
                continue
        else:
            fills = (
                ((len(row) - 1) * (len(cols[j]) - 1), i, j)
                for i, row in enumerate(rows)
                for j, x in row.items()
                if x in (1, -1)
            )
            least = min(fills, default=None)
            if least is None:
                break
            _, i, j = least
        units += 1
        pivot, rows[i] = rows[i], {}
        p = pivot.pop(j)
        for c in pivot:
            cols[c].discard(i)
        below = cols[j]
        below.discard(i)
        for k in below:
            row = rows[k]
            q = row.pop(j) * p
            for c, y in pivot.items():
                z = row.get(c, 0) - q * y
                if z:
                    row[c] = z
                    cols[c].add(k)
                else:
                    del row[c]
                    cols[c].discard(k)
            if len(row) == 1:
                alone.append((k, *row))
        below.clear()
        for c in pivot:
            if len(cols[c]) == 1:
                alone.append((*cols[c], c))
    left = [c for c, members in enumerate(cols) if members]
    return units, [[row.get(c, 0) for c in left] for row in rows if row]


def benchmark_workloads():
    """benchmarks/workloads.py, which imports nothing of minorbit: the session-warm hot set
    and the smith-dense pool."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = benchmark_workloads()


def sparse_rows(m):
    """The nonzero entries of each row, as ``invariant_factors`` passes them."""
    return [list(itertools.compress(enumerate(row), row)) for row in m]


def recorded_matrices(names):
    """(recorded columns, width) of each matrix the cohomology factors, over the given types."""
    for name in names:
        rs = build(parse_type(name))
        for i in range(1, rs.h_dual):
            yield rs._columns[i], len(levels(rs)[i])


def tied_matrices(count, seed):
    """Sparse matrices of entries +-1 and +-2 up to 12 x 12, then cycles of units (every row
    and column of two entries, so every fill 1), each row's entries in a shuffled order:
    fills tie often, and the least (i, j) decides whatever the order of a row's dict."""
    rng = random.Random(seed)
    shapes = [(rng.randint(1, 12), rng.randint(1, 12), rng.choice((0.2, 0.35, 0.5))) for _ in range(count)]
    entry = (1, -1, 2, -2)
    sparse = [[[(j, rng.choice(entry)) for j in range(c) if rng.random() < p] for _ in range(r)] for r, c, p in shapes]
    cycles = [[[(i, rng.choice((1, -1))), ((i + 1) % n, rng.choice((1, -1)))] for i in range(n)] for n in range(3, 13)]
    for rows in sparse + cycles:
        for row in rows:
            rng.shuffle(row)
        yield rows, max((j + 1 for row in rows for j, _ in row), default=0)


PIVOT_SETS = {
    "hot-set": lambda: recorded_matrices(WORKLOADS.HOT_SET),
    "smith-dense": lambda: ((sparse_rows(m), len(m[0])) for m in WORKLOADS.smith_dense(0)["matrices"]),
    "ties": lambda: tied_matrices(400, 33),
}


@pytest.mark.parametrize("name", sorted(PIVOT_SETS))
def test_the_same_pivots_as_the_full_scan(name):
    compared = 0
    for rows, width in PIVOT_SETS[name]():
        assert int_linalg._unit_pivots(rows, width) == unit_pivots_by_scan(rows, width)
        compared += 1
    assert compared == {"hot-set": 275, "smith-dense": 114, "ties": 410}[name]


def test_no_block_takes_no_other_step(monkeypatch):
    # Of the hot set's 275 matrices, 175 leave no block after the unit pivots: their
    # invariant factors are the units alone, with no Hermite pass, diagonal test or
    # divisibility chain.  92 leave a diagonal block and 8 a 2x2 one; none takes a
    # Hermite pass.
    calls = []
    for helper in ("_hermite", "_diagonal", "_divisibility_chain"):
        f = getattr(int_linalg, helper)
        monkeypatch.setattr(int_linalg, helper, lambda *a, f=f, helper=helper: calls.append(helper) or f(*a))
    kinds = Counter()
    for columns, width in recorded_matrices(WORKLOADS.HOT_SET):
        units, block = unit_pivots_by_scan(columns, width)
        calls.clear()
        factors = int_linalg._invariant_factors(columns, width)
        assert factors[:units] == (1,) * units
        assert "_hermite" not in calls
        if not block:
            kinds["none"] += 1
            assert (factors, calls) == ((1,) * units, [])
        elif all(x == 0 for i, row in enumerate(block) for j, x in enumerate(row) if i != j):
            kinds["diagonal"] += 1
        else:
            kinds[f"{len(block)}x{len(block[0])}"] += 1
    assert kinds == {"none": 175, "diagonal": 92, "2x2": 8}


def refuse_hermite(*args):
    raise AssertionError("a Hermite pass ran")


def test_closed_forms_on_every_small_matrix(monkeypatch):
    # Every 2x2 with entries in [-5, 5], singular ones included, and every 1 x k and
    # k x 1 with k <= 4 and entries in [-3, 3]: their invariant factors, with no
    # Hermite pass, against the nonzero Smith diagonal and the gcds of minors.
    matrices = [[[a, b], [c, d]] for a, b, c, d in itertools.product(range(-5, 6), repeat=4)]
    for k in range(1, 5):
        for row in itertools.product(range(-3, 4), repeat=k):
            matrices += [[list(row)], [[x] for x in row]]
    assert len(matrices) == 11**4 + 2 * (7 + 7**2 + 7**3 + 7**4)
    diagonals = [tuple(x for x in smith(m).diag if x) for m in matrices]
    monkeypatch.setattr(int_linalg, "_hermite", refuse_hermite)
    for m, diagonal in zip(matrices, diagonals):
        factors = invariant_factors(m)
        assert factors == diagonal and list(factors) == minor_gcd_oracle(m), m


def check_no_hermite_pass(label) -> bool:
    """The cohomology of a type and its decomposition numbers at ell = 2, 3 and 5, with
    ``_hermite`` made to raise: no boundary or Cartan matrix the program makes takes a
    Hermite pass.  Returns whether the subregular numbers were admitted; for B and C of
    high rank the homogeneous diagram is over the root budget.  The stored quotients are
    dropped before and after, so the type's quotient is made under the patch."""
    label = parse_type(str(label))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(int_linalg, "_hermite", refuse_hermite)
        simple_singularity.cache_clear()
        try:
            minimal_orbit_cohomology(build(label))
            for ell in (2, 3, 5):
                decomp_minimal(label, ell)
            try:
                simple_singularity(label)
            except DomainError as exc:
                assert "over the budget" in str(exc), exc
                return False
            finally:
                assert simple_singularity.cache_info().misses == 1  # made here, not read from the store
            for ell in (2, 3, 5):
                decomp_subregular(label, ell)
        finally:
            simple_singularity.cache_clear()
    return True


@pytest.mark.parametrize("name", list(dict.fromkeys(WORKLOADS.HOT_SET + list(map(str, cli.TABLE_TYPES)))))
def test_no_hermite_pass_on_the_hot_set_and_the_tables(name):
    assert check_no_hermite_pass(name)


def check_smith_diagonal(name):
    """Each recorded matrix the cohomology factors, through the unit-pivot kernel, has the
    nonzero Smith diagonal of its dense form: ``smith`` runs no unit pivot and shares only
    ``_hermite`` with the kernel."""
    rs = build(parse_type(name))
    for i in range(1, rs.h_dual):
        diagonal = tuple(x for x in smith(d_matrix(rs, i)).diag if x)
        assert int_linalg._invariant_factors(rs._columns[i], len(levels(rs)[i])) == diagonal, (name, i)


@pytest.mark.parametrize("name", WORKLOADS.HOT_SET)
def test_recorded_matrices_have_the_smith_diagonal(name):
    check_smith_diagonal(name)


@pytest.mark.parametrize("entry", [1.5, 2.0, True, False, None, "1", Fraction(1)])
def test_non_integer_entries_raise(entry):
    # bool is an int subclass, but True and False are flags: they are refused too
    m = [[entry, 2], [3, 4]]
    for f in (smith, invariant_factors, rank, cokernel, kernel_rank):
        with pytest.raises(DomainError, match="integers"):
            f(m)


def test_ragged_matrix_raises():
    for f in (smith, invariant_factors, rank, cokernel, kernel_rank):
        with pytest.raises(DomainError, match="ragged"):
            f([[1, 2], [3]])


@pytest.mark.parametrize(
    "matrix",
    [5, [1, 2], [[1, 2], 3], [[1], "2"], {0: [1]}, [{0: 1}], None],
    ids=["int", "flat-list", "int-row", "str-row", "dict", "dict-row", "None"],
)
def test_a_matrix_is_a_list_or_tuple_of_rows(matrix):
    # _shape runs before any row is read: no TypeError from len() or matrix[0]
    for f in (smith, invariant_factors, rank, cokernel, kernel_rank):
        with pytest.raises(DomainError, match="^a matrix is a list or tuple of rows"):
            f(matrix)


def test_kernel_rank_checks_the_shape_once(monkeypatch):
    # one pass over the entries, in rank: kernel_rank reads the width after it
    calls = []
    real_shape = int_linalg._shape
    monkeypatch.setattr(int_linalg, "_shape", lambda m: calls.append(m) or real_shape(m))
    assert kernel_rank([[1, 2, 3], [2, 4, 6]]) == 2
    assert kernel_rank(()) == 0 and kernel_rank([[], []]) == 0
    assert len(calls) == 3


def dense(rows, cols, seed):
    rng = random.Random(seed)
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def dense_unimodular(n, seed):
    """A walk of elementary row operations from the identity that keeps every
    entry in [-9, 9]: determinant 1, and dense after enough steps."""
    rng = random.Random(seed)
    w = identity(n)
    for _ in range(2000):
        i, j = rng.sample(range(n), 2)
        sign = rng.choice((1, -1))
        row = [x + sign * y for x, y in zip(w[i], w[j])]
        if max(map(abs, row)) <= 9:
            w[i] = row
    return w


def with_zero_columns(m, columns):
    return [[0 if j in columns else x for j, x in enumerate(row)] for row in m]


def dense_without_units(rows, cols, seed):
    """Entries from +-2 .. +-9: no unit pivot, so elimination starts on the whole input."""
    rng = random.Random(seed)
    return [[rng.choice((-1, 1)) * rng.randint(2, 9) for _ in range(cols)] for _ in range(rows)]


# Dense [-9, 9] inputs, square and not, with repeated rows, zero columns or
# determinant 1.
DENSE_INPUTS = {
    **{f"square-{s}": dense(s, s, s) for s in (12, 18, 24, 30)},
    **{f"{r}x{c}": dense(r, c, 100 * r + c) for r, c in ((16, 20), (20, 16), (26, 22), (22, 26))},
    "repeated-rows": dense(10, 18, 7) + dense(10, 18, 7)[:6],
    "zero-columns": with_zero_columns(dense(16, 16, 8), {3, 9}),
    "unimodular": dense_unimodular(14, 9),
}


def pivot_three_first(n, seed):
    """3, then an n x n block that is the identity mod 3 with entries of
    size 4 to 9: no entry +-1, and a factor 3 beside a block whose
    determinant is prime to 3."""
    rng = random.Random(seed)
    block = [[rng.choice((4, 7, -5, -8) if i == j else (-9, -6, 6, 9)) for j in range(n)] for i in range(n)]
    return [[3] + [0] * n] + [[0] + row for row in block]


# The unit pivots leave these whole.
WHOLE = {"no-units": dense_without_units(16, 16, 16), "pivot-three-first": pivot_three_first(14, 3)}


@pytest.mark.parametrize("name", sorted(DENSE_INPUTS.keys() | WHOLE.keys()))
def test_dense_inputs_match_certified_smith(name):
    m = {**DENSE_INPUTS, **WHOLE}[name]
    form = check_form(m, det=bareiss_det)
    nonzero = tuple(d for d in form.diag if d)
    assert invariant_factors(m) == nonzero
    assert cokernel(m) == (len(m) - len(nonzero), tuple(d for d in nonzero if d > 1))
    assert kernel_rank(m) == len(m[0]) - len(nonzero)
    assert rank(m) == len(nonzero)


# On WHOLE the unit pivots do nothing, so invariant_factors and smith run the
# same Hermite passes there; sympy is the independent check.
@pytest.mark.parametrize("name", sorted(DENSE_INPUTS.keys() | WHOLE.keys()))
def test_invariant_factors_match_sympy(name):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

    m = {**DENSE_INPUTS, **WHOLE}[name]
    expected = tuple(int(d) for d in sympy_invariant_factors(sympy.Matrix(m), domain=sympy.ZZ) if d)
    assert invariant_factors(m) == expected


@pytest.mark.parametrize("name", sorted(DENSE_INPUTS))
def test_smith_diagonal_matches_sympy(name):
    sympy = pytest.importorskip("sympy")
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    if not hasattr(normalforms, "smith_normal_decomp"):
        pytest.skip("this sympy has no smith_normal_decomp")
    m = DENSE_INPUTS[name]
    form = normalforms.smith_normal_decomp(sympy.Matrix(m), domain=sympy.ZZ)[0]
    assert smith(m).diag == tuple(abs(int(form[i, i])) for i in range(min(form.shape)))


def hadamard_bits(m):
    """Bit length of the smaller of the row-norm and column-norm Hadamard
    bounds, each above every minor of m."""
    bound = min(math.prod(math.isqrt(sum(x * x for x in v)) + 1 for v in vs) for vs in (m, zip(*m)))
    return bound.bit_length()


@pytest.mark.parametrize("name", sorted(DENSE_INPUTS))
def test_smith_transforms_stay_below_the_hadamard_bound(name):
    # On these inputs every U and V entry is smaller than the input's
    # Hadamard bound; with unreduced transforms they grew to tens of
    # thousands of bits.  The bound is not a theorem for smith: on unit-free
    # inputs such as dense_without_units(16, 16, 17) the transforms exceed it.
    m = DENSE_INPUTS[name]
    form = smith(m)
    bits = max(abs(x).bit_length() for t in (form.left, form.right) for row in t for x in row)
    assert bits <= hadamard_bits(m)


@pytest.mark.parametrize("name", sorted(DENSE_INPUTS))
def test_rank_stops_at_the_bareiss_pass(name, monkeypatch):
    # rank and kernel_rank are one Bareiss pass: no gcd step or Hermite pass.
    m = DENSE_INPUTS[name]
    nonzero = sum(1 for d in smith(m).diag if d)
    calls = []
    for helper in ("_hermite", "_xgcd"):
        f = getattr(int_linalg, helper)
        monkeypatch.setattr(int_linalg, helper, lambda *a, f=f, helper=helper: calls.append(helper) or f(*a))
    for f, want in ((rank, nonzero), (kernel_rank, len(m[0]) - nonzero)):
        assert f(m) == want
    assert calls == []


def with_smith_diagonal(rows, cols, d, seed):
    """W1 * diag(d) * W2 for two dense unimodular walks: a dense rows x cols
    input whose Smith diagonal is d."""
    middle = [[d[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    return mat_mul(mat_mul(dense_unimodular(rows, seed), middle), dense_unimodular(cols, seed + 1))


# Dense inputs with non-cyclic cokernels, as (rows, columns, Smith diagonal),
# trailing zeros where the input is rank-deficient: the invariant factors
# need more than one round of unit pivots and a Hermite pass.
KNOWN_DIAGONALS = {
    "square-2-6-12": (10, 10, (1,) * 7 + (2, 6, 12)),
    "square-3-3-9": (3, 3, (3, 3, 9)),
    "wide-3-3-9": (6, 9, (1, 1, 1, 3, 3, 9)),
    "tall-2-6-12": (12, 8, (1,) * 5 + (2, 6, 12)),
    "rank-deficient": (9, 9, (1,) * 4 + (2, 4, 0, 0, 0)),
    "rank-deficient-tall": (10, 7, (1, 1, 6, 6, 0, 0, 0)),
    "rank-deficient-wide": (7, 11, (1, 3, 3, 9, 0, 0, 0)),
}


def hermite_passes(monkeypatch):
    """A list that gets the shape of each block a Hermite pass runs on."""
    passes, hermite = [], int_linalg._hermite
    monkeypatch.setattr(int_linalg, "_hermite", lambda a, t: passes.append((len(a), len(a[0]))) or hermite(a, t))
    return passes


@pytest.mark.parametrize("name", sorted(KNOWN_DIAGONALS))
def test_known_non_cyclic_cokernels(name, monkeypatch):
    rows, cols, d = KNOWN_DIAGONALS[name]
    m = with_smith_diagonal(rows, cols, d, seed=rows * cols)
    nonzero = tuple(x for x in d if x)
    assert smith(m).diag == d
    passes = hermite_passes(monkeypatch)
    assert invariant_factors(m) == nonzero
    assert len(passes) >= 2
    assert cokernel(m) == (rows - len(nonzero), tuple(x for x in nonzero if x > 1))
    assert kernel_rank(m) == cols - len(nonzero)


# Each shape certified, with its nonzero diagonal checked against minor gcds.
DEGENERATE = {
    "0x0": [],
    "3x0": [[], [], []],
    "zero-3x4": [[0] * 4 for _ in range(3)],
    "1xn": [[6, -10, 15, 0, 4]],
    "nx1": [[6], [-10], [15], [0], [4]],
    "1x1-negative": [[-7]],
    "negative-diagonal": [[-2, 0], [0, -3]],
    # Diagonal inputs with a zero before a nonzero entry: the zeros must move
    # to the tail, though no off-diagonal entry needs clearing.
    "diagonal-leading-zero": [[0, 0], [0, 3]],
    "diagonal-leading-zero-3x2": [[0, 0], [0, 5], [0, 0]],
    "diagonal-inner-zero": [[3, 0, 0], [0, 0, 0], [0, 0, 5]],
    "repeated-rows": [[2, 4, 6], [2, 4, 6], [2, 4, 6], [1, 3, 5]],
    "zero-columns": [[0, 3, 0, 6], [0, -9, 0, 12], [0, 1, 0, 5]],
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_smith_degenerate_shapes(name):
    m = DEGENERATE[name]
    form = check_form(m)
    rows, cols = len(m), len(m[0]) if m else 0
    assert (len(form.left), len(form.diag), len(form.right)) == (rows, min(rows, cols), cols)
    nonzero = tuple(d for d in form.diag if d)
    assert list(nonzero) == minor_gcd_oracle(m)
    assert invariant_factors(m) == nonzero
    assert rank(m) == len(nonzero) and kernel_rank(m) == cols - len(nonzero)


def test_a_diagonal_block_takes_no_hermite_pass(monkeypatch):
    passes = hermite_passes(monkeypatch)
    assert invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    rs = build(parse_type("C8"))
    lv = levels(rs)
    for i in range(1, rs.h_dual):  # the unit pivots leave the block [2] or none
        factors = int_linalg._invariant_factors(rs._columns[i], len(lv[i]))
        assert set(factors) <= {1, 2} and factors.count(2) <= 1
    assert passes == []


def test_one_hermite_pass_that_leaves_one_non_unit_pivot(monkeypatch):
    # The pass reduces the column of each pivot +-1 to that pivot alone, so
    # the unit pivots on its transpose leave the 1x1 block of the one other
    # pivot, and no second pass runs.
    m = dense(24, 24, 24)
    units, block = int_linalg._unit_pivots([itertools.compress(enumerate(row), row) for row in m], 24)
    form = int_linalg._hermite(block, [[]] * len(block))[0]
    assert sum(abs(next(x for x in row if x)) != 1 for row in form) == 1
    passes = hermite_passes(monkeypatch)
    factors = invariant_factors(m)
    assert passes == [(len(block), len(block))]
    assert factors[:-1] == (1,) * 23 and factors[-1] == abs(bareiss_det(m))


def test_hermite_pass_keeps_entries_near_their_final_size(monkeypatch):
    # A changed row clears the rows that enter next.  Reduced against every
    # row below it, no entry of the pass grows past about twice the bits of
    # the final form; left unreduced, entries reach about four times.
    m = dense(60, 60, 60)
    units, block = int_linalg._unit_pivots([itertools.compress(enumerate(row), row) for row in m], 60)
    peak, subtract = [0], int_linalg._subtract

    def watched(row, q, h, j):
        peak[0] = max(peak[0], max(map(abs, row)).bit_length(), max(map(abs, h)).bit_length())
        subtract(row, q, h, j)

    monkeypatch.setattr(int_linalg, "_subtract", watched)
    form = int_linalg._hermite(block, [[]] * len(block))[0]
    assert peak[0] <= 2.5 * max(abs(x).bit_length() for row in form for x in row)


@pytest.mark.parametrize("name", sorted(name for name, m in DEGENERATE.items() if m))
def test_smith_runs_a_hermite_pass_on_any_nonempty_input(name, monkeypatch):
    # A Hermite pass puts zero rows last, so even a diagonal input takes one
    # for its zeros to reach the tail.
    passes = hermite_passes(monkeypatch)
    smith(DEGENERATE[name])
    assert passes


@pytest.mark.parametrize("m", [[[1, 2.0, 3]], [[1], [2], [None]], [[True]], [[0, 0], [0, Fraction(0)]]])
def test_smith_degenerate_shapes_refuse_non_integers(m):
    with pytest.raises(DomainError, match="integers"):
        smith(m)


def test_smith_dense_budget(time_budget):
    # With unreduced transforms (800,000 bits) this 40x40 took about 8 s,
    # and the 60x60 did not finish in 20 s.
    m = dense(40, 40, 40)
    with time_budget(1):
        form = smith(m)
    check_form(m, det=bareiss_det)
    assert math.prod(form.diag) == abs(bareiss_det(m))
    m = dense(60, 60, 60)
    with time_budget(5):
        form = smith(m)
    assert form.diag == invariant_factors(m)


def test_dense_growth_budget(time_budget):
    # The Hermite passes reduce every entry modulo a pivot; eliminating a
    # dense 60x60 without such a reduction does not finish in a minute.
    m = dense(60, 60, 60)
    with time_budget(10):
        factors = invariant_factors(m)
        assert cokernel(m) == (0, tuple(d for d in factors if d > 1))
        assert kernel_rank(m) == 0
    assert len(factors) == 60 and math.prod(factors) == abs(bareiss_det(m))
    with time_budget(1):
        assert cokernel(dense(40, 40, 40))[0] == 0


@pytest.mark.parametrize("shape", [(4, 120), (120, 4), (5, 500), (500, 5)])
def test_smith_far_from_square(shape, time_budget):
    # A left-kernel row takes its pivot on its own diagonal entry of U or V.
    # Cleared against every earlier one instead, a 5x500 took over 3 s.
    m = dense(*shape, sum(shape))
    with time_budget(1.5):
        form = smith(m)
    assert tuple(d for d in form.diag if d) == invariant_factors(m)
    if max(shape) <= 120:  # a 500x500 determinant is too slow to certify here
        check_form(m, det=bareiss_det)


# cli-cold's types plus three larger ones
TRAFFIC_TYPES = (
    ["G2", "F4", "E6", "E7", "E8", "A30", "B20", "D20"]
    + [f"A{n}" for n in range(2, 17)]
    + [f"B{n}" for n in range(2, 14)]
    + [f"C{n}" for n in range(2, 21)]
    + [f"D{n}" for n in range(4, 13)]
)


@pytest.mark.parametrize("label", TRAFFIC_TYPES)
def test_invariant_factors_on_boundary_matrices(label):
    rs = build(parse_type(label))
    for i in range(1, dimension(rs)):
        m = [list(row) for row in d_matrix(rs, i)]
        assert invariant_factors(m) == tuple(d for d in smith(m).diag if d)
