import math
from itertools import compress

import pytest

from golden_data import D_MATRICES
from minorbit.errors import DomainError
from minorbit.int_linalg import kernel_rank
from minorbit.long_root_poset import d_matrix, dimension, level, levels
from minorbit.root_system import RootSystem, build, cartan_of_subset, highest_root, is_long, parse_type
from test_root_system import Poisoned, bilinear, gram_columns, pairing, simple_roots

POSET_TYPES = [
    "A1", "A3", "A6", "B2", "B3", "B5", "B8", "C2", "C4", "C8",
    "D4", "D5", "D8", "E6", "E7", "E8", "F4", "G2",
]


def m_family(k):
    """Square staircase matrix of size k with 1s on two diagonals."""
    return [[1 if j in (i, i - 1) else 0 for j in range(k)] for i in range(k)]


def n_family(k):
    """(k+1) x k staircase matrix."""
    return [[1 if j in (i, i - 1) else 0 for j in range(k)] for i in range(k + 1)]


def add_e(mat, i, j, value=1):
    """Add value at 1-indexed (i, j), ignoring out-of-range positions."""
    out = [list(row) for row in mat]
    if 1 <= i <= len(out) and 1 <= j <= len(out[0]):
        out[i - 1][j - 1] += value
    return out


# every type up to rank 12, plus two larger ranks the assembly makes cheap
ASSEMBLY_TYPES = (
    [f"A{n}" for n in range(1, 13)]
    + [f"B{n}" for n in range(2, 13)]
    + [f"C{n}" for n in range(2, 13)]
    + [f"D{n}" for n in range(4, 13)]
    + ["E6", "E7", "E8", "F4", "G2", "A30", "B20"]
)


@pytest.fixture(params=POSET_TYPES)
def rs(request):
    return build(parse_type(request.param))


def edge_coefficient(rs, beta, alpha) -> int:
    """Multiplicity of the covering edge from beta down to alpha, the
    definition the tests hold ``d_matrix`` to.

    beta and alpha must be long with level(alpha) = level(beta) + 1.  The
    edge is the reflection s_gamma with s_gamma(beta) = alpha, and its
    coefficient is c = <beta, gamma^vee>.  Then beta - alpha = c gamma, so
    gamma is the root on the line of beta - alpha and the coefficient is c
    when c gamma = beta - alpha, else 0.

    This one rule covers every level.  s_gamma(beta)^vee = beta^vee -
    <gamma, beta^vee> gamma^vee, and a level step lowers the coroot height
    by 1, except across the middle (simple long roots to their negatives),
    where it drops by 2.  Off the middle this forces <gamma, beta^vee> = 1
    and ht(gamma^vee) = 1, so gamma is simple and c is 1 for gamma long, r
    for gamma short.  Across the middle either gamma = beta, with c = 2,
    or ht(gamma^vee) = 2 and gamma = beta - alpha is a root, with c = 1.
    """
    if level(rs, alpha) != level(rs, beta) + 1:
        raise DomainError("edge coefficient needs level(alpha) = level(beta) + 1")
    v = tuple(b - a for b, a in zip(beta, alpha))
    # the positive root gamma with v in Z gamma, if any (roots are primitive)
    g = math.gcd(*v) if min(v) >= 0 else -math.gcd(*v)
    gamma = tuple(x // g for x in v)
    if not rs.is_root(gamma):
        return 0
    c = pairing(rs, beta, gamma)
    return c if tuple(c * x for x in gamma) == v else 0


def test_level_endpoints(rs):
    top = highest_root(rs)
    neg_top = tuple(-x for x in top)
    assert level(rs, top) == 0
    assert level(rs, neg_top) == 2 * rs.h_dual - 3
    short = [v for v in rs.roots if not is_long(rs, v)]
    if short:
        with pytest.raises(DomainError):
            level(rs, short[0])


def test_level_g2():
    g2 = build(parse_type("G2"))
    assert level(g2, (1, 3)) == 1


def test_levels_structure(rs):
    lv = levels(rs)
    top = 2 * rs.h_dual - 3
    assert len(lv) == top + 1
    assert lv[0] == (highest_root(rs),)
    assert lv[top] == (tuple(-x for x in highest_root(rs)),)
    assert sum(len(l) for l in lv) == sum(1 for v in rs.roots if is_long(rs, v))
    # palindrome of sizes, negation maps level i onto level top - i
    for i, members in enumerate(lv):
        assert len(members) == len(lv[top - i])
        assert {tuple(-x for x in v) for v in members} == set(lv[top - i])
    # the two middle levels are the long simple roots and their negatives
    simple_long = {simple_roots(rs)[i] for i in rs.long_simple_indices}
    assert set(lv[rs.h_dual - 2]) == simple_long
    assert set(lv[rs.h_dual - 1]) == {tuple(-x for x in v) for v in simple_long}


@pytest.mark.parametrize("name", POSET_TYPES + ["A30", "B20", "C20", "D20"])
def test_levels_hold_the_record_tuples_in_order(name):
    rs = build(parse_type(name))
    own = {id(root) for root in rs._level}
    for i, members in enumerate(levels(rs)):
        assert all(id(root) in own for root in members), f"{name} level {i}"
        assert all(level(rs, root) == i for root in members), f"{name} level {i}"
        # reference order: decreasing lexicographic on the absolute coordinates
        assert members == tuple(sorted(members, key=lambda r: tuple(-abs(x) for x in r))), f"{name} level {i}"


def test_edge_coefficients_basic():
    g2 = build(parse_type("G2"))
    assert edge_coefficient(g2, (1, 3), (1, 0)) == 3
    c4 = build(parse_type("C4"))
    lv = levels(c4)
    for i in range(len(lv) - 1):
        assert edge_coefficient(c4, lv[i][0], lv[i + 1][0]) == 2
    b2 = build(parse_type("B2"))
    with pytest.raises(DomainError):
        edge_coefficient(b2, levels(b2)[0][0], levels(b2)[0][0])


@pytest.mark.parametrize("name", POSET_TYPES + ["A60", "B40", "D40"])
def test_crossing_coefficients(name):
    # between the middle levels: 2 on (beta, -beta), 1 when beta - alpha is a root
    rs = build(parse_type(name))
    lv = levels(rs)
    middle = d_matrix(rs, rs.h_dual - 1)
    for col, beta in enumerate(lv[rs.h_dual - 2]):
        for row, alpha in enumerate(lv[rs.h_dual - 1]):
            expected = 0
            if alpha == tuple(-x for x in beta):
                expected = 2
            elif rs.is_root(tuple(b - a for b, a in zip(beta, alpha))):
                expected = 1
            assert edge_coefficient(rs, beta, alpha) == middle[row][col] == expected


def check_record_shape(rs):
    """The record's keys, its negative roots and the shape of its boundary matrices."""
    # is_root holds on exactly rs.roots: the keys of the record are its objects
    assert {id(root) for root in rs._level} == {id(root) for root in rs.roots}
    assert len(rs._level) == len(rs.roots) == len(set(rs.roots))
    assert not rs.is_root((0,) * rs.rank) and not rs.is_root(tuple(x + 1 for x in highest_root(rs)))
    npos = len(rs.positive_roots)
    assert all(rs.roots[npos + k] == tuple(-x for x in rs.roots[k]) for k in range(npos))
    lv = levels(rs)
    assert len(rs._columns) == rs.h_dual and rs._columns[0] == ()
    for i in range(1, rs.h_dual):
        columns = rs._columns[i]
        assert len(columns) == len(lv[i - 1]), f"{rs.type_label} D_{i}"
        assert all(0 <= row < len(lv[i]) for column in columns for row in column), f"{rs.type_label} D_{i}"


@pytest.mark.parametrize("name", POSET_TYPES + ["A30", "B20", "C20", "D20"])
def test_lowering_edges_are_the_simple_reflections(name):
    # the matrices build recorded from its closure, and the transposes d_matrix
    # gives above the middle: off the middle, every nonzero entry c at
    # (alpha, beta) is a simple reflection, alpha = s_j(beta) with
    # c = <beta, alpha_j^vee> = 2(beta|alpha_j) / (alpha_j|alpha_j) from the Gram
    # form, the negative half too.  Each level is indexed once and each matrix's
    # nonzero entries read once, so the full tier runs this on every admitted type.
    rs = build(parse_type(name))
    check_record_shape(rs)
    lv = levels(rs)
    norms = [bilinear(rs, alpha, alpha) for alpha in simple_roots(rs)]
    for i in range(1, dimension(rs)):
        if i == rs.h_dual - 1:
            continue
        place = {alpha: row for row, alpha in enumerate(lv[i])}
        columns = [{} for _ in lv[i - 1]]
        for row, entries in enumerate(d_matrix(rs, i)):
            for col in compress(range(len(entries)), entries):
                columns[col][row] = entries[col]
        for beta, column in zip(lv[i - 1], columns):
            expected = {}
            for j, (gram, norm) in enumerate(zip(gram_columns(rs.type_label), norms)):
                if (c := 2 * sum(x * beta[k] for k, x in gram) // norm) > 0:
                    expected[place[beta[:j] + (beta[j] - c,) + beta[j + 1 :]]] = c
            assert column == expected, f"{name} D_{i} {beta}"


def test_d_matrix_range(rs):
    # an index outside 1..d-1 is refused before the record is read: True and 2.0
    # equal 1 and 2, and True would index matrix 1
    d = dimension(rs)
    blind = RootSystem(**{**vars(rs), "_columns": Poisoned()})
    for record in (blind, rs):
        for bad in (0, d, -1, 2.0, True, "2", None):
            with pytest.raises(DomainError, match=rf"^matrix index {bad!r} outside 1\.\.{d - 1}$"):
                d_matrix(record, bad)
    assert d_matrix(rs, 1) == tuple(zip(*d_matrix(rs, d - 1)))


@pytest.mark.parametrize("name", ASSEMBLY_TYPES)
def test_transpose_symmetry(name):
    # minimal_orbit_cohomology reads degrees above the middle off this
    rs = build(parse_type(name))
    d = dimension(rs)
    for i in range(1, d):
        assert d_matrix(rs, d - i) == tuple(zip(*d_matrix(rs, i))), f"{name} D_{i}"


def test_injective_below_middle(rs):
    for i in range(1, rs.h_dual - 1):
        mat = [list(row) for row in d_matrix(rs, i)]
        assert kernel_rank(mat) == 0
        assert all(any(row[j] for row in mat) for j in range(len(mat[0])))


def test_golden_matrices_exceptional():
    for name, expected in D_MATRICES.items():
        rs = build(parse_type(name))
        for i, mat in expected.items():
            assert d_matrix(rs, i) == mat, f"{name} D_{i}"


def test_middle_matrix():
    a5 = build(parse_type("A5"))
    assert d_matrix(a5, a5.h_dual - 1) == tuple(
        tuple(2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(5)) for i in range(5)
    )
    g2 = build(parse_type("G2"))
    assert d_matrix(g2, g2.h_dual - 1) == ((2,),)
    d5 = build(parse_type("D5"))
    assert d_matrix(d5, d5.h_dual - 1) == (
        (2, 1, 0, 0, 0),
        (1, 2, 1, 0, 0),
        (0, 1, 2, 1, 1),
        (0, 0, 1, 2, 0),
        (0, 0, 1, 0, 2),
    )


def test_middle_is_unsigned_cartan(rs):
    sub = cartan_of_subset(rs, rs.long_simple_indices)
    unsigned = tuple(tuple(abs(x) for x in row) for row in sub)
    assert d_matrix(rs, rs.h_dual - 1) == unsigned


def test_a_family():
    for n in range(3, 10):
        rs = build(parse_type(f"A{n - 1}"))
        for i in range(1, n - 1):
            assert d_matrix(rs, i) == tuple(tuple(row) for row in n_family(i))


def test_b_family():
    for n in range(2, 9):
        rs = build(parse_type(f"B{n}"))
        for i in range(1, n - 1):
            expected = m_family((i + 1) // 2) if i % 2 else n_family(i // 2)
            assert d_matrix(rs, i) == tuple(tuple(r) for r in expected), f"B{n} D_{i}"
        for i in range(n - 1, 2 * n - 2):
            base = m_family((i + 1) // 2) if i % 2 else n_family(i // 2)
            expected = add_e(base, i + 2 - n, i + 2 - n)
            assert d_matrix(rs, i) == tuple(tuple(r) for r in expected), f"B{n} D_{i}"


def test_c_family():
    for n in range(2, 9):
        rs = build(parse_type(f"C{n}"))
        for i in range(1, 2 * n):
            assert d_matrix(rs, i) == ((2,),)


def test_d_family():
    for n in range(4, 9):
        rs = build(parse_type(f"D{n}"))
        for i in range(1, n - 2):
            expected = m_family((i + 1) // 2) if i % 2 else n_family(i // 2)
            assert d_matrix(rs, i) == tuple(tuple(r) for r in expected), f"D{n} D_{i}"
        # the level where the fork first widens the diagram
        base = m_family((n - 1) // 2) if n % 2 else n_family((n - 2) // 2)
        width = len(base[0])
        expected = [[1] + [0] * (width - 1)] + base
        assert d_matrix(rs, n - 2) == tuple(tuple(r) for r in expected), f"D{n} D_{n - 2}"
        for i in range(n - 1, 2 * n - 3):
            base = m_family((i + 3) // 2) if i % 2 else n_family((i + 2) // 2)
            expected = add_e(base, i + 2 - n, i + 3 - n)
            expected = add_e(expected, i + 3 - n, i + 3 - n, -1)
            expected = add_e(expected, i + 3 - n, i + 4 - n)
            assert d_matrix(rs, i) == tuple(tuple(r) for r in expected), f"D{n} D_{i}"


@pytest.mark.parametrize("name", ASSEMBLY_TYPES)
def test_assembly_equals_edge_coefficients(name):
    # d_matrix assembles column by column; edge_coefficient is the definition
    rs = build(parse_type(name))
    lv = levels(rs)
    for i in range(1, dimension(rs)):
        pairwise = tuple(tuple(edge_coefficient(rs, beta, alpha) for beta in lv[i - 1]) for alpha in lv[i])
        assert d_matrix(rs, i) == pairwise, f"{name} D_{i}"
