import math
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from minorbit import errors, root_system
from minorbit.decomposition import decomp_minimal, decomp_subregular, simple_singularity
from minorbit.errors import DomainError, InvalidTypeError
from minorbit.int_linalg import cokernel
from minorbit.long_root_poset import level
from minorbit.root_system import (
    ROOT_BUDGET,
    RootSystem,
    TypeLabel,
    _cartan_and_lengths,
    build,
    cartan_matrix,
    cartan_of_subset,
    dual_height,
    height,
    highest_root,
    is_long,
    long_simple_subsystem,
    parse_type,
)

# closed-form Coxeter numbers of the classical series
COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n, "C": lambda n: 2 * n, "D": lambda n: 2 * n - 2}
FIRST_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}
CLOSURE_TYPES = (
    [f"A{n}" for n in range(1, 41)]
    + [f"B{n}" for n in range(2, 31)]
    + [f"C{n}" for n in range(2, 31)]
    + [f"D{n}" for n in range(4, 31)]
)

ALL_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "B2", "B3", "B4", "B5", "B6", "B7", "B8",
    "C2", "C3", "C4", "C5", "C6", "C7", "C8",
    "D4", "D5", "D6", "D7", "D8",
    "E6", "E7", "E8", "F4", "G2",
]


@pytest.fixture(params=ALL_TYPES)
def rs(request):
    return build(parse_type(request.param))


def coxeter_number(rs) -> int:
    return _cartan_and_lengths(rs.type_label)[3]


def simple_roots(rs) -> tuple[tuple[int, ...], ...]:
    """The unit vectors alpha_1, ..., alpha_rank."""
    return tuple(tuple(int(j == i) for j in range(rs.rank)) for i in range(rs.rank))


@lru_cache(maxsize=None)
def gram_columns(label) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Nonzero entries (i, 2(alpha_i|alpha_j)) of each column j of the Gram matrix,
    2(alpha_i|alpha_j) = <alpha_i, alpha_j^vee> |alpha_j|^2, from the diagram."""
    cartan, lengths, _, _ = _cartan_and_lengths(label)
    return tuple(tuple((i, row[j] * lengths[j]) for i, row in enumerate(cartan) if row[j]) for j in range(len(lengths)))


def bilinear(rs, a, b) -> int:
    """Twice the invariant scalar product (a|b), as an integer."""
    columns = gram_columns(rs.type_label)
    return sum(bj * sum(x * a[i] for i, x in columns[j]) for j, bj in enumerate(b) if bj)


def pairing(rs, a, b) -> int:
    """<a, b^vee> = 2(a|b)/(b|b) for a root b."""
    num = 2 * bilinear(rs, a, b)
    den = bilinear(rs, b, b)
    if num % den:
        raise DomainError("pairing is not integral; b is not a root")
    return num // den


def reflect(rs, a, b):
    """Image of a under the reflection in the root b."""
    c = pairing(rs, a, b)
    return tuple(ai - c * bi for ai, bi in zip(a, b))


class Poisoned:
    """Raises on any read, so that a field of the record a caller must not touch can be swapped in."""

    def _refuse(self, *args):
        raise AssertionError("a poisoned field of the record was read")

    __getattr__ = __getitem__ = __contains__ = __iter__ = __len__ = __bool__ = __hash__ = _refuse


def weyl_degrees(rs) -> tuple[int, ...]:
    """Kostant: the exponents are the conjugate partition of the counts of
    positive roots by height, and each degree is an exponent plus 1."""
    by_height = Counter(map(height, rs.positive_roots)).values()
    return tuple(1 + sum(c >= j for c in by_height) for j in range(rs.rank, 0, -1))


def bad_primes(rs) -> frozenset[int]:
    """The primes dividing a coefficient of the highest root (each is at most 6)."""
    return frozenset(p for p in (2, 3, 5) if any(c % p == 0 for c in highest_root(rs)))


def test_parse_type():
    assert parse_type("a5") == TypeLabel("A", 5)
    assert parse_type(" E8 ") == TypeLabel("E", 8)
    for bad in ["H3", "D3", "D2", "E9", "E5", "F5", "G3", "A0", "B1", "", "A", "5A"]:
        with pytest.raises(InvalidTypeError):
            parse_type(bad)


def test_parse_type_refuses_a_rank_over_the_digit_limit():
    # int() refuses so many digits with a bare ValueError
    with pytest.raises(InvalidTypeError, match="5000 digits"):
        parse_type("A" + "9" * 5000)


def test_counts(rs):
    # |roots| = rank * h, split evenly into positives and negatives
    assert len(rs.roots) == rs.rank * coxeter_number(rs)
    assert len(rs.positive_roots) * 2 == len(rs.roots)
    assert len(set(rs.roots)) == len(rs.roots)


def test_build_small_examples():
    a1 = build(parse_type("A1"))
    _, _, r, h = _cartan_and_lengths(a1.type_label)
    assert len(a1.roots) == 2 and a1.cartan == ((2,),) and r == 1
    assert h == a1.h_dual == 2

    g2 = build(parse_type("G2"))
    _, _, r, h = _cartan_and_lengths(g2.type_label)
    assert len(g2.roots) == 12 and len(g2.positive_roots) == 6
    assert r == 3 and h == 6 and g2.h_dual == 4

    b3 = build(parse_type("B3"))
    assert len(b3.roots) == 18
    assert sum(1 for v in b3.positive_roots if is_long(b3, v)) == 6


def test_cartan_shape(rs):
    n = rs.rank
    for i in range(n):
        assert rs.cartan[i][i] == 2
        for j in range(n):
            if i != j:
                assert rs.cartan[i][j] <= 0


def test_positive_root_order(rs):
    # by height, then by decreasing coordinates
    keys = [(height(v), tuple(-x for x in v)) for v in rs.positive_roots]
    assert keys == sorted(keys)


def test_highest_root(rs):
    top = highest_root(rs)
    assert is_long(rs, top)
    assert height(top) == coxeter_number(rs) - 1
    assert dual_height(rs, top) == rs.h_dual - 1
    for v in rs.positive_roots:
        assert all(t >= x for t, x in zip(top, v))


def test_highest_root_values():
    assert highest_root(build(parse_type("A2"))) == (1, 1)
    assert highest_root(build(parse_type("G2"))) == (2, 3)
    assert highest_root(build(parse_type("E8"))) == (2, 3, 4, 6, 5, 4, 3, 2)


def test_dual_coxeter_values():
    expected = {"A5": 6, "B3": 5, "C3": 4, "D5": 8, "E6": 12, "E7": 18, "E8": 30, "F4": 9, "G2": 4}
    for label, h_dual in expected.items():
        assert build(parse_type(label)).h_dual == h_dual


def test_dual_height_examples():
    b3 = build(parse_type("B3"))
    assert dual_height(b3, highest_root(b3)) == 4
    c3 = build(parse_type("C3"))
    assert dual_height(c3, highest_root(c3)) == 3
    for rs in (b3, c3):
        for i in rs.long_simple_indices:
            assert dual_height(rs, simple_roots(rs)[i]) == 1
    short = next(v for v in b3.positive_roots if not is_long(b3, v))
    with pytest.raises(DomainError):
        dual_height(b3, short)


def test_is_long_divisibility(rs):
    # the rule build once used, kept as a reference for the length it now carries
    # through the closure: long iff r divides every coordinate at a short simple position
    r = _cartan_and_lengths(rs.type_label)[2]
    short_positions = [i for i in range(rs.rank) if i not in rs.long_simple_indices]
    for v in rs.roots:
        divisible = all(v[i] % r == 0 for i in short_positions)
        assert is_long(rs, v) == divisible
    with pytest.raises(DomainError):
        is_long(rs, tuple([5] * rs.rank))


def check_no_root(rs, v):
    """Each lookup refuses v with its DomainError, never with a TypeError or an answer."""
    assert rs.is_root(v) is False
    with pytest.raises(DomainError, match=f"is not a root of {rs.type_label}$"):
        is_long(rs, v)
    with pytest.raises(DomainError, match="^dual height is defined on long roots only"):
        dual_height(rs, v)
    with pytest.raises(DomainError, match="^level is defined on long roots only"):
        level(rs, v)


@pytest.mark.parametrize("kind", [list, set, lambda v: dict(enumerate(v))], ids=["list", "set", "dict"])
def test_a_root_is_a_hashable_tuple(kind):
    # the highest root given as a list, set or dict, alone or inside a tuple, is no root
    b3 = build(parse_type("B3"))
    top = highest_root(b3)
    for v in (kind(top), (kind(top),) + top[1:]):
        check_no_root(b3, v)


@pytest.mark.parametrize("v", [(1.0, 0, 0), (True, False, False)], ids=["float", "bool"])
def test_a_root_is_a_tuple_of_ints(v):
    # both equal alpha_1 of A3 and hash as it does, but are no root
    a3 = build(parse_type("A3"))
    assert v == a3.roots[0] and a3.is_root(a3.roots[0])
    check_no_root(a3, v)


def test_is_long_matches_the_bilinear_form(rs):
    # a long root has (v|v) = r, and bilinear gives 2(v|v)
    r = _cartan_and_lengths(rs.type_label)[2]
    for v in rs.roots:
        assert is_long(rs, v) == (bilinear(rs, v, v) == 2 * r)


def test_dual_height_matches_the_bilinear_form(rs):
    # the coroot of v is 2v/(v|v), so its height is sum v_i (alpha_i|alpha_i) / (v|v);
    # a long root sits at level ht_coroot(theta) - ht_coroot(v), one lower if v < 0
    lengths = _cartan_and_lengths(rs.type_label)[1]

    def coroot_height(v):
        numerator = sum(c * length for c, length in zip(v, lengths))
        half_norm = bilinear(rs, v, v) // 2
        assert numerator % half_norm == 0
        return numerator // half_norm

    top = coroot_height(highest_root(rs))
    for v in rs.roots:
        if is_long(rs, v):
            t = coroot_height(v)
            assert dual_height(rs, v) == t
            assert level(rs, v) == (top - t if t > 0 else top - t - 1)


def test_is_long_g2():
    g2 = build(parse_type("G2"))
    assert is_long(g2, (1, 3))
    assert not is_long(g2, (1, 1))


def test_simply_laced_all_long():
    for label in ["A4", "D5", "E6"]:
        rs = build(parse_type(label))
        assert all(is_long(rs, v) for v in rs.roots)


def test_dual_height_additive(rs):
    long_positive = [v for v in rs.positive_roots if is_long(rs, v)]
    for a in long_positive:
        for b in long_positive:
            s = tuple(x + y for x, y in zip(a, b))
            if rs.is_root(s) and is_long(rs, s):
                assert dual_height(rs, s) == dual_height(rs, a) + dual_height(rs, b)


def test_cartan_of_subset():
    f4 = build(parse_type("F4"))
    assert cartan_of_subset(f4, range(4)) == [list(r) for r in f4.cartan]
    assert cartan_of_subset(f4, f4.long_simple_indices) == [[2, -1], [-1, 2]]
    cn = build(parse_type("C5"))
    assert cartan_of_subset(cn, cn.long_simple_indices) == [[2]]
    for bad in ([9], [-1], [True]):
        with pytest.raises(DomainError, match="is not a simple-root index of F4"):
            cartan_of_subset(f4, bad)
    # [[2, 2], [2, 2]] would be no Cartan matrix
    for bad in ([0, 0], (1, 2, 1)):
        with pytest.raises(DomainError, match=r"of F4 repeat an index$"):
            cartan_of_subset(f4, bad)


def test_type_label_rank_must_be_an_int():
    # the same rule as matrix entries: type int exactly, so no bool
    for series, rank in [("A", True), ("A", False), ("E", 6.0), ("B", "3"), ("G", None)]:
        with pytest.raises(InvalidTypeError, match="rank must be an int"):
            TypeLabel(series, rank)


def test_parse_type_refuses_a_non_str():
    # re.fullmatch would raise a bare TypeError
    for bad in [5, None, b"A3", ["A3"], TypeLabel("A", 3)]:
        with pytest.raises(InvalidTypeError, match="a type label to parse is a str"):
            parse_type(bad)


# every public function taking a type label, called with a label that is not a TypeLabel
LABEL_CALLS = [
    "build(label)",
    "cartan_matrix(label)",
    "simple_singularity(label)",
    "decomp_minimal(label, 2)",
    "decomp_subregular(label, 2)",
]
# a list is unhashable: it is refused before build's cache would hash it, and adds no entry
NOT_LABELS = ["A3", ("A", 3), ("B", 3), ["A", 3], 3, None]


@pytest.mark.parametrize("call", LABEL_CALLS)
def test_label_entry_points_refuse_anything_but_a_type_label_when_warm(call):
    # A3 and B3 are in build's cache, and ("A", 3) == TypeLabel("A", 3)
    build(TypeLabel("A", 3))
    build(TypeLabel("B", 3))
    held = list(errors._store.items())
    for label in NOT_LABELS:
        with pytest.raises(InvalidTypeError, match="expected a TypeLabel"):
            eval(call, globals(), {"label": label})
    assert list(errors._store.items()) == held


def test_label_entry_points_refuse_anything_but_a_type_label_when_cold():
    # a fresh interpreter, so that nothing is in build's cache
    code = (
        "from minorbit.decomposition import decomp_minimal, decomp_subregular, simple_singularity\n"
        "from minorbit.errors import InvalidTypeError\n"
        "from minorbit.root_system import build, cartan_matrix\n"
        "for call in %r:\n"
        "    for label in %r:\n"
        "        try:\n"
        "            eval(call)\n"
        "        except InvalidTypeError as exc:\n"
        "            assert str(exc).startswith('expected a TypeLabel'), (call, label, exc)\n"
        "        else:\n"
        "            raise AssertionError((call, label))\n"
        "from minorbit.errors import _store\n"
        "assert build.cache_info().misses == len(_store) == 0\n"
    ) % (LABEL_CALLS, NOT_LABELS)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TypeLabel("A", 3)._replace(rank=0), "rank 0 invalid for series A"),
        (lambda: TypeLabel._make(("E", 5)), "rank 5 invalid for series E"),
        (lambda: TypeLabel._make(("Q", 3)), "unknown series 'Q'"),
        (lambda: TypeLabel("A", 3)._replace(rank=3.0), "rank must be an int, got 3.0"),
    ],
    ids=["replace-rank-0", "make-E5", "make-Q3", "replace-rank-float"],
)
def test_make_and_replace_check_the_label(make, message):
    # namedtuple's _make and _replace would skip __new__, and build then fail with a bare error
    with pytest.raises(InvalidTypeError, match=f"^{message}$"):
        build(make())
    assert TypeLabel("A", 3)._replace(rank=4) == TypeLabel._make(["A", 4]) == TypeLabel("A", 4)


def test_type_label_series_must_be_a_letter():
    # an unhashable series must not escape as a bare TypeError from the lookup
    for series in [["A"], {"A": 1}, {"A"}, None, 65, b"A", "a", "AB"]:
        with pytest.raises(InvalidTypeError, match="unknown series"):
            TypeLabel(series, 3)


def test_long_simple_subsystem():
    cases = {
        "E7": "E7", "A4": "A4", "D6": "D6", "E8": "E8",
        "B5": "A4", "C6": "A1", "F4": "A2", "G2": "A1",
    }
    for label, expected in cases.items():
        assert str(long_simple_subsystem(build(parse_type(label)))) == expected


def long_simple_by_hand(label: TypeLabel) -> TypeLabel:
    """The per-series table the module kept before reading the long simple roots."""
    s, n = label
    if s == "B":
        return TypeLabel("A", n - 1)
    if s in ("C", "G"):
        return TypeLabel("A", 1)
    if s == "F":
        return TypeLabel("A", 2)
    return label


@pytest.mark.parametrize("name", CLOSURE_TYPES + ["E6", "E7", "E8", "F4", "G2"])
def test_long_simple_subsystem_is_the_long_simple_diagram(name):
    rs = build(parse_type(name))
    assert cartan_matrix(long_simple_subsystem(rs)) == cartan_of_subset(rs, rs.long_simple_indices)


def test_long_simple_subsystem_equals_the_table_up_to_rank_20():
    labels = [TypeLabel(s, n) for s, low in FIRST_RANK.items() for n in range(low, 21)]
    labels += [TypeLabel("E", n) for n in (6, 7, 8)] + [TypeLabel("F", 4), TypeLabel("G", 2)]
    for label in labels:
        assert long_simple_subsystem(build(label)) == long_simple_by_hand(label), label


def test_connection_index(rs):
    # |det cartan| equals the order of the weight/root quotient
    free, torsion = cokernel([list(r) for r in rs.cartan])
    assert free == 0
    index = {"A": rs.rank + 1, "B": 2, "C": 2, "D": 4, "F": 1, "G": 1}
    if rs.type_label.series == "E":
        expected = {6: 3, 7: 2, 8: 1}[rs.rank]
    else:
        expected = index[rs.type_label.series]
    assert math.prod(torsion) if torsion else 1 == expected


# the published degrees of the Weyl group (Bourbaki, Lie VI, planches)
EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12), "E7": (2, 6, 8, 10, 12, 14, 18), "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12), "G2": (2, 6),
}


def published_degrees(label) -> tuple[int, ...]:
    s, n = label
    if s == "A":
        return tuple(range(2, n + 2))
    if s in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if s == "D":
        return tuple(sorted([*range(2, 2 * n - 1, 2), n]))
    return EXCEPTIONAL_DEGREES[str(label)]


@pytest.mark.parametrize("name", ALL_TYPES + ["A40", "B25", "C40", "D30", "D31"])
def test_degrees(name):
    # the degrees read off build's positive roots (Kostant) are the published ones
    rs = build(parse_type(name))
    degrees = weyl_degrees(rs)
    assert degrees == published_degrees(rs.type_label)
    assert len(degrees) == rs.rank
    assert max(degrees) == coxeter_number(rs)
    assert sum(d - 1 for d in degrees) == len(rs.positive_roots)


# the published table of bad primes (Springer-Steinberg)
BAD_PRIMES = {
    "A": frozenset(), "B": frozenset({2}), "C": frozenset({2}), "D": frozenset({2}),
    "E6": frozenset({2, 3}), "E7": frozenset({2, 3}), "E8": frozenset({2, 3, 5}),
    "F": frozenset({2, 3}), "G": frozenset({2, 3}),
}


def test_bad_primes_match_the_published_table(rs):
    series = rs.type_label.series
    assert bad_primes(rs) == BAD_PRIMES[str(rs.type_label) if series == "E" else series]


def test_bad_primes():
    assert bad_primes(build(parse_type("A7"))) == frozenset()
    assert bad_primes(build(parse_type("B4"))) == frozenset({2})
    assert bad_primes(build(parse_type("E6"))) == frozenset({2, 3})
    assert bad_primes(build(parse_type("E8"))) == frozenset({2, 3, 5})
    assert bad_primes(build(parse_type("G2"))) == frozenset({2, 3})


@pytest.mark.parametrize("name", CLOSURE_TYPES)
def test_closure_counts_large_rank(name):
    rs = build(parse_type(name))
    h = COXETER[rs.type_label.series](rs.rank)
    assert coxeter_number(rs) == h
    assert len(rs.roots) == rs.rank * h
    assert len(set(rs.roots)) == len(rs.roots)


def test_equality_and_hash_read_the_label_only():
    e8 = build(parse_type("E8"))
    # a copy whose roots are unhashable lists: hashing it must not touch them
    copy = RootSystem(**{**vars(e8), "roots": [list(v) for v in e8.roots], "positive_roots": ()})
    assert copy is not e8
    assert copy == e8 and hash(copy) == hash(e8) == hash(e8.type_label)
    assert e8 != build(parse_type("E7")) and e8 != "E8"
    a60 = build(parse_type("A60"))
    assert hash(a60) == hash(a60.type_label)


def last_admitted_rank(series: str) -> int:
    """Largest rank whose closed-form root count rank * h fits the budget."""
    n = FIRST_RANK[series]
    while (n + 1) * COXETER[series](n + 1) <= ROOT_BUDGET:
        n += 1
    return n


@pytest.mark.parametrize("series", "ABCD")
def test_root_budget_refuses_just_past_the_boundary(series):
    # the refused types are never built: build checks before the closure
    n = last_admitted_rank(series) + 1
    with pytest.raises(DomainError, match=f"{series}{n} has {n * COXETER[series](n)} roots, over the budget"):
        build(TypeLabel(series, n))
    with pytest.raises(DomainError, match="over the budget"):
        build(TypeLabel(series, 10**12))


def test_root_budget_admits_its_boundary():
    n = last_admitted_rank("B")
    assert len(build(TypeLabel("B", n)).roots) == n * COXETER["B"](n) <= ROOT_BUDGET


@pytest.mark.parametrize(
    "wrong",
    [
        # the affine A~2 matrix: infinitely many roots
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [1, 1, 1], 1),
        # B3's matrix: finitely many roots, but not the rank * h = 12 of A3
        _cartan_and_lengths(TypeLabel("B", 3))[:3],
    ],
)
def test_closure_refuses_a_wrong_matrix(wrong, monkeypatch, time_budget):
    # both are rank 3, so they go under the label A3, whose closed-form h is 4:
    # the closure stops once it has taken a 7th positive root
    label = TypeLabel("A", 3)
    monkeypatch.setattr(root_system, "_cartan_and_lengths", lambda _: (*wrong, 4))
    before = list(errors._store.items())
    with time_budget(1), pytest.raises(InvalidTypeError, match="root enumeration failed for A3") as info:
        build.__wrapped__(label)
    assert str(info.value) == "root enumeration failed for A3: the closure stopped at 14 roots, not rank * h = 12"
    assert list(errors._store.items()) == before


def test_cartan_matrix_budget_at_its_boundary():
    # build and cartan_matrix share one budget: the refused matrix is never made
    n = last_admitted_rank("A")
    assert n == 99
    assert len(cartan_matrix(TypeLabel("A", n))) == n
    with pytest.raises(DomainError, match=f"A{n + 1} has {(n + 1) * (n + 2)} roots, over the budget"):
        cartan_matrix(TypeLabel("A", n + 1))


def chain_cartan(n: int) -> list[list[int]]:
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        c[i][i + 1] = c[i + 1][i] = -1
    return c


@pytest.mark.parametrize(
    "cartan, lengths, r, h_dual, fact",
    [
        # A1 x A1 x A1: three positive roots
        ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [1, 1, 1], 1, 4, "the closure stopped at 6 roots, not rank * h = 12"),
        # A3 with h_dual 2 in place of 4
        (chain_cartan(3), [1, 1, 1], 1, 2, "the long roots do not fill levels 0..1"),
        # A3's matrix with simple lengths and h_dual that do not fit it: the grading
        # fills the levels, but not as a root system does
        (chain_cartan(3), [1, 1, 2], 2, 2, "level 0 is not the highest root alone"),
        (chain_cartan(3), [1, 1, 2], 1, 5, "a raise between long roots does not step one level"),
    ],
)
def test_closure_names_the_fact_that_broke(cartan, lengths, r, h_dual, fact, monkeypatch):
    monkeypatch.setattr(root_system, "_cartan_and_lengths", lambda _: (cartan, lengths, r, 4))
    monkeypatch.setitem(root_system._DUAL_COXETER_NUMBER, "A", lambda n: h_dual)
    with pytest.raises(InvalidTypeError) as info:
        build.__wrapped__(TypeLabel("A", 3))
    assert str(info.value) == f"root enumeration failed for A3: {fact}"


def cartan_by_hand(label: TypeLabel) -> tuple[list[list[int]], list[int], int]:
    """(cartan, squared simple lengths, r) placed entry by entry per series,
    the way the module built them before deriving them from the bonds."""
    s, n = label
    if s == "A":
        return chain_cartan(n), [1] * n, 1
    if s == "B":
        c = chain_cartan(n)
        c[n - 2][n - 1] = -2  # alpha_{n-1} long, alpha_n short
        return c, [2] * (n - 1) + [1], 2
    if s == "C":
        c = chain_cartan(n)
        c[n - 1][n - 2] = -2  # alpha_n long, the rest short
        return c, [1] * (n - 1) + [2], 2
    if s == "D":
        c = chain_cartan(n - 1)
        for row in c:
            row.append(0)
        c.append([0] * n)
        c[n - 1][n - 1] = 2
        c[n - 2][n - 1] = c[n - 1][n - 2] = 0
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1  # fork tips n-1, n on vertex n-2
        return c, [1] * n, 1
    if s == "E":
        c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        bonds = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if n >= 7:
            bonds.append((6, 7))
        if n == 8:
            bonds.append((7, 8))
        for i, j in bonds:
            c[i - 1][j - 1] = c[j - 1][i - 1] = -1
        return c, [1] * n, 1
    if s == "F":
        c = chain_cartan(4)
        c[1][2] = -2  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        return c, [2, 2, 1, 1], 2
    # G2: alpha_1 long, alpha_2 short, triple bond
    return [[2, -3], [-1, 2]], [3, 1], 3


def test_the_diagram_gives_the_hand_placed_cartan_on_every_admitted_type():
    # every type the root budget admits; no closure is made, so this is cheap
    labels = [TypeLabel(s, n) for s in "ABCD" for n in range(FIRST_RANK[s], last_admitted_rank(s) + 1)]
    labels += [TypeLabel("E", n) for n in (6, 7, 8)] + [TypeLabel("F", 4), TypeLabel("G", 2)]
    assert len(labels) == 310 and labels[98] == TypeLabel("A", 99) and labels[-6] == TypeLabel("D", 71)
    for label in labels:
        cartan, lengths, r, h = _cartan_and_lengths(label)
        assert (cartan, lengths, r) == cartan_by_hand(label), label
        assert h == max(published_degrees(label)), label
