import re
from collections import Counter
from fractions import Fraction

import pytest

from golden_data import COHOMOLOGY
from minorbit import int_linalg, long_root_poset, orbit_cohomology
from minorbit.errors import DomainError, InvariantFailureError
from minorbit.int_linalg import cokernel, invariant_factors, kernel_rank
from minorbit.long_root_poset import d_matrix, levels
from minorbit.orbit_cohomology import (
    GradedAbelianGroup,
    OrbitCohomology,
    from_json_dict,
    middle_via_lattice,
    minimal_orbit_cohomology,
    to_json_dict,
    type_a_alternative,
)
from minorbit.root_system import RootSystem, build, parse_type
from minorbit.weyl_oracle import level_length_failure
from test_root_system import bad_primes, weyl_degrees

ALL_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "B2", "B3", "B4", "B5", "B6", "B7", "B8",
    "C2", "C3", "C4", "C5", "C6", "C7", "C8",
    "D4", "D5", "D6", "D7", "D8",
    "E6", "E7", "E8", "F4", "G2",
]
# past the golden tables' rank 8
WIDE_TYPES = ALL_TYPES + ["A30", "B20", "C20", "D20"]


def cone_over_curve(g: int, c: int) -> GradedAbelianGroup:
    """Cohomology of the punctured cone over a smooth projective curve.

    g is the genus, c the degree of the contracted line bundle; the four
    graded pieces are Z, Z^2g, Z^2g + Z/c, Z.
    """
    if g < 0:
        raise DomainError("genus must be nonnegative")
    if c <= 0:
        raise DomainError("the contracted bundle degree must be positive")
    return GradedAbelianGroup(
        {
            0: (1, ()),
            1: (2 * g, ()),
            2: (2 * g, (c,) if c > 1 else ()),
            3: (1, ()),
        }
    )


def bad_torsion_report(oc: OrbitCohomology) -> dict[int, tuple[int, ...]]:
    """Primes dividing torsion away from the middle degree, with locations.

    Every such prime must be a bad prime of the type (all lie in {2, 3, 5}),
    so each torsion coefficient is divided by those alone: a cofactor above
    1 would falsify the computation and raises accordingly.
    """
    bad = sorted(bad_primes(build(oc.type_label)))
    found: dict[int, set[int]] = {}
    for n, (_, torsion) in oc.table.items():
        if n == oc.d:
            continue
        for t in torsion:
            for p in bad:
                if t % p == 0:
                    found.setdefault(p, set()).add(n)
                while t % p == 0:
                    t //= p
            if t > 1:
                raise InvariantFailureError(
                    f"torsion at degree {n} of {oc.type_label} has the cofactor {t} "
                    f"prime to the bad primes {bad}"
                )
    return {p: tuple(sorted(ds)) for p, ds in sorted(found.items())}


def rational_half_check(rs: RootSystem, oc: OrbitCohomology) -> bool:
    """Check the free ranks below the middle against the Weyl-group degrees.

    The multiset of half-degrees carrying a free class below degree d must
    equal {d_i - 2} over the k smallest degrees, k = number of long simple
    roots.
    """
    k = len(rs.long_simple_indices)
    expected = Counter(d - 2 for d in weyl_degrees(rs)[:k])
    got: Counter[int] = Counter()
    for n, (free, _) in oc.table.items():
        if n % 2 == 0 and n < oc.d and free:
            got[n // 2] += free
    return got == expected


def closed_form(label: str) -> dict:
    """The published closed-form tables for the classical families."""
    series, n = label[0], int(label[1:])
    table: dict[int, tuple[int, tuple[int, ...]]] = {}

    def add_rank(i):
        free, torsion = table.get(i, (0, ()))
        table[i] = (free + 1, torsion)

    def set_torsion(i, factors):
        free, torsion = table.get(i, (0, ()))
        assert not torsion
        table[i] = (free, tuple(factors))

    if series == "A":
        m = n + 1  # the family is indexed by the matrix size
        for i in range(0, 2 * m - 3, 2):
            add_rank(i)
        for i in range(2 * m - 1, 4 * m - 4, 2):
            add_rank(i)
        set_torsion(2 * m - 2, (m,))
    elif series == "B":
        for i in range(0, 4 * n - 7, 4):
            add_rank(i)
        for i in range(4 * n - 1, 8 * n - 8, 4):
            add_rank(i)
        for i in range(2 * n - 2, 6 * n - 5):
            if i % 4 == 2:
                set_torsion(i, (2,))
        set_torsion(4 * n - 4, (n,))
    elif series == "C":
        add_rank(0)
        add_rank(4 * n - 1)
        for i in range(2, 4 * n - 1, 2):
            set_torsion(i, (2,))
    else:  # D
        for i in range(0, 4 * n - 7, 4):
            add_rank(i)
        for i in range(4 * n - 5, 8 * n - 12, 4):
            add_rank(i)
        add_rank(2 * n - 4)
        add_rank(6 * n - 9)
        for i in list(range(2 * n - 3, 4 * n - 6)) + list(range(4 * n - 5, 6 * n - 8)):
            if i % 4 == 2:
                set_torsion(i, (2,))
        set_torsion(4 * n - 6, (2, 2) if n % 2 == 0 else (4,))
    return table


@pytest.fixture(params=ALL_TYPES)
def rs(request):
    return build(parse_type(request.param))


def test_golden_exceptional():
    for name, expected in COHOMOLOGY.items():
        oc = minimal_orbit_cohomology(build(parse_type(name)))
        assert dict(oc.table.items()) == expected, name


def test_classical_closed_forms():
    for label in ALL_TYPES:
        if label[0] in "ABCD":
            oc = minimal_orbit_cohomology(build(parse_type(label)))
            assert dict(oc.table.items()) == closed_form(label), label


def test_dimension_and_ends(rs):
    oc = minimal_orbit_cohomology(rs)
    assert oc.d == 2 * rs.h_dual - 2
    assert oc.table.free_rank(0) == 1 and oc.table.torsion(0) == ()
    assert oc.table.free_rank(2 * oc.d - 1) == 1 and oc.table.torsion(2 * oc.d - 1) == ()
    assert all(0 <= n <= 2 * oc.d - 1 for n in oc.table.degrees())


def test_poincare_duality(rs):
    oc = minimal_orbit_cohomology(rs)
    for n in range(0, 2 * oc.d):
        assert oc.table.free_rank(n) == oc.table.free_rank(2 * oc.d - 1 - n)
        assert oc.table.torsion(n) == oc.table.torsion(2 * oc.d - n)


def test_euler_characteristic_zero(rs):
    oc = minimal_orbit_cohomology(rs)
    assert sum((-1) ** n * free for n, (free, _) in oc.table.items()) == 0


def test_odd_degrees_free_and_vanishing_low(rs):
    oc = minimal_orbit_cohomology(rs)
    for n, (free, torsion) in oc.table.items():
        if n % 2:
            assert torsion == ()
            assert n > oc.d - 1


def cohomology_all_matrices(rs):
    """The reference: one Smith form for each of the d - 1 boundary matrices."""
    lv = levels(rs)
    d = 2 * rs.h_dual - 2
    entries = {0: (len(lv[0]), ()), 2 * d - 1: (len(lv[d - 1]), ())}
    for i in range(1, d):
        matrix = d_matrix(rs, i)
        factors = invariant_factors(matrix)
        entries[2 * i] = (len(matrix) - len(factors), tuple(x for x in factors if x > 1))
        entries[2 * i - 1] = (len(matrix[0]) - len(factors), ())
    return GradedAbelianGroup(entries)


# the types of the session-warm benchmark's hot set
HOT_SET = (
    ["G2", "F4", "E6", "E7", "E8"]
    + [f"A{n}" for n in range(3, 13)]
    + [f"B{n}" for n in range(3, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
)


@pytest.mark.parametrize("name", list(dict.fromkeys(WIDE_TYPES + HOT_SET)))
def test_cohomology_equals_the_all_matrices_loop(name):
    # the cached sparse columns against the public dense route, invariant_factors(d_matrix(rs, i))
    rs = build(parse_type(name))
    assert minimal_orbit_cohomology(rs).table == cohomology_all_matrices(rs)


@pytest.mark.parametrize("name", ["G2", "B5", "D5", "E8"])
def test_cohomology_and_the_oracle_leave_the_cached_columns_alone(name):
    rs = build(parse_type(name))
    d = 2 * rs.h_dual - 2
    before = [d_matrix(rs, i) for i in range(1, d)]
    first = minimal_orbit_cohomology(rs)
    for _ in range(2):
        assert minimal_orbit_cohomology(rs) == first
        assert level_length_failure(rs) is None
    assert [d_matrix(rs, i) for i in range(1, d)] == before


@pytest.mark.parametrize("name", ["B5", "E8"])
def test_cohomology_and_the_oracle_never_go_dense(name, monkeypatch):
    rs = build(parse_type(name))
    expected = minimal_orbit_cohomology(rs)

    def refuse(*args):
        raise AssertionError("a dense boundary matrix was built or checked")

    monkeypatch.setattr(long_root_poset, "d_matrix", refuse)
    monkeypatch.setattr(int_linalg, "_shape", refuse)
    assert minimal_orbit_cohomology(rs) == expected
    assert level_length_failure(rs) is None


@pytest.mark.parametrize("name", ["E8", "B5"])
def test_one_smith_form_per_transposed_pair(name, monkeypatch):
    # the record holds the matrices up to the middle one, i = h_dual - 1, alone,
    # and each is factored once, as the rows of its transpose: width |level i|
    rs = build(parse_type(name))
    expected = minimal_orbit_cohomology(rs)
    factored = []
    real_factors = orbit_cohomology._invariant_factors
    monkeypatch.setattr(
        orbit_cohomology, "_invariant_factors", lambda rows, width: factored.append(width) or real_factors(rows, width)
    )
    assert minimal_orbit_cohomology(rs) == expected
    assert len(rs._columns) == rs.h_dual
    assert factored == [len(members) for members in rs._levels[1 : rs.h_dual]]


def test_middle_cross_method(rs):
    oc = minimal_orbit_cohomology(rs)
    assert oc.table.torsion(oc.d) == middle_via_lattice(rs)
    assert oc.table.free_rank(oc.d) == 0


def test_middle_values():
    assert middle_via_lattice(build(parse_type("E8"))) == ()
    assert middle_via_lattice(build(parse_type("B6"))) == (6,)
    assert middle_via_lattice(build(parse_type("D4"))) == (2, 2)
    assert middle_via_lattice(build(parse_type("D5"))) == (4,)
    assert middle_via_lattice(build(parse_type("C7"))) == (2,)


def test_singular_long_simple_cartan_names_type_and_shape(monkeypatch):
    monkeypatch.setattr(orbit_cohomology, "cartan_of_subset", lambda rs, indices: [[2, -4, 0], [-1, 2, 0]])
    message = "B3: the Cartan matrix of its long-simple subsystem (2x3) is singular"
    with pytest.raises(InvariantFailureError) as caught:
        middle_via_lattice(build(parse_type("B3")))
    assert str(caught.value) == message


def check_type_a_alternative(n):
    """The rank-one resolution of A_{n-1} against the matrix route."""
    oc_direct = minimal_orbit_cohomology(build(parse_type(f"A{n - 1}")))
    oc_alt = type_a_alternative(n)
    assert oc_alt.table == oc_direct.table
    assert oc_alt.d == oc_direct.d


def test_type_a_alternative_matches():
    for n in [*range(2, 10), 31, 61]:
        check_type_a_alternative(n)
    assert type_a_alternative(5).table.torsion(8) == (5,)
    # a non-int n is named: 2.0 used to reach TypeLabel as the rank 1.0, and True to pass as n = 1
    for n in [1, 2.0, 5.0, True, False, "5", None]:
        with pytest.raises(DomainError, match=rf"^type A alternative needs an int n >= 2, got n = {re.escape(repr(n))}$"):
            type_a_alternative(n)


def test_type_a_alternative_keeps_the_root_budget(time_budget):
    # A_99 has 9,900 roots; a large n is refused before any entry is made
    assert type_a_alternative(100).table.torsion(198) == (100,)
    with time_budget(1), pytest.raises(DomainError, match="over the budget"):
        type_a_alternative(10**9)
    with pytest.raises(DomainError, match="over the budget"):
        type_a_alternative(101)


def test_cone_over_curve():
    assert dict(cone_over_curve(0, 1).items()) == {0: (1, ()), 3: (1, ())}
    assert dict(cone_over_curve(1, 2).items()) == {
        0: (1, ()),
        1: (2, ()),
        2: (2, (2,)),
        3: (1, ()),
    }
    with pytest.raises(DomainError):
        cone_over_curve(0, 0)
    with pytest.raises(DomainError):
        cone_over_curve(-1, 2)


def test_cone_gysin_oracle():
    # cone over P^1 embedded with degree c: run the two-term complexes
    # through the exact kernel/cokernel machinery independently
    for c in range(1, 9):
        got = cone_over_curve(0, c)
        free2, torsion2 = cokernel([[c]])
        expected = GradedAbelianGroup(
            {
                0: (1, ()),
                1: (kernel_rank([[c]]), ()),
                2: (free2, torsion2),
                3: (1, ()),
            }
        )
        assert got == expected


def test_cone_matches_minimal_orbit_of_rank_one():
    oc = minimal_orbit_cohomology(build(parse_type("A1")))
    sliced = GradedAbelianGroup({n: entry for n, entry in oc.table.items() if n <= 3})
    assert cone_over_curve(0, 2) == sliced


@pytest.mark.parametrize("rs", WIDE_TYPES, indirect=True)
def test_bad_torsion_report(rs):
    oc = minimal_orbit_cohomology(rs)
    report = bad_torsion_report(oc)
    assert set(report) <= bad_primes(rs)


def test_bad_torsion_values():
    e8 = minimal_orbit_cohomology(build(parse_type("E8")))
    report = bad_torsion_report(e8)
    assert set(report) == {2, 3, 5}
    assert report[5] == (48, 68)
    a6 = minimal_orbit_cohomology(build(parse_type("A6")))
    assert bad_torsion_report(a6) == {}
    g2 = minimal_orbit_cohomology(build(parse_type("G2")))
    assert bad_torsion_report(g2) == {3: (4, 8)}


def test_bad_torsion_flags_violations():
    oc = minimal_orbit_cohomology(build(parse_type("A3")))
    broken = type(oc)(
        oc.type_label, oc.d, oc.h_dual, GradedAbelianGroup({0: (1, ()), 2: (0, (7,))})
    )
    with pytest.raises(InvariantFailureError):
        bad_torsion_report(broken)


def test_bad_torsion_refuses_a_large_cofactor_at_once(time_budget):
    # factoring this semiprime by trial division would take ~10^9 steps
    semiprime = (10**9 + 7) * (10**9 + 9)
    obj = to_json_dict(minimal_orbit_cohomology(build(parse_type("G2"))))
    next(e for e in obj["H"] if e["n"] == 4)["torsion"] = [3 * semiprime]
    with time_budget(1), pytest.raises(InvariantFailureError, match=f"degree 4 of G2 .* cofactor {semiprime}"):
        bad_torsion_report(from_json_dict(obj))


@pytest.mark.parametrize("rs", WIDE_TYPES, indirect=True)
def test_rational_half_check(rs):
    assert rational_half_check(rs, minimal_orbit_cohomology(rs))


def test_level_size_palindrome(rs):
    lv = levels(rs)
    sizes = [len(l) for l in lv]
    assert sizes == sizes[::-1]


def test_json_round_trip(rs):
    oc = minimal_orbit_cohomology(rs)
    again = from_json_dict(to_json_dict(oc))
    assert again == oc


@pytest.mark.parametrize("bad", [0, None, {"type": "A3"}], ids=["int", "None", "dict"])
def test_to_json_dict_refuses_anything_but_an_orbit_cohomology(bad):
    # each once raised AttributeError
    with pytest.raises(DomainError, match=f"^the JSON form is of an OrbitCohomology, got {type(bad).__name__}$"):
        to_json_dict(bad)


def test_graded_group_validation():
    with pytest.raises(DomainError):
        GradedAbelianGroup({0: (0, (3, 2))})
    with pytest.raises(DomainError):
        GradedAbelianGroup({0: (0, (1,))})
    with pytest.raises(DomainError):
        GradedAbelianGroup({0: (-1, ())})
    # a bad entry after the first
    for torsion in [(2, 0), (2, -4)]:
        with pytest.raises(DomainError, match="below 2"):
            GradedAbelianGroup({0: (0, torsion)})
    # non-int entries, bools too: True would be a free rank of 1
    for free in [1.5, 1.0, True, False, "1", None]:
        with pytest.raises(DomainError, match="free rank"):
            GradedAbelianGroup({0: (free, ())})
    for torsion in [(2.0,), (2, 4.0), (True,), (2, "4"), (Fraction(4),)]:
        with pytest.raises(DomainError, match="not an int"):
            GradedAbelianGroup({0: (1, torsion)})
    g = GradedAbelianGroup({0: (0, ()), 2: (1, (2, 4))})
    assert g.degrees() == (2,)


@pytest.mark.parametrize(
    "entries, reason",
    [
        ([(0, (1, ()))], "is a dict"),
        ({-1: (1, ())}, "^degree -1 is not an int >= 0$"),
        ({True: (1, ())}, "^degree True is not"),
        ({0.5: (1, ())}, "^degree 0.5 is not"),
        ({0: (1, ()), "2": (1, ())}, "^degree '2' is not"),
        ({0: 1}, "^degree 0: 1 is not a \\(free rank, torsion\\) pair"),
        ({0: (1,)}, "is not a \\(free rank, torsion\\) pair"),
        ({0: (1, (), ())}, "is not a \\(free rank, torsion\\) pair"),
        ({0: (1, 2)}, "is not a \\(free rank, torsion\\) pair"),
        ({0: (1, "23")}, "is not a \\(free rank, torsion\\) pair"),
    ],
    ids=["list", "negative", "bool", "float", "str-next-to-int", "int-entry", "one", "three", "int-torsion", "str-torsion"],
)
def test_graded_group_refuses_a_malformed_map(entries, reason):
    # each is refused as such: no TypeError or AttributeError, no group made
    with pytest.raises(DomainError, match=reason):
        GradedAbelianGroup(entries)


@pytest.mark.parametrize("bad", [True, "2", 2.0])
def test_from_json_dict_leaves_the_torsion_check_to_the_group(bad):
    # one home for the torsion check: the group's, reached through the JSON form
    good = to_json_dict(minimal_orbit_cohomology(build(parse_type("G2"))))
    entries = [dict(e, torsion=e["torsion"] + [bad]) if e["torsion"] else e for e in good["H"]]
    with pytest.raises(DomainError, match=f"'torsion' .* has an entry {re.escape(repr(bad))} that is not an int$"):
        from_json_dict({**good, "H": entries})


@pytest.mark.parametrize(
    "field, path",
    [
        ("type", ()),
        ("d", ()),
        ("h_dual", ()),
        ("H", ()),
        ("n", ("H", 0)),
        ("rank", ("H", 0)),
        ("torsion", ("H", 0)),
    ],
)
def test_from_json_dict_names_missing_field(field, path):
    obj = to_json_dict(minimal_orbit_cohomology(build(parse_type("B3"))))
    holder = obj
    for key in path:
        holder = holder[key]
    del holder[field]
    with pytest.raises(DomainError, match=repr(field)):
        from_json_dict(obj)


def test_from_json_dict_names_ill_typed_field():
    good = to_json_dict(minimal_orbit_cohomology(build(parse_type("G2"))))
    for field, bad in [("type", 2), ("d", "6"), ("h_dual", True), ("H", {})]:
        with pytest.raises(DomainError, match=repr(field)):
            from_json_dict({**good, field: bad})
    for field, bad in [("n", 1.0), ("rank", None), ("torsion", 2), ("torsion", ["2"])]:
        entries = [dict(good["H"][0], **{field: bad})] + good["H"][1:]
        with pytest.raises(DomainError, match=repr(field)):
            from_json_dict({**good, "H": entries})
    with pytest.raises(DomainError, match="'type'"):
        from_json_dict(["A2"])


def test_from_json_dict_rejects_d_or_h_dual_contradicting_the_type():
    # bad input, refused as such: loaded, it would fail bad_torsion_report as a bug
    good = to_json_dict(minimal_orbit_cohomology(build(parse_type("B3"))))
    for bad, field in [({"d": 7}, "d"), ({"type": "A1"}, "h_dual"), ({"h_dual": 4, "d": 6}, "h_dual")]:
        with pytest.raises(DomainError, match=repr(field)):
            from_json_dict({**good, **bad})
    # a degree outside 0 .. 2d - 1 (A2 has d = 4), or one given twice
    a2 = to_json_dict(minimal_orbit_cohomology(build(parse_type("A2"))))
    for n in [-3, -1, 8, 99]:
        with pytest.raises(DomainError, match=f"degree n = {n} is repeated or outside 0 .. 7"):
            from_json_dict({**a2, "H": a2["H"] + [{"n": n, "rank": 1, "torsion": []}]})
    repeated = [{"n": 0, "rank": 1, "torsion": []}, {"n": 0, "rank": 5, "torsion": []}]
    with pytest.raises(DomainError, match="degree n = 0 is repeated"):
        from_json_dict({**a2, "H": repeated})


def test_from_json_dict_builds_no_root_system(time_budget):
    # h_dual has a closed form per series, so loading a document runs no closure
    before = build.cache_info()
    with time_budget(0.1):
        oc = from_json_dict({"type": "D71", "d": 278, "h_dual": 140, "H": [{"n": 0, "rank": 1, "torsion": []}]})
    assert oc.h_dual == 140 and oc.table.free_rank(0) == 1
    after = build.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    with pytest.raises(DomainError, match="A100 has 10100 roots, over the budget"):
        from_json_dict({"type": "A100", "d": 200, "h_dual": 101, "H": []})


def test_json_helpers_exported():
    import minorbit

    assert minorbit.to_json_dict is to_json_dict and minorbit.from_json_dict is from_json_dict
