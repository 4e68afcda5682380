import re

import pytest

from minorbit.decomposition import (
    character_degree,
    characters,
    decomp_minimal,
    decomp_subregular,
    simple_singularity,
)
from minorbit import decomposition, errors, int_linalg
from minorbit.errors import DomainError, InvalidTypeError, InvariantFailureError
from minorbit.int_linalg import tensor_f_dimension
from minorbit.orbit_cohomology import _lattice_quotient, _long_simple_quotient
from minorbit.root_system import TypeLabel, build, cartan_of_subset, parse_type
from test_weyl_oracle import added_slots, clear_store, held

ALL_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "B2", "B3", "B4", "B5", "B6", "B7", "B8",
    "C2", "C3", "C4", "C5", "C6", "C7", "C8",
    "D4", "D5", "D6", "D7", "D8",
    "E6", "E7", "E8", "F4", "G2",
]
PRIMES = [2, 3, 5, 7]


def test_simple_singularity_homogeneous():
    for label in ["A1", "A5", "D4", "D7", "E6", "E7", "E8"]:
        data = simple_singularity(parse_type(label))
        assert data.gamma_hat == data.gamma
        assert data.symmetry_group == "trivial"


def test_singular_homogeneous_cartan_names_type_and_shape(monkeypatch):
    monkeypatch.setattr(decomposition, "cartan_matrix", lambda label: [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    message = "G2: the Cartan matrix of its homogeneous diagram D4 (3x3) is singular"
    simple_singularity.cache_clear()  # a stored G2 would answer before the patched Cartan matrix
    try:
        with pytest.raises(InvariantFailureError) as caught:
            simple_singularity(parse_type("G2"))
    finally:
        simple_singularity.cache_clear()
    assert str(caught.value) == message


def test_simple_singularity_table():
    cases = {
        "A4": ("A4", "trivial", (5,)),
        "B2": ("A3", "Z2", (4,)),
        "B5": ("A9", "Z2", (10,)),
        "C2": ("A3", "Z2", (4,)),
        "C3": ("D4", "Z2", (2, 2)),
        "C4": ("D5", "Z2", (4,)),
        "F4": ("E6", "Z2", (3,)),
        "G2": ("D4", "S3", (2, 2)),
        "E8": ("E8", "trivial", ()),
    }
    for label, (hat, sym, quotient) in cases.items():
        data = simple_singularity(parse_type(label))
        assert (str(data.gamma_hat), data.symmetry_group, data.quotient) == (hat, sym, quotient)


def test_characters():
    assert characters("trivial", 5) == ("1",)
    assert characters("Z2", 2) == ("1",)
    assert characters("Z2", 3) == ("1", "eps")
    assert characters("S3", 2) == ("1", "psi")
    assert characters("S3", 3) == ("1", "eps")
    assert characters("S3", 5) == ("1", "eps", "psi")
    with pytest.raises(DomainError):
        characters("Z2", 4)
    assert character_degree("psi") == 2


@pytest.mark.parametrize("name", ["x", "PSI", "", None, 2, 2.0, ["1"], ("1",)])
def test_character_degree_refuses_an_unknown_name(name):
    # once a KeyError, or a TypeError for an unhashable name
    with pytest.raises(DomainError, match=f"^unknown character {re.escape(repr(name))}$"):
        character_degree(name)


def expected_minimal(label: str, ell: int) -> int:
    series, n = label[0], int(label[1:])
    if series == "A":
        return 1 if (n + 1) % ell == 0 else 0
    if series == "B":
        return 1 if n % ell == 0 else 0
    if series in ("C", "G"):
        return 1 if ell == 2 else 0
    if series == "D":
        if ell != 2:
            return 0
        return 2 if n % 2 == 0 else 1
    if series == "F":
        return 1 if ell == 3 else 0
    return {6: 1 if ell == 3 else 0, 7: 1 if ell == 2 else 0, 8: 0}[n]


def test_decomp_minimal_full_table():
    for label in ALL_TYPES:
        for ell in PRIMES:
            assert decomp_minimal(parse_type(label), ell) == expected_minimal(label, ell), (
                label,
                ell,
            )


def test_decomp_minimal_examples():
    assert decomp_minimal(parse_type("C5"), 2) == 1
    for ell in PRIMES:
        assert decomp_minimal(parse_type("E8"), ell) == 0
    assert decomp_minimal(parse_type("F4"), 3) == 1


def test_decomp_minimal_positive_iff_divides_connection_index():
    import math

    from minorbit.orbit_cohomology import middle_via_lattice
    from minorbit.root_system import build

    for label in ALL_TYPES:
        rs = build(parse_type(label))
        index = math.prod(middle_via_lattice(rs)) if middle_via_lattice(rs) else 1
        for ell in PRIMES:
            positive = decomp_minimal(parse_type(label), ell) > 0
            assert positive == (index % ell == 0)


def test_decomp_subregular_cases():
    cases = [
        ("B4", 2, {"1": 1}),
        ("B6", 3, {"1": 0, "eps": 1}),
        ("B4", 3, {"1": 0, "eps": 0}),
        ("B5", 5, {"1": 0, "eps": 1}),
        ("C4", 2, {"1": 1}),
        ("C3", 2, {"1": 2}),
        ("C5", 3, {"1": 0, "eps": 0}),
        ("F4", 2, {"1": 0}),
        ("F4", 3, {"1": 0, "eps": 1}),
        ("F4", 5, {"1": 0, "eps": 0}),
        ("G2", 2, {"1": 0, "psi": 1}),
        ("G2", 3, {"1": 0, "eps": 0}),
        ("G2", 7, {"1": 0, "eps": 0, "psi": 0}),
        ("A3", 2, {"1": 1}),
        ("A4", 5, {"1": 1}),
        ("A4", 3, {"1": 0}),
        ("D5", 2, {"1": 1}),
        ("D6", 2, {"1": 2}),
        ("E6", 3, {"1": 1}),
        ("E7", 2, {"1": 1}),
        ("E8", 2, {"1": 0}),
        ("B2", 2, {"1": 1}),
        ("B7", 7, {"1": 0, "eps": 1}),
        ("B10", 5, {"1": 0, "eps": 1}),
        ("B4", 5, {"1": 0, "eps": 0}),
        ("C2", 2, {"1": 1}),
        ("C7", 2, {"1": 2}),
        ("C4", 7, {"1": 0, "eps": 0}),
        ("F4", 7, {"1": 0, "eps": 0}),
        ("G2", 5, {"1": 0, "eps": 0, "psi": 0}),
    ]
    for big in (10**9 + 7, 2**31 - 1):
        cases += [
            ("B6", big, {"1": 0, "eps": 0}),
            ("C3", big, {"1": 0, "eps": 0}),
            ("F4", big, {"1": 0, "eps": 0}),
            ("G2", big, {"1": 0, "eps": 0, "psi": 0}),
        ]
    for label, ell, expected in cases:
        # the CLI prints the map in its own order, so the order is pinned too
        assert list(decomp_subregular(parse_type(label), ell).items()) == list(expected.items()), (label, ell)


def test_subregular_consistency_sum():
    # weighted by character degree, multiplicities must give the dimension
    # of the quotient mod ell (also asserted internally; re-checked here)
    for label in ALL_TYPES:
        data = simple_singularity(parse_type(label))
        for ell in PRIMES:
            mults = decomp_subregular(parse_type(label), ell)
            assert tuple(mults) == characters(data.symmetry_group, ell)
            weighted = sum(character_degree(name) * m for name, m in mults.items())
            assert weighted == tensor_f_dimension(data.quotient, 0, ell)


def test_gl_side_match():
    # for A_{n-1} the minimal-class number matches the adjacent-pair value
    # at the bottom of the dominance order
    from minorbit.gln_springer import decomp_adjacent

    for n in range(2, 10):
        for ell in PRIMES:
            lam = (2,) + (1,) * (n - 2)
            mu = (1,) * n
            assert decomp_minimal(parse_type(f"A{n - 1}"), ell) == decomp_adjacent(lam, mu, ell)


def test_prime_validation():
    with pytest.raises(DomainError):
        decomp_minimal(parse_type("A2"), 6)
    with pytest.raises(DomainError):
        decomp_subregular(parse_type("B3"), 1)


def test_ell_is_tested_before_the_record_is_built():
    # a refused ell makes no quotient and no record
    clear_store()
    try:
        with pytest.raises(DomainError, match="^4 is not prime$"):
            decomp_minimal(TypeLabel("A", 99), 4)
        assert held() == [] and _long_simple_quotient.cache_info() == build.cache_info() == (0, 0)
    finally:
        clear_store()


def test_decomp_minimal_builds_no_record():
    # A99's record, 9,900 roots, takes tens of ms to build; its quotient is read from the diagram
    clear_store()
    try:
        assert decomp_minimal(TypeLabel("A", 99), 2) == 1
        assert build.cache_info().misses == 0
        assert [(name, key) for name, key, _ in held()] == [("_long_simple_quotient", TypeLabel("A", 99))]
    finally:
        clear_store()


@pytest.mark.parametrize("name", ["G2", "F4", "B3", "C4", "D4", "D5", "E6", "E7", "E8", "A9"])
def test_the_stored_quotient_is_the_record_route(name):
    # the diagram route against the principal submatrix of the record's Cartan matrix on the
    # long simple indices build lists
    rs = build(parse_type(name))
    cartan = cartan_of_subset(rs, rs.long_simple_indices)
    assert _long_simple_quotient(rs.type_label) == _lattice_quotient(rs.type_label, "the record", cartan), name


@pytest.mark.parametrize("ell", [2, 3, 5, 10**9 + 7])
def test_decomp_subregular_tests_ell_once(ell, monkeypatch):
    calls = []
    for module in (int_linalg, decomposition):
        if hasattr(module, "is_prime"):
            monkeypatch.setattr(module, "is_prime", lambda p, f=int_linalg.is_prime: calls.append(p) or f(p))
    for label in ("A4", "B3", "G2"):
        calls.clear()
        decomp_subregular(parse_type(label), ell)
        assert calls == [ell], label


def test_a_refused_ell_makes_no_quotient():
    clear_store()
    try:
        for ell in (4, 1, 4.0):
            for call in (decomp_subregular, decomp_minimal):
                with pytest.raises(DomainError, match="is not prime|non-integer"):
                    call(parse_type("G2"), ell)
        assert held() == [] and errors._store.slots == 0
    finally:
        clear_store()


@pytest.mark.parametrize(
    "call",
    [decomp_minimal, decomp_subregular, lambda label, ell: simple_singularity(label)],
    ids=["minimal", "subregular", "simple"],
)
def test_a_refused_type_wins_over_a_refused_ell(call):
    # the type's own checks come first, the homogeneous diagram's included where the
    # subregular numbers read it
    cases = [
        ("A2", InvalidTypeError, "expected a TypeLabel (see parse_type), got 'A2'"),
        (TypeLabel("A", 200), DomainError, "A200 has 40200 roots, over the budget of 10000"),
    ]
    if call is not decomp_minimal:  # B51's record is within the budget; its minimal number is 0 or 1
        cases.append(
            (TypeLabel("B", 51), DomainError, "B51: the homogeneous diagram A101 has 10302 roots, over the budget of 10000")
        )
    for label, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(label, 4)


@pytest.mark.parametrize("label", ["A1", "B3", "C3", "C4", "D4", "E8", "F4", "G2"])
def test_a_quotient_weighs_the_tuple_slots_it_adds(label):
    # one entry per type and quotient, keyed on the label and weighed in closed form before it
    # is made: for the simple singularity, the record's four slots, two for a homogeneous diagram
    # that is not the label itself, one per invariant factor (none for E8, two for the D4 of C3,
    # D4 and G2); for the long-simple subsystem, one per invariant factor (none for E8, two for D4)
    key = parse_type(label)
    clear_store()
    try:
        assert simple_singularity.cache_info() == (0, 0)  # the store's clear resets every count
        data = simple_singularity(key)
        [(name, held_key, weight)] = held()
        assert (name, held_key) == ("simple_singularity", key)
        assert weight == added_slots(data, {id(key)}) == errors._store.slots
        assert decomp_subregular(key, 2) and simple_singularity(key) is data and len(held()) == 1
        assert simple_singularity.cache_info() == (2, 1)
        quotient = _long_simple_quotient(key)
        [_, (name, held_key, long_weight)] = held()
        assert (name, held_key) == ("_long_simple_quotient", key)
        assert long_weight == added_slots(quotient, set()) == errors._store.slots - weight
        assert decomp_minimal(key, 2) >= 0 and _long_simple_quotient(key) is quotient and len(held()) == 2
        assert _long_simple_quotient.cache_info() == (2, 1)
    finally:
        clear_store()


B51 = "B51: the homogeneous diagram A101 has 10302 roots, over the budget of 10000"
B71 = "B71 has 10082 roots, over the budget of 10000"


@pytest.mark.parametrize(
    "call, last, message",
    [
        # B50's homogeneous diagram A99 is the largest within the budget; B70 is the last B admitted
        (simple_singularity, 50, B51),
        (lambda label: decomp_subregular(label, 3), 50, B51),
        (_long_simple_quotient, 70, B71),
        (lambda label: decomp_minimal(label, 3), 70, B71),
    ],
    ids=["simple", "subregular", "long-simple", "minimal"],
)
def test_a_refused_type_adds_no_entry(call, last, message, monkeypatch):
    refusals = [
        ("B3", InvalidTypeError, "expected a TypeLabel (see parse_type), got 'B3'"),
        (["B", 3], InvalidTypeError, "expected a TypeLabel (see parse_type), got ['B', 3]"),
        (TypeLabel("B", last + 1), DomainError, message),
    ]
    clear_store()
    try:
        for label, error, refusal in refusals:
            with pytest.raises(error, match=f"^{re.escape(refusal)}$"):
                call(label)
            assert held() == [] and errors._store.slots == 0
        call(TypeLabel("B", last))
        before = held()
        # with the store full, a slot reserved for the refused type would drop the admitted one's entry
        monkeypatch.setattr(errors, "CACHE_BUDGET", errors._store.slots)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(TypeLabel("B", last + 1))
        assert held() == before and [key for _, key, _ in before] == [TypeLabel("B", last)]
        assert errors._store.slots == sum(slots for *_, slots in before)
    finally:
        clear_store()
