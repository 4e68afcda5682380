import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorbit.cli import main
from minorbit import errors
from minorbit.errors import DomainError
from minorbit.gln_springer import (
    PART_BUDGET,
    PARTITION_BUDGET,
    _partition_numbers,
    _regular,
    adjacent_in_dominance,
    conjugate,
    decomp_adjacent,
    dominance_le,
    format_partition,
    is_ell_regular,
    is_ell_restricted,
    minimal_degeneration,
    parse_partition,
    partitions_of,
    psi,
    row_column_reduce,
    springer_image,
)
from minorbit.int_linalg import is_prime

PRIMES = [2, 3, 5, 7]


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n, in O(n sqrt n) integer steps."""
    if n < 0:
        raise DomainError("partitions of a negative integer")
    return next(itertools.islice(_partition_numbers(), n, None))


def row_column_invariance_check(lam, mu, ell: int) -> bool:
    """The adjacent-pair multiplicity is unchanged by row/column removal."""
    if dominance_le(lam, mu):
        lam, mu = mu, lam
    reduced = row_column_reduce(lam, mu)
    return decomp_adjacent(lam, mu, ell) == decomp_adjacent(*reduced, ell)


partition_strategy = st.integers(1, 9).flatmap(
    lambda n: st.sampled_from(partitions_of(n))
)


def test_parse_and_format():
    assert parse_partition("2,1^3") == (2, 1, 1, 1)
    assert parse_partition("4") == (4,)
    assert parse_partition("3, 2 ,1") == (3, 2, 1)
    assert format_partition((3, 1, 1)) == "3,1,1"
    with pytest.raises(DomainError):
        parse_partition("1,2")
    with pytest.raises(DomainError):
        parse_partition("a")
    with pytest.raises(DomainError):
        parse_partition("0")
    # int() refuses so many digits with a bare ValueError
    with pytest.raises(DomainError, match="too many digits"):
        parse_partition("9" * 5000)
    with pytest.raises(DomainError, match="too many digits"):
        parse_partition("1^" + "9" * 5000)


@pytest.mark.parametrize("bad", [0, None, b"2,1", ["2", "1"]], ids=["int", "None", "bytes", "list"])
def test_parse_partition_refuses_anything_but_a_str(bad):
    # an int or None once raised AttributeError, and bytes a TypeError
    with pytest.raises(DomainError, match=f"^a partition is parsed from a str, got {type(bad).__name__}$"):
        parse_partition(bad)


def test_conjugate():
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate(()) == ()


@settings(max_examples=200, deadline=None)
@given(partition_strategy)
def test_conjugate_involutive(p):
    assert conjugate(conjugate(p)) == p


def test_dominance():
    assert dominance_le((1, 1, 1, 1), (4,))
    assert dominance_le((2, 2), (3, 1))
    assert not dominance_le((3, 1), (2, 2))
    assert dominance_le((3, 1), (3, 1))
    with pytest.raises(DomainError):
        dominance_le((2,), (1, 1, 1))


def dominance_by_running_sums(mu, lam):
    """The reference: running sums over the longer length, parts past the end read as 0."""
    total_mu = total_lam = 0
    for i in range(max(len(mu), len(lam))):
        total_mu += mu[i] if i < len(mu) else 0
        total_lam += lam[i] if i < len(lam) else 0
        if total_mu > total_lam:
            return False
    return True


def test_dominance_minimum_and_antitone():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert dominance_le((1,) * n, lam)
            for mu in partitions_of(n):
                assert dominance_le(mu, lam) == dominance_le(conjugate(lam), conjugate(mu))
                assert dominance_le(mu, lam) == dominance_by_running_sums(mu, lam), (mu, lam)


def test_regular_restricted():
    assert is_ell_regular((2, 1), 2) and is_ell_restricted((2, 1), 2)
    assert not is_ell_regular((1, 1, 1), 2)
    assert is_ell_restricted((1, 1, 1), 2)
    assert not is_ell_restricted((3,), 2)
    for n in range(1, 8):
        for p in partitions_of(n):
            assert is_ell_regular(p, 11)
            assert is_ell_restricted(p, 11)
            # restricted iff consecutive differences stay below ell
            padded = p + (0,)
            diffs_ok = all(padded[i] - padded[i + 1] <= 1 for i in range(len(p)))
            assert is_ell_restricted(p, 2) == diffs_ok


def conjugate_by_counts(p):
    """The reference transpose: column i has as many boxes as parts above i."""
    return tuple(sum(1 for x in p if x > i) for i in range(p[0])) if p else ()


def regular_by_counts(p, ell):
    """The reference rule: no part occurs ell times or more."""
    return all(p.count(x) < ell for x in set(p))


def restricted_by_counts(p, ell):
    """The reference rule: the conjugate is ell-regular."""
    return regular_by_counts(conjugate_by_counts(p), ell)


def test_gap_and_run_rules_match_the_conjugate_counts():
    for n in range(1, 31):
        above_n = next(q for q in itertools.count(n + 1) if is_prime(q))
        ells = (2, 3, 5, 7, 11, 13, 31, above_n)
        parts = partitions_of(n)
        conjugates = [conjugate_by_counts(p) for p in parts]
        assert [conjugate(p) for p in parts] == conjugates, n
        for ell in ells:
            restricted = [regular_by_counts(c, ell) for c in conjugates]
            regular = [regular_by_counts(p, ell) for p in parts]
            assert springer_image(n, ell) == tuple(p for p, r in zip(parts, restricted) if r), (n, ell)
            assert [is_ell_restricted(p, ell) for p in parts] == restricted, (n, ell)
            assert [is_ell_regular(p, ell) for p in parts] == regular, (n, ell)
            assert [_regular(p, ell) for p in parts] == regular, (n, ell)


@pytest.mark.parametrize("check", [is_ell_regular, is_ell_restricted])
def test_ell_rules_refuse_ell_below_2_and_non_partitions(check):
    for ell in (1, 0, -3):
        with pytest.raises(DomainError, match="ell must be at least 2"):
            check((2, 1), ell)
    for bad in [(1, 2), (3, 0), (2, -1), (1, 1, 2)]:
        with pytest.raises(DomainError, match="partition parts"):
            check(bad, 2)


def _two_ways(call, partner):
    return [lambda bad: call(bad, partner), lambda bad: call(partner, bad)]


PARTITION_TAKERS = {
    "adjacent_in_dominance": _two_ways(adjacent_in_dominance, (1, 1, 1)),
    "conjugate": [conjugate],
    "decomp_adjacent": _two_ways(lambda a, b: decomp_adjacent(a, b, 2), (1, 1, 1)),
    "dominance_le": _two_ways(dominance_le, (1, 1, 1)),
    "is_ell_regular": [lambda bad: is_ell_regular(bad, 2)],
    "is_ell_restricted": [lambda bad: is_ell_restricted(bad, 2)],
    "minimal_degeneration": _two_ways(minimal_degeneration, (1, 1, 1)),
    "psi": [lambda bad: psi(bad, 2)],
    "row_column_reduce": [lambda bad: row_column_reduce(bad, (1, 1, 1)), lambda bad: row_column_reduce((3,), bad)],
}


@pytest.mark.parametrize("name", sorted(PARTITION_TAKERS))
@pytest.mark.parametrize("bad", [[2, 1], "21", None], ids=["list", "str", "None"])
def test_partition_takers_refuse_anything_but_a_tuple(name, bad):
    # a list once raised a bare TypeError in some and was answered by others
    for call in PARTITION_TAKERS[name]:
        with pytest.raises(DomainError, match=f"^a partition is a tuple of parts, got a {type(bad).__name__}$"):
            call(bad)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (conjugate, ((2.0, 1),), "partition parts must be positive integers"),
        (conjugate, ((True,),), "partition parts must be positive integers"),
        (dominance_le, ((2.0, 1), (2, 1)), "partition parts must be positive integers"),
        (is_ell_regular, ((2, 1), 2.0), "ell must be at least 2 and an int, got 2.0"),
        (psi, ((2, 1), 2.0), "ell must be at least 2 and an int, got 2.0"),
        (is_ell_restricted, ((2, 1), 2.0), "ell must be at least 2 and an int, got 2.0"),
        (is_ell_restricted, ((2, 1), "3"), "ell must be at least 2 and an int, got '3'"),
    ],
)
def test_non_int_parts_and_ell_are_refused(call, args, message):
    # each once raised a bare TypeError or answered as if 2.0 were 2
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        call(*args)


def test_gap_and_run_rules_at_n45(time_budget):
    # p(45) = 89134 partitions, the most the budget admits; enumerated first
    parts = partitions_of(45)
    for ell in (2, 3, 7):
        with time_budget(1.0):
            image = springer_image(45, ell)
        with time_budget(1.0):
            regular = [p for p in parts if _regular(p, ell)]
        # conjugation is a bijection from the ell-restricted onto the ell-regular
        assert len(image) == len(regular)


def test_springer_image_small():
    assert set(springer_image(3, 2)) == {(1, 1, 1), (2, 1)}
    assert set(springer_image(4, 3)) == {(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1)}
    assert set(springer_image(4, 2)) == {(1, 1, 1, 1), (2, 1, 1)}
    assert set(springer_image(2, 2)) == {(1, 1)}
    assert set(springer_image(3, 3)) == {(1, 1, 1), (2, 1)}
    assert springer_image(4, 5) == partitions_of(4)


def test_psi():
    assert psi((4,), 2) == (1, 1, 1, 1)
    assert psi((2, 1), 2) == (2, 1)
    with pytest.raises(DomainError):
        psi((1, 1, 1), 2)


def test_psi_image_is_springer_image():
    for n in range(1, 11):
        for ell in PRIMES:
            regular = [p for p in partitions_of(n) if is_ell_regular(p, ell)]
            image = {psi(mu, ell) for mu in regular}
            assert image == set(springer_image(n, ell))
            assert len(image) == len(regular)  # injective


def test_row_column_reduce():
    assert row_column_reduce((2, 2), (2, 1, 1)) == ((2,), (1, 1))
    assert row_column_reduce((4, 2), (4, 1, 1)) == ((2,), (1, 1))
    # both sides share the first column (height 2), which must go
    assert row_column_reduce((3, 1), (2, 2)) == ((2,), (1, 1))
    assert row_column_reduce((4, 2, 1), (4, 1, 1, 1)) == ((2, 1), (1, 1, 1))
    assert row_column_reduce((2, 1), (1, 1, 1)) == ((2, 1), (1, 1, 1))
    with pytest.raises(DomainError):
        row_column_reduce((2, 1), (2, 1))
    with pytest.raises(DomainError):
        row_column_reduce((2, 2), (3, 1))


def test_row_column_reduce_idempotent():
    for n in range(2, 11):
        for lam, mu in itertools.combinations(partitions_of(n), 2):
            if not dominance_le(mu, lam):
                continue
            reduced = row_column_reduce(lam, mu)
            assert sum(reduced[0]) == sum(reduced[1])
            assert row_column_reduce(*reduced) == reduced
            assert dominance_le(reduced[1], reduced[0])


def test_reduction_reads_column_heights_off_the_parts(time_budget):
    # Conjugating ((10**7,), (10**7 - 1, 1)) to compare columns took 1.6 s;
    # at 10**12 the conjugates would not fit in memory.
    n = 10**12
    with time_budget(1):
        # columns 1 .. n have height 2 on both sides and go
        assert row_column_reduce((n + 2, n), (n + 1, n + 1)) == ((2,), (1, 1))
        assert minimal_degeneration((n,), (n - 1, 1)) == ("simple_A", n)
        assert minimal_degeneration((n, 2, 1, 1), (n, 1, 1, 1, 1)) == ("minimal_a", 4)
        assert decomp_adjacent((n,), (n - 1, 1), 2) == 1
        assert decomp_adjacent((n,), (n - 1, 1), 3) == 0


def test_adjacency():
    assert adjacent_in_dominance((3, 1), (2, 2))
    assert adjacent_in_dominance((2, 2), (3, 1))
    assert not adjacent_in_dominance((4,), (2, 2))
    assert not adjacent_in_dominance((3, 1), (3, 1))
    assert not adjacent_in_dominance((3, 3), (4, 1, 1))  # incomparable


def covers_by_scan(lam, mu):
    """The definition, by scanning all p(n) partitions for one in between."""
    if lam == mu:
        return False
    if dominance_le(lam, mu):
        lam, mu = mu, lam
    elif not dominance_le(mu, lam):
        return False
    return not any(
        nu not in (lam, mu) and dominance_le(mu, nu) and dominance_le(nu, lam) for nu in partitions_of(sum(lam))
    )


def test_cover_rule_matches_the_scan_up_to_10():
    for n in range(1, 11):
        for lam, mu in itertools.product(partitions_of(n), repeat=2):
            assert adjacent_in_dominance(lam, mu) == covers_by_scan(lam, mu), (lam, mu)


def test_adjacency_covers_n6():
    # covers of the dominance lattice on 6 boxes, computed independently
    # from the order relation itself
    ps = partitions_of(6)
    expected = set()
    for lam, mu in itertools.permutations(ps, 2):
        if dominance_le(mu, lam) and mu != lam:
            between = [
                nu
                for nu in ps
                if nu not in (lam, mu) and dominance_le(mu, nu) and dominance_le(nu, lam)
            ]
            if not between:
                expected.add((lam, mu))
    got = {
        (lam, mu)
        for lam, mu in itertools.permutations(ps, 2)
        if dominance_le(mu, lam) and mu != lam and adjacent_in_dominance(lam, mu)
    }
    assert got == expected
    assert ((2, 2, 1, 1), (2, 1, 1, 1, 1)) in got


def test_minimal_degeneration_extremes():
    for n in range(2, 10):
        assert minimal_degeneration((n,), (n - 1, 1)) == ("simple_A", n)
    for n in range(3, 10):
        assert minimal_degeneration((2,) + (1,) * (n - 2), (1,) * n) == ("minimal_a", n)
    # the two extremes coincide on two boxes; ties go to the surface kind
    assert minimal_degeneration((2, 2), (2, 1, 1)) == ("simple_A", 2)
    with pytest.raises(DomainError):
        minimal_degeneration((4,), (2, 2))


def classify_by_reduction(lam, mu):
    """The reference: reduce the pair by row and column removal and read
    which extreme is left, ("simple_A", m) or ("minimal_a", m), else None."""
    if dominance_le(lam, mu):
        lam, mu = mu, lam
    upper, lower = row_column_reduce(lam, mu)
    m = sum(upper)
    if (upper, lower) == ((m,), (m - 1, 1)):
        return "simple_A", m
    if (upper, lower) == ((2,) + (1,) * (m - 2), (1,) * m):
        return "minimal_a", m
    return None


def adjacent_pairs(n):
    """Every adjacent pair of partitions of n, in both orders: by the cover
    rule each lower cover moves one box of the upper partition down."""
    for lam in partitions_of(n):
        padded = lam + (0,)
        for i, j in itertools.combinations(range(len(padded)), 2):
            moved = list(padded)
            moved[i] -= 1
            moved[j] += 1
            mu = tuple(x for x in moved if x)
            if moved == sorted(moved, reverse=True) and adjacent_in_dominance(lam, mu):
                yield lam, mu
                yield mu, lam


def check_minimal_degenerations(top, count):
    """The moved box's rows give the same extreme as the reduction on every
    adjacent pair of partitions of 2 .. top, count of them up to order."""
    pairs = [pair for n in range(2, top + 1) for pair in adjacent_pairs(n)]
    assert len(pairs) == 2 * count
    for lam, mu in pairs:
        assert minimal_degeneration(lam, mu) == classify_by_reduction(lam, mu) is not None, (lam, mu)


def test_minimal_degeneration_never_fails_below_13():
    # up to n = 14; a scan over all pairs of partitions finds the same 810 adjacent pairs
    check_minimal_degenerations(14, 810)


def test_decomp_adjacent_values():
    assert decomp_adjacent((2, 2), (2, 1, 1), 2) == 1
    assert decomp_adjacent((3, 1), (2, 2), 2) == 1
    assert decomp_adjacent((3, 1), (2, 2), 3) == 0
    for n in range(2, 10):
        for ell in PRIMES:
            expected = 1 if n % ell == 0 else 0
            assert decomp_adjacent((n,), (n - 1, 1), ell) == expected
            assert decomp_adjacent((2,) + (1,) * (n - 2), (1,) * n, ell) == expected
    with pytest.raises(DomainError):
        decomp_adjacent((3, 1), (2, 2), 4)


def test_invariance_check_exhaustive():
    for n in range(2, 9):
        for lam, mu in itertools.combinations(partitions_of(n), 2):
            if adjacent_in_dominance(lam, mu):
                for ell in PRIMES:
                    assert row_column_invariance_check(lam, mu, ell)


def test_invariance_check_examples():
    assert row_column_invariance_check((4, 2), (4, 1, 1), 2)
    assert row_column_invariance_check((2,), (1, 1), 2)  # already reduced


def test_partition_count_matches_enumeration():
    for n in range(31):
        assert partition_count(n) == len(partitions_of(n))
        assert list(partitions_of(n)) == sorted(partitions_of(n), reverse=True)
    # Hardy-Ramanujan's values
    assert partition_count(50) == 204226 and partition_count(100) == 190569292
    with pytest.raises(DomainError):
        partition_count(-1)


@pytest.mark.parametrize("n", [5.0, True, "5", [5]])
def test_partitions_of_refuses_a_non_int(n):
    # 5.0 and True equal 5 and 1: refused on a cold cache, and again once p(5) and p(1) are
    # cached; [5] is unhashable, refused before the cache would hash it; none adds an entry
    partitions_of.cache_clear()
    for _ in ("cold", "warm"):
        held = list(errors._store.items())
        with pytest.raises(DomainError, match=rf"^partitions of a non-integer {re.escape(repr(n))}$"):
            partitions_of(n)
        with pytest.raises(DomainError, match=rf"^springer_image needs an int n >= 1, got {re.escape(repr(n))}$"):
            springer_image(n, 2)
        assert list(errors._store.items()) == held
        partitions_of(5), partitions_of(1)


def test_partition_budget_refuses_just_past_the_boundary(time_budget):
    # the boundary comes from the recurrence; the refused n is never enumerated
    n = next(m for m in range(1000) if partition_count(m) > PARTITION_BUDGET)
    assert len(partitions_of(n - 1)) == partition_count(n - 1) <= PARTITION_BUDGET
    partitions_of.cache_clear()
    big = (n,), (n - 1, 1)
    with time_budget(1.0):
        for m in (n, 80, 10**12):
            with pytest.raises(DomainError, match="partition budget"):
                partitions_of(m)
        with pytest.raises(DomainError, match="partition budget"):
            springer_image(n, 2)
        with pytest.raises(DomainError, match="^partitions of a negative integer$"):
            partitions_of(-1)
        assert partitions_of.cache_info() == (0, 5)  # each refused is a miss, and adds no entry
        assert not any(key[0] is partitions_of for key in errors._store)
        # the cover rule is local, so the budget does not limit adjacency
        assert adjacent_in_dominance(*big)
        assert minimal_degeneration(*big) == ("simple_A", n)


def test_part_budget_at_its_boundary(time_budget):
    # the refused inputs stay a tuple of one part and a short string
    with time_budget(3.0):
        assert conjugate((PART_BUDGET,)) == (1,) * PART_BUDGET
        assert psi((PART_BUDGET,), 2) == (1,) * PART_BUDGET
        assert parse_partition(f"1^{PART_BUDGET}") == (1,) * PART_BUDGET
        for big in ((PART_BUDGET + 1,), (10**12, 1)):
            with pytest.raises(DomainError, match="part budget"):
                conjugate(big)
            with pytest.raises(DomainError, match="part budget"):
                psi(big, 2)
        for text in (f"1^{PART_BUDGET + 1}", "2^500000,1^500001", "1^1000000000000"):
            with pytest.raises(DomainError, match="part budget"):
                parse_partition(text)


def test_springer_gln_cli_refuses_over_budget(capsys):
    code = main(["springer-gln", "--n", "80", "--ell", "2"])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out and "partition budget" in captured.err
