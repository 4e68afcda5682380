import itertools
import math
import random
import re
import tracemalloc
from collections import Counter
from operator import add, itemgetter, sub

import pytest

from minorbit import cli, errors, long_root_poset, weyl_oracle
from minorbit.decomposition import simple_singularity
from minorbit.errors import DomainError, InvariantFailureError, weighed_cache
from minorbit.gln_springer import partitions_of
from minorbit.long_root_poset import level
from minorbit.orbit_cohomology import minimal_orbit_cohomology
from minorbit.root_system import (
    RootSystem,
    TypeLabel,
    build,
    cartan_of_subset,
    height,
    highest_root,
    is_long,
    parse_type,
)
from minorbit.weyl_oracle import (
    ORACLE_BUDGET,
    WeylElement,
    _check_budget,
    _compose,
    _coset_count,
    _orthogonal_simple_indices,
    _reflection_table,
    _simple_reflections,
    _verify_table,
    _walk,
    coset_reps,
    level_length_failure,
    reflection_length_failure,
    verify_level_length,
    verify_reflection_length,
)
from test_int_linalg import benchmark_workloads
from test_long_root_poset import edge_coefficient
from test_root_system import FIRST_RANK, Poisoned, bilinear, coxeter_number, reflect, simple_roots, weyl_degrees

SMALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]
# every type with |W| <= |W(E6)| = 51840
UP_TO_E6 = (
    [f"A{n}" for n in range(1, 8)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)]
    + ["D4", "D5", "D6", "E6", "F4", "G2"]
)


# The independent oracle: the closure of the identity under the simple
# reflections over all of W, with byte permutations composed through
# bytes.translate, then the minimal representatives picked out by
# positivity on the simple roots of I.

_IDENTITY_TAIL = bytes(range(256))


def root_index(rs) -> dict:
    return {root: i for i, root in enumerate(rs.roots)}


def group_order(rs) -> int:
    return math.prod(weyl_degrees(rs))


def _length_of(perm, npos: int) -> int:
    """Number of positive roots sent to negative ones."""
    return sum(1 for i in range(npos) if perm[i] >= npos)


def enumerate_group(rs) -> list[WeylElement]:
    """All of W by closure under right multiplication, lengths counted."""
    nroots = len(rs.roots)
    assert nroots <= 255 and group_order(rs) <= 51840
    index = root_index(rs)
    gens = [bytes(index[reflect(rs, v, s)] for v in rs.roots) for s in simple_roots(rs)]
    ident = bytes(range(nroots))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            padded = w + _IDENTITY_TAIL[nroots:]
            for s in gens:
                ws = s.translate(padded)  # i -> w[s[i]], the product w o s
                if ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        frontier = nxt
    npos = nroots // 2
    return [WeylElement(tuple(w), _length_of(w, npos)) for w in seen]


def filtered_coset_reps(rs, group, indices) -> set[WeylElement]:
    """The elements keeping every simple root of I positive."""
    npos = len(rs.positive_roots)
    index = root_index(rs)
    positions = [index[simple_roots(rs)[i]] for i in indices]
    return {w for w in group if all(w.perm[p] < npos for p in positions)}


def formula_lengths(rs) -> list[int]:
    """l(s_b) for every positive b by heights alone, with no group element:
    s_b(g) = g - <g, b^vee> b has height ht(g) - <g, b^vee> ht(b), so s_b
    sends g negative iff ht(g) norm < 2 dot ht(b), with norm = 2(b|b) and
    dot = 2(g|b)."""
    positive = rs.positive_roots
    heights = [height(g) for g in positive]
    columns = list(zip(*positive))  # column k: coordinate k of every positive root
    lengths = []
    for b, hb in zip(positive, heights):
        norm = bilinear(rs, b, b)
        # 2(g|b) = sum_k g_k 2(alpha_k|b), so <g, b^vee> = 2 dot / norm
        dots = [0] * len(positive)
        for column, t in zip(columns, (bilinear(rs, s, b) for s in simple_roots(rs))):
            if t:
                dots = [d + t * x for d, x in zip(dots, column)]
        lengths.append(sum(h * norm < 2 * hb * d for h, d in zip(heights, dots)))
    return lengths


def reflection_perm(rs, index, gamma) -> tuple[int, ...]:
    """The reference permutation of the roots made by the reflection in gamma, from the
    Gram form and not the Cartan matrix the oracle reads.  Only the positive v with
    2(v|gamma) = sum_k v_k 2(alpha_k|gamma) != 0 are looked up; s_gamma(-v) = -s_gamma(v)."""
    positive = rs.positive_roots
    npos = len(positive)
    dots = [0] * npos
    for k, s in enumerate(simple_roots(rs)):
        if t := bilinear(rs, s, gamma):
            dots = list(map(add, dots, map(t.__mul__, map(itemgetter(k), positive))))
    norm = bilinear(rs, gamma, gamma)
    shift = {c: tuple(c * g for g in gamma) for c in (-3, -2, -1, 1, 2, 3)}  # |<v, gamma^vee>| <= 3
    perm = list(range(npos))
    for i in itertools.compress(range(npos), dots):
        perm[i] = index[tuple(map(sub, positive[i], shift[2 * dots[i] // norm]))]
    return tuple(perm + [p + npos if p < npos else p - npos for p in perm])


def invert(perm: tuple) -> tuple:
    inv = [0] * len(perm)
    for i, image in enumerate(perm):
        inv[image] = i
    return tuple(inv)


def test_group_orders():
    assert group_order(build(parse_type("A2"))) == 6
    assert group_order(build(parse_type("B3"))) == 48
    assert group_order(build(parse_type("F4"))) == 1152
    assert group_order(build(parse_type("E6"))) == 51840


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_enumeration_count_and_lengths(label):
    rs = build(parse_type(label))
    elements = coset_reps(rs, ())
    assert len(elements) == group_order(rs)
    nu = len(rs.positive_roots)
    longest = max(w.length for w in elements)
    assert longest == nu
    assert sum(1 for w in elements if w.length == 0) == 1


def test_guard(time_budget):
    # |W(E7)| * |Phi| = 2903040 * 126 is over the budget, refused before any work
    e7 = build(parse_type("E7"))
    with time_budget(1.0), pytest.raises(DomainError, match="over the budget"):
        coset_reps(e7, ())


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_coset_reps_counts(label):
    rs = build(parse_type(label))
    whole = enumerate_group(rs)
    assert set(coset_reps(rs, ())) == set(whole)
    assert len(coset_reps(rs, tuple(range(rs.rank)))) == 1
    indices = _orthogonal_simple_indices(rs)
    reps = coset_reps(rs, indices)
    sub_order = group_order(rs) // len(reps)
    assert len(reps) * sub_order == group_order(rs)
    assert len(reps) == sum(1 for v in rs.roots if is_long(rs, v))


@pytest.mark.parametrize("label", UP_TO_E6)
def test_coset_reps_equal_the_filtered_group(label):
    rs = build(parse_type(label))
    group = enumerate_group(rs)
    assert len(group) == group_order(rs)
    subsets = [(), _orthogonal_simple_indices(rs)]
    if rs.rank <= 4:
        subsets += [I for k in range(1, rs.rank + 1) for I in itertools.combinations(range(rs.rank), k)]
    for indices in subsets:
        reps = coset_reps(rs, indices)
        assert len(reps) == _coset_count(rs, indices)
        assert set(reps) == filtered_coset_reps(rs, group, indices), indices
        assert [w.length for w in reps] == sorted(w.length for w in reps)


@pytest.mark.parametrize("label", UP_TO_E6 + ["E7", "E8", "A30", "B20", "C20", "D20"])
def test_coset_count_closed_form(label):
    rs = build(parse_type(label))
    assert _coset_count(rs, ()) == group_order(rs)
    assert _coset_count(rs, tuple(range(rs.rank))) == 1
    n_long = sum(1 for v in rs.roots if is_long(rs, v))
    assert _coset_count(rs, _orthogonal_simple_indices(rs)) == n_long


@pytest.mark.parametrize("label", UP_TO_E6 + ["E7", "E8", "A30", "B20", "C20", "D20"])
def test_reflection_table(label):
    # the simple reflections made from the Cartan matrix, and every s_gamma
    # conjugated from them, equal the ones made from the Gram form; each is an
    # involution, negates gamma, and has the length the height formula counts
    rs = build(parse_type(label))
    index = root_index(rs)
    npos = len(rs.positive_roots)
    for s, alpha in zip(_simple_reflections(rs), simple_roots(rs)):
        assert s == reflection_perm(rs, index, alpha) == tuple(index[reflect(rs, v, alpha)] for v in rs.roots)
    table = tuple(_reflection_table(rs, _simple_reflections(rs)))
    assert len(table) == npos
    identity = tuple(range(len(rs.roots)))
    for k, (gamma, s, length) in enumerate(zip(rs.positive_roots, table, formula_lengths(rs))):
        assert s == reflection_perm(rs, index, gamma), gamma
        assert _compose(s, s) == identity
        assert s[k] == k + npos
        assert _length_of(s, npos) == length, gamma


@pytest.mark.parametrize(
    "label", sorted(set(SMALL_TYPES + UP_TO_E6)) + ["E7", "E8", "A30", "B20", "C20", "D20", "A99", "B70", "C70", "D71"]
)
def test_the_positions_the_oracle_reads(label):
    # coset_reps takes alpha_k at root k and level_length_failure the highest root at
    # |Phi^+| - 1, where build's sort by height, then by decreasing coordinates, puts them
    rs = build(parse_type(label))
    npos = len(rs.positive_roots)
    for k, alpha in enumerate(simple_roots(rs)):
        assert rs.roots[k] == alpha, k
    top = rs.positive_roots[-1]
    assert rs.roots[npos - 1] is top
    assert height(top) == coxeter_number(rs) - 1
    assert all(t >= x for v in rs.positive_roots for t, x in zip(top, v))
    if npos * len(rs.roots) <= 1_000_000:  # the table at A99 would hold 49,005,000 entries
        assert tuple(_reflection_table(rs, _simple_reflections(rs)))[: rs.rank] == _simple_reflections(rs)


def clear_store():
    # the package's one store; the oracle's table is keyed on the type label, which a copy of the record shares
    errors.cache_clear()


def held() -> list:
    """Each entry of the one store, least recently used first: (function name, key, slots)."""
    return [(fn.__name__, key, slots) for (fn, key), (_, slots) in errors._store.items()]


def added_slots(obj, known: set) -> int:
    """Tuple slots in obj and in what it holds, named tuples included, each object counted once and
    none whose id is in known."""
    if not isinstance(obj, (tuple, dict)) or id(obj) in known:
        return 0
    known.add(id(obj))
    held = [*obj.keys(), *obj.values()] if isinstance(obj, dict) else obj
    return (len(obj) if isinstance(obj, tuple) else 0) + sum(added_slots(x, known) for x in held)


@pytest.mark.parametrize("label", ["A1", "A3", "B3", "C4", "D5", "F4", "G2", "E6", "A10", "C12"])
def test_each_table_weighs_the_tuple_slots_it_adds(label):
    # an entry is weighed in closed form before it is made, by the tuple slots it holds
    # and at most its own top-level entries less: a record by its root coordinates,
    # rank^2 h; a verify table by all it holds but its own three slots, counted with
    # nothing known, the record's roots it keys its cosets, edges and lengths on included,
    # as no other entry need be held beside it
    clear_store()
    try:
        rs = build(parse_type(label))
        [(_, _, weight)] = held()
        assert weight == sum(map(len, rs.roots)) == rs.rank * len(rs.roots)
        assert weight <= added_slots(rs.roots, set()) <= weight + len(rs.roots)
        table = _verify_table(rs)
        [_, (name, _, weight)] = held()
        assert name == "_verify_table" and len(table) == 3 and weight <= added_slots(table, set()) <= weight + 3
    finally:
        clear_store()


@pytest.mark.parametrize("n", [0, 1, 2, 7, 16, 30])
def test_a_partition_list_weighs_its_parts(n):
    clear_store()
    try:
        partitions = partitions_of(n)
        [(_, _, weight)] = held()
        assert weight == sum(map(len, partitions)) == added_slots(partitions, set()) - len(partitions)
    finally:
        clear_store()


def test_the_store_drops_the_least_recently_used_entries(monkeypatch):
    # before an entry is made, the entries used longest ago go until its slots fit; the
    # entry being made is never dropped, nor one whose maker is still running, even
    # alone over the budget
    @weighed_cache(lambda n: None, lambda n: n)
    def toy(n):
        return (0,) * n

    @weighed_cache(lambda n: None, lambda n: 2 * n)
    def twice(n):
        return toy(n) * 2

    def keys():
        return [(name, key) for name, key, _ in held()]

    clear_store()
    monkeypatch.setattr(errors, "CACHE_BUDGET", 10)
    try:
        for n in (3, 4, 2, 3):
            toy(n)
        assert keys() == [("toy", 4), ("toy", 2), ("toy", 3)] and errors._store.slots == 9
        assert toy.cache_info() == (1, 3)
        toy(5)  # 9 + 5 slots: 4, used longest ago, goes
        assert keys() == [("toy", 2), ("toy", 3), ("toy", 5)]
        toy(12)
        assert keys() == [("toy", 12)] and errors._store.slots == 12
        twice(3)  # its 6 slots are reserved before toy(3) is made beside them: toy(12) goes
        assert held() == [("toy", 3, 3), ("twice", 3, 6)] and errors._store.slots == 9
        toy.cache_clear()
        assert held() == [("twice", 3, 6)] and errors._store.slots == 6
        with pytest.raises(ZeroDivisionError):
            weighed_cache(lambda n: None, lambda n: n)(lambda n: 1 // 0)(4)
        assert held() == [("twice", 3, 6)] and errors._store.slots == 6  # a failed make keeps no reservation
    finally:
        clear_store()
    assert errors._store.slots == 0


def test_clearing_the_store_resets_every_count():
    # errors.cache_clear() drops every entry and resets the hits and misses of every cached
    # function, so counts read after it are absolute; a function's own cache_clear() drops its
    # entries and resets its counts alone
    @weighed_cache(lambda n: None, lambda n: n)
    def toy(n):
        return (0,) * n

    clear_store()
    try:
        a2 = build(parse_type("A2"))
        for n in (2, 2, 3):
            toy(n)
        assert reasons(a2) == reasons(a2) == (None, None)
        assert toy.cache_info() == (1, 2) and _verify_table.cache_info() == (3, 1)
        clear_store()
        assert toy.cache_info() == build.cache_info() == _verify_table.cache_info() == (0, 0)
        assert held() == [] and errors._store.slots == 0
        toy(2)
        assert reasons(build(parse_type("A2"))) == (None, None)
        toy.cache_clear()
        assert toy.cache_info() == (0, 0) and build.cache_info() == (0, 1) and _verify_table.cache_info() == (1, 1)
        assert [name for name, _, _ in held()] == ["build", "_verify_table"]
    finally:
        clear_store()


def test_tables_drop_the_least_recently_used_types(monkeypatch):
    # under a budget that three types' tables fill, a fourth type's drop, before they are
    # made, the entries used longest ago; the tables being made are never dropped, even
    # alone over the budget, and no verdict changes
    records = {name: build(parse_type(name)) for name in ("G2", "A3", "B3", "C3")}
    clear_store()
    try:
        for name in ("G2", "B3", "A3"):  # B3's table, of 105 slots, is then the one C3's 66 push out
            assert reasons(records[name]) == (None, None)
        monkeypatch.setattr(errors, "CACHE_BUDGET", errors._store.slots)
        assert reasons(records["G2"]) == (None, None)  # its verify table is now the most recent
        before = held()
        assert before[-1][:2] == ("_verify_table", records["G2"].type_label)
        assert reasons(records["C3"]) == (None, None)
        *kept, table = held()
        assert table[:2] == ("_verify_table", records["C3"].type_label)
        assert len(kept) < len(before) and kept == before[len(before) - len(kept) :]
        assert errors._store.slots <= errors.CACHE_BUDGET
        monkeypatch.setattr(errors, "CACHE_BUDGET", 1)
        assert reasons(records["B3"]) == (None, None)
        assert [(name, str(key)) for name, key, _ in held()] == [("_verify_table", "B3")]
    finally:
        clear_store()


def test_a_session_warm_pass_drops_no_entry():
    # the benchmark's session-warm workload makes the records and the simple-singularity
    # quotients of its hot set, the tables of its verify types and the partitions of its gln
    # sizes in one process: all of them stay, so a warm request there makes no entry
    workloads = benchmark_workloads()
    clear_store()
    try:
        for name in workloads.HOT_SET:
            build(parse_type(name))
            simple_singularity(parse_type(name))
        for name in workloads.VERIFY_TYPES:
            assert reasons(build(parse_type(name))) == (None, None)
        for n in workloads.GLN_SIZES:
            partitions_of(n)
        expected = [(fn, name) for name in workloads.HOT_SET for fn in ("build", "simple_singularity")]
        expected += [("_verify_table", name) for name in workloads.VERIFY_TYPES]
        expected += [("partitions_of", str(n)) for n in workloads.GLN_SIZES]
        assert sorted((name, str(key)) for name, key, _ in held()) == sorted(expected)
        assert errors._store.slots == sum(slots for *_, slots in held()) < errors.CACHE_BUDGET
    finally:
        clear_store()


@pytest.mark.parametrize("label", ["A4", "B3", "C4", "D5", "F4", "G2"])
def test_the_oracle_does_not_read_the_edge_record(label):
    # the one table the oracle keeps per type, and the simple reflections it and
    # coset_reps make, come from the Cartan matrix and the root list alone; the Cartan
    # matrices of B, C, F4 and G2 are not symmetric, so reading a row for a column would
    # change the reflections there
    rs = build(parse_type(label))
    blind = RootSystem(**{**vars(rs), "_level": Poisoned(), "_levels": Poisoned(), "_columns": Poisoned()})
    clear_store()
    try:
        indices = _orthogonal_simple_indices(blind)
        seen = [_simple_reflections(blind), _verify_table(blind), indices, coset_reps(blind, indices)]
        assert [(name, key) for name, key, _ in held()] == [("_verify_table", rs.type_label)]
        clear_store()
        indices = _orthogonal_simple_indices(rs)
        assert seen == [_simple_reflections(rs), _verify_table(rs), indices, coset_reps(rs, indices)]
    finally:
        clear_store()


@pytest.mark.parametrize("label", ["A4", "D5", "E6"])
def test_coset_reps_stop_past_the_coset_count(label, time_budget):
    # with alpha_1 listed last in Phi^+, root k is no longer alpha_k, so the walk
    # blocks the wrong roots; it must fail once it passes |W^I|, not run on, both
    # in coset_reps and in the level check, which walks W^J for its table
    rs = build(parse_type(label))
    positive = rs.positive_roots[1:] + rs.positive_roots[:1]
    negative = tuple(tuple(-x for x in v) for v in positive)
    moved = RootSystem(**{**vars(rs), "roots": positive + negative, "positive_roots": positive})
    clear_store()
    try:
        indices = _orthogonal_simple_indices(moved)
        count = _coset_count(moved, indices)
        message = rf"^{label}: the walk passed \|W\^I\| = {count} at length \d+$"
        with time_budget(2.0), pytest.raises(InvariantFailureError, match=message):
            coset_reps(moved, indices)
        with time_budget(2.0), pytest.raises(InvariantFailureError, match=message):
            level_length_failure(moved)
    finally:
        clear_store()


def test_coset_reps_build_no_table(time_budget):
    # coset_reps makes the simple reflections only, and keeps nothing; the table of
    # every s_gamma would be |Phi^+| |Phi| = 49,005,000 entries at A99
    a99 = build(parse_type("A99"))
    clear_store()
    try:
        with time_budget(1.0):
            reps = coset_reps(a99, tuple(range(1, 99)))
        assert len(reps) == 100 == _coset_count(a99, tuple(range(1, 99)))
        assert [w.length for w in reps] == list(range(100))
        assert held() == []
    finally:
        clear_store()


@pytest.mark.parametrize("label", UP_TO_E6)
def test_the_coset_table_reads_the_walk(label):
    # the walk yields W^J one length at a time, and the verify table keeps each element's
    # length and images of the simple roots under its image of the highest root, the record's
    # own tuple
    rs = build(parse_type(label))
    indices = _orthogonal_simple_indices(rs)
    reps = coset_reps(rs, indices)
    layers = list(_walk(rs, indices, _simple_reflections(rs)))
    assert [len(layer) for layer in layers] == [sum(w.length == k for w in reps) for k in range(len(layers))]
    assert all(images == w[: max(rs.rank, 2)] for layer in layers for w, images in layer)
    top = len(rs.positive_roots) - 1
    cosets, _, _ = _verify_table(rs)
    assert cosets == {rs.roots[w.perm[top]]: (w.length, w.perm[: max(rs.rank, 2)]) for w in reps}
    assert len(cosets) == len(reps) and {id(v) for v in rs.roots}.issuperset(map(id, cosets))
    assert len({images for _, images in cosets.values()}) == len(reps)


@pytest.mark.parametrize("label", ["A30", "B20", "D20"])
def test_the_table_walks_two_layers_at_a_time(label, monkeypatch):
    # W^J as permutations would be |W^J| |Phi| tuple slots of 8 bytes; the walk holds two
    # layers of (w, w^-1), and the verify table keeps a few ints per element.  The
    # reflections, which the table conjugates after the walk, stand at the simple ones
    rs = build(parse_type(label))
    monkeypatch.setattr(weyl_oracle, "_reflection_table", lambda rs, simple: simple)
    clear_store()
    tracemalloc.start()
    try:
        _verify_table(rs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        clear_store()
    assert peak < _coset_count(rs, _orthogonal_simple_indices(rs)) * len(rs.roots) * 8 / 4


# max(|W^J|, |Phi^+|) * |Phi| in closed form: |W^J| counts the long roots, n(n+1)
# in A_n, 2n(n-1) in B_n and D_n, and 2n in C_n; |Phi^+| is half of |Phi|
VERIFY_COST = {
    "A": lambda n: (n * (n + 1)) ** 2,
    "B": lambda n: max(2 * n * (n - 1), n**2) * 2 * n**2,
    "C": lambda n: max(2 * n, n**2) * 2 * n**2,
    "D": lambda n: (2 * n * (n - 1)) ** 2,
}


def last_verified_rank(series: str) -> int:
    """Largest rank whose closed-form verify cost fits the oracle budget."""
    n = FIRST_RANK[series]
    while VERIFY_COST[series](n + 1) <= ORACLE_BUDGET:
        n += 1
    return n


def test_budget_at_its_boundary(time_budget):
    # verify walks max(|W^J|, |Phi^+|) elements times |Phi| roots
    tops = {series: last_verified_rank(series) for series in VERIFY_COST}
    assert tops == {"A": 44, "B": 31, "C": 37, "D": 32}
    for series, n in tops.items():
        rs = build(TypeLabel(series, n))
        n_long = _coset_count(rs, _orthogonal_simple_indices(rs))
        assert sum(map(len, rs._levels)) == n_long
        assert max(n_long, len(rs.positive_roots)) * len(rs.roots) == VERIFY_COST[series](n)
    refused = [build(TypeLabel(series, n + 1)) for series, n in tops.items()]
    before = list(errors._store.items())
    for rs in refused:
        for check in (verify_level_length, verify_reflection_length, _verify_table):
            with time_budget(1.0), pytest.raises(DomainError, match="over the budget"):
                check(rs)
    # refused before any work: no entry was made or touched, W^J was not walked; nor is
    # anything but a record, hashable or not, let in
    for bad in (["A", 3], TypeLabel("A", 3), {}):
        with pytest.raises(DomainError, match=r"^expected a RootSystem \(see build\)"):
            _verify_table(bad)
    assert list(errors._store.items()) == before
    # the whole of W(E6) is admitted, so the oracle above can be compared with it
    e6 = build(parse_type("E6"))
    _check_budget(e6, group_order(e6), "|W|")


def test_g2_coset_reps_lengths():
    g2 = build(parse_type("G2"))
    reps = coset_reps(g2, _orthogonal_simple_indices(g2))
    assert len(reps) == 6
    top_idx = g2.roots.index(highest_root(g2))
    for w in reps:
        image = g2.roots[w.perm[top_idx]]
        assert w.length == level(g2, image)
    by_image = {g2.roots[w.perm[top_idx]]: w for w in reps}
    assert by_image[(1, 0)].length == 2


# the full tier runs these two on every type the budget admits; a failure names its reason
@pytest.mark.parametrize("label", SMALL_TYPES)
def test_verify_level_length(label):
    assert level_length_failure(build(parse_type(label))) is None


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_verify_reflection_length(label):
    assert reflection_length_failure(build(parse_type(label))) is None


def test_verify_e6():
    e6 = build(parse_type("E6"))
    assert verify_level_length(e6)
    assert verify_reflection_length(e6)


@pytest.mark.parametrize("label", ["E7", "E8"])
def test_verify_e7_e8(label, time_budget):
    rs = build(parse_type(label))
    with time_budget(5.0):
        assert verify_level_length(rs)
        assert verify_reflection_length(rs)


def test_verify_level_length_a30(time_budget):
    # every entry is read off the stored matrices; the group side is the only
    # per-pair work left
    a30 = build(parse_type("A30"))
    with time_budget(1.5):
        assert verify_level_length(a30)


def _patch_matrix(rs, i, columns):
    """A copy of the record rs whose matrix i, which the oracle reads, holds the given columns."""
    return RootSystem(**{**vars(rs), "_columns": rs._columns[:i] + (tuple(columns),) + rs._columns[i + 1 :]})


def _patch_entry(rs, i, row, col, value):
    """A copy of the record rs whose matrix i holds value at (row, col)."""
    columns = [dict(column) for column in rs._columns[i]]
    columns[col][row] = value
    if not value:
        del columns[col][row]
    return _patch_matrix(rs, i, columns)


def test_failure_names_the_pair(monkeypatch, capsys):
    # a wrong coefficient on an edge the group has
    b3 = build(parse_type("B3"))
    lv = long_root_poset.levels(b3)
    beta, alpha = lv[2][0], lv[3][0]
    true_value = long_root_poset.d_matrix(b3, 3)[0][0]
    assert true_value == edge_coefficient(b3, beta, alpha) == 1
    wrong = _patch_entry(b3, 3, 0, 0, 2)
    assert not verify_level_length(wrong)
    reason = level_length_failure(wrong)
    assert reason == f"({beta}, {alpha}): d_matrix(3) entry 2, expected 1"
    assert verify_reflection_length(wrong)
    assert level_length_failure(b3) is None

    monkeypatch.setattr(cli, "build", lambda label: wrong)
    assert cli.main(["verify", "--type", "B3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "level-length: FAILED\nreflection-length: ok\n"
    assert captured.err == f"level-length: {reason}\n"


def test_failure_names_a_one_sided_edge():
    # a 0 where the group has an edge, then a nonzero entry where it has none
    g2 = build(parse_type("G2"))
    lv = long_root_poset.levels(g2)
    beta, alpha = lv[1][0], lv[2][0]
    assert long_root_poset.d_matrix(g2, 2) == ((3,),)
    reason = level_length_failure(_patch_entry(g2, 2, 0, 0, 0))
    assert reason == f"({beta}, {alpha}): d_matrix(2) entry 0, expected 3"

    a3 = build(parse_type("A3"))
    lv = long_root_poset.levels(a3)
    mat = long_root_poset.d_matrix(a3, 2)
    row, col = next((r, c) for r in range(len(mat)) for c in range(len(mat[0])) if not mat[r][c])
    beta, alpha = lv[1][col], lv[2][row]
    assert edge_coefficient(a3, beta, alpha) == 0
    reason = level_length_failure(_patch_entry(a3, 2, row, col, 1))
    assert reason == f"({beta}, {alpha}): d_matrix(2) entry 1, expected 0"


@pytest.mark.parametrize(
    "reshape",
    [
        lambda columns, rows: columns[:-1],  # the cohomology would come out different
        lambda columns, rows: columns + [{1: 1}],  # it would find a free rank of -1 in degree 3
        lambda columns, rows: columns[:-1] + [{**columns[-1], rows: 1}],  # it would index past level 2
    ],
    ids=["a-column-missing", "an-extra-column", "a-row-past-the-level"],
)
def test_failure_names_a_matrix_of_the_wrong_shape(reshape):
    # the entries are checked over the pairs of levels 1 and 2, which pass over a missing
    # or an extra column and a row past level 2, so the shape is checked once per matrix
    b3 = build(parse_type("B3"))
    wrong = _patch_matrix(b3, 2, reshape(list(b3._columns[2]), len(b3._levels[2])))
    assert level_length_failure(wrong) == "d_matrix(2) is not 2 x 1, the sizes of levels 2 and 1"
    assert verify_reflection_length(wrong)


def test_failure_names_a_missing_matrix():
    # without its last matrix the record would send the entry check past its matrices
    b3 = build(parse_type("B3"))
    short = RootSystem(**{**vars(b3), "_columns": b3._columns[:-1]})
    assert level_length_failure(short) == "the record holds 4 matrices, expected 5"


def test_failure_when_the_group_lacks_the_reflection(monkeypatch):
    # An edge is read off the line of beta - alpha but decided by the group:
    # with the identity in place of s_gamma, the first edge along gamma fails.
    # The edges are kept in the one store, so they are made afresh from the patched reflections.
    b3 = build(parse_type("B3"))
    gamma, *_ = b3.positive_roots
    table = tuple(weyl_oracle._reflection_table(b3, _simple_reflections(b3)))
    monkeypatch.setattr(weyl_oracle, "_reflection_table", lambda rs, simple: (tuple(range(len(rs.roots))),) + table[1:])
    clear_store()
    lv = long_root_poset.levels(b3)
    i, col, row, c = next(
        (i, col, row, c)
        for i in range(len(lv) - 1)
        for col, beta in enumerate(lv[i])
        for row, alpha in enumerate(lv[i + 1])
        for c in (-2, -1, 1, 2)
        if tuple(b - a for b, a in zip(beta, alpha)) == tuple(c * g for g in gamma)
    )
    assert long_root_poset.d_matrix(b3, i + 1)[row][col] == c
    beta, alpha = lv[i][col], lv[i + 1][row]
    try:
        assert level_length_failure(b3) == f"({beta}, {alpha}): d_matrix({i + 1}) entry {c}, expected 0"
    finally:
        clear_store()


def test_failure_names_a_repeated_image(monkeypatch):
    # the walk's last element replaced by its first, the identity: a fault of the oracle, not
    # of the record, so the table is not made, and both checks raise
    b3 = build(parse_type("B3"))
    layers = list(_walk(b3, _orthogonal_simple_indices(b3), _simple_reflections(b3)))
    layers[-1][-1] = layers[0][0]
    monkeypatch.setattr(weyl_oracle, "_walk", lambda rs, indices, gens: iter(layers))
    clear_store()
    message = f"^B3: two representatives send the highest root to {re.escape(str(highest_root(b3)))}$"
    try:
        for check in (level_length_failure, reflection_length_failure):
            with pytest.raises(InvariantFailureError, match=message):
                check(b3)
        assert held() == []
    finally:
        clear_store()


def shifted_top(rs):
    """A copy of the record rs whose highest root is listed first in level 1 of ``_levels``, and
    level 0 is empty: both checks read the grading there."""
    lv = rs._levels
    return RootSystem(**{**vars(rs), "_levels": ((), lv[0] + lv[1]) + lv[2:]})


def test_failure_names_the_root(monkeypatch, capsys):
    g2 = build(parse_type("G2"))
    top = highest_root(g2)
    shifted = shifted_top(g2)
    reason = level_length_failure(shifted)
    assert reason == f"the representative sending the highest root to {top} has length 0, level 1"
    # level 1 is coroot height h_dual - 2 = 2 in G2, so 3 = 2 * 2 - 1 is expected of s_top
    assert reflection_length_failure(shifted) == f"the reflection in {top} has length 5, expected 3"
    monkeypatch.setattr(cli, "build", lambda label: shifted)
    assert cli.main(["verify", "--type", "G2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "level-length: FAILED\nreflection-length: FAILED\n"
    assert captured.err.splitlines()[1] == f"reflection-length: the reflection in {top} has length 5, expected 3"


def bad_records():
    """A copy of the B3, G2 and A3 records each, with one boundary-matrix entry changed."""
    b3, g2, a3 = (build(parse_type(name)) for name in ("B3", "G2", "A3"))
    mat = long_root_poset.d_matrix(a3, 2)
    row, col = next((r, c) for r in range(len(mat)) for c in range(len(mat[0])) if not mat[r][c])
    return [_patch_entry(b3, 3, 0, 0, 2), _patch_entry(g2, 2, 0, 0, 0), _patch_entry(a3, 2, row, col, 1)]


def reasons(rs):
    return level_length_failure(rs), reflection_length_failure(rs)


def test_warm_state_hides_no_bad_record():
    # the caches hold what the Cartan matrix and the root list give, which a patched
    # record shares with the clean one; every call still compares them with the record,
    # so a clean verify first changes no verdict and no reason
    records = bad_records() + [shifted_top(build(parse_type("G2"))), repeated_root(build(parse_type("A4")))[0]]
    clear_store()
    try:
        cold = [reasons(rs) for rs in records]
        clear_store()
        for name in ("B3", "G2", "A3", "A4"):
            assert reasons(build(parse_type(name))) == (None, None)
        assert [reasons(rs) for rs in records] == cold
        assert all(level for level, _ in cold) and all(cold[-2])
    finally:
        clear_store()


def _with_entries(rs, i, col, entries):
    """A copy of the record rs whose column col of matrix i is the dict entries, in its order."""
    columns = list(rs._columns[i])
    columns[col] = entries
    return _patch_matrix(rs, i, columns)


def poisoned(name):
    """(a copy of a clean record with one fault or none, the verdicts the oracle gives it)."""
    b3, a3, a4 = (build(parse_type(label)) for label in ("B3", "A3", "A4"))
    lv = b3._levels
    if name == "a-flipped-entry":  # an edge's coefficient with its sign changed
        edge = f"({lv[2][0]}, {lv[3][0]}): d_matrix(3) entry -1, expected 1"
        return _patch_entry(b3, 3, 0, 0, -1), (edge, None)
    mat = long_root_poset.d_matrix(a3, 2)
    row, col = next((r, c) for r in range(len(mat)) for c in range(len(mat[0])) if not mat[r][c])
    pair = a3._levels[1][col], a3._levels[2][row]
    if name == "an-added-entry":  # a coefficient where the group has no edge
        return _patch_entry(a3, 2, row, col, 1), (f"({pair[0]}, {pair[1]}): d_matrix(2) entry 1, expected 0", None)
    if name == "an-explicit-zero":  # stored, where the group has no edge: the same matrix
        return _with_entries(a3, 2, col, {**a3._columns[2][col], row: 0}), (None, None)
    if name == "a-wrong-shape":  # a row past the level the matrix maps to
        wrong = _with_entries(b3, 2, 0, {**b3._columns[2][0], len(lv[2]): 1})
        return wrong, ("d_matrix(2) is not 2 x 1, the sizes of levels 2 and 1", None)
    record, i, root = repeated_root(a4)
    return record, (f"level {i} lists {root} twice", None)


POISONS = ["a-flipped-entry", "an-added-entry", "an-explicit-zero", "a-wrong-shape", "a-root-listed-twice"]


@pytest.mark.parametrize("name", POISONS)
def test_warm_equals_cold(name):
    # the table holds the group's edges, and every recorded entry is still compared with them:
    # cold, and after a clean verify of the same type, the same verdict and the same reason
    record, expected = poisoned(name)
    clear_store()
    try:
        assert reasons(record) == expected
        clear_store()
        assert reasons(build(record.type_label)) == (None, None)
        assert reasons(record) == expected
    finally:
        clear_store()


def test_a_column_with_two_wrong_entries_names_the_first_row():
    # A4's matrix 3 column 1 maps (0, 1, 1, 0) to rows 1 and 2; both entries wrong, the one
    # stored last the lower row, so the pair named is the first in row order, cold and warm
    a4 = build(parse_type("A4"))
    lv = a4._levels
    assert a4._columns[3][1] == {1: 1, 2: 1}
    wrong = _with_entries(a4, 3, 1, {2: 5, 1: 4})
    message = f"({lv[2][1]}, {lv[3][1]}): d_matrix(3) entry 4, expected 1"
    clear_store()
    try:
        assert level_length_failure(wrong) == message
        assert level_length_failure(a4) is None and level_length_failure(wrong) == message
    finally:
        clear_store()


def test_a_matrix_past_the_lower_half_is_named():
    # the table holds the edges of W^J's lower half, lengths 0 .. h_dual - 2, read off the walk;
    # a record claiming one more matrix, with h_dual to match, asks for edges past them
    b3 = build(parse_type("B3"))
    longer = RootSystem(**{**vars(b3), "h_dual": 6, "_columns": b3._columns + (tuple({} for _ in b3._levels[4]),)})
    clear_store()
    try:
        assert level_length_failure(longer) == "d_matrix(5) maps from level 4, which is not in the lower half of W^J"
    finally:
        clear_store()


def swapped(rs, u, v):
    """A copy of the record rs whose root list has u and v, and -u and -v, swapped."""
    place = {u: v, v: u, tuple(-x for x in u): tuple(-x for x in v), tuple(-x for x in v): tuple(-x for x in u)}
    roots = tuple(place.get(root, root) for root in rs.roots)
    return RootSystem(**{**vars(rs), "roots": roots, "positive_roots": roots[: len(rs.positive_roots)]})


def test_the_reflection_lengths_are_keyed_by_root():
    # B3 with (1, 1, 1) and (0, 1, 2), both of height 3, swapped in its root list passes cold and
    # warm alike; without the short root (0, 1, 1) it fails cold in the table, warm in the count
    b3 = build(parse_type("B3"))
    swap = swapped(b3, (1, 1, 1), (0, 1, 2))
    gone = {(0, 1, 1), (0, -1, -1)}
    kept = {name: tuple(v for v in getattr(b3, name) if v not in gone) for name in ("roots", "positive_roots")}
    lacking = RootSystem(**{**vars(b3), **kept})
    clear_store()
    try:
        assert reasons(swap) == (None, None)
        clear_store()
        with pytest.raises(InvariantFailureError, match=re.escape("B3: s_1 sends (1, 1, 1) to (0, 1, 1)")):
            reflection_length_failure(lacking)
        assert reasons(b3) == (None, None)
        assert reasons(swap) == (None, None)
        assert reasons(lacking) == (None, "the record lists 8 positive roots, the group has 9")
        replaced = RootSystem(**{**vars(b3), "positive_roots": b3.positive_roots[:-1] + ((2, 2, 2),)})
        assert reflection_length_failure(replaced) == "(2, 2, 2) is not a positive root of the group"
    finally:
        clear_store()


def moved_late(rs, k):
    """A copy of the record rs whose positive root k is listed just before the highest root."""
    positive = list(rs.positive_roots)
    positive.insert(len(positive) - 2, positive.pop(k))
    negative = tuple(tuple(-x for x in v) for v in positive)
    return RootSystem(**{**vars(rs), "roots": tuple(positive) + negative, "positive_roots": tuple(positive)})


@pytest.mark.parametrize(
    "label, message",
    [
        ("A5", None),
        ("A7", "A7: Phi^+ is out of height order at (1, 1, 0, 0, 0, 0, 0)"),  # s_1 of it, of height 1, was dropped
        ("B4", "B4: Phi^+ is out of height order at (1, 1, 0, 0)"),
        ("G2", "G2: Phi^+ is out of height order at (1, 2)"),  # listed before (1, 1), its one lower s_j image
    ],
)
def test_a_root_listed_out_of_height_order(label, message):
    # the reflections are conjugated a few heights at a time and dropped by height: a record
    # listing its first root of height 2 just before the highest root verifies as a sorted one
    # while the reflection it is conjugated from is still held (A5), and otherwise ends in a
    # named invariant failure, not a KeyError or a bare StopIteration
    record = moved_late(build(parse_type(label)), build(parse_type(label)).rank)
    clear_store()
    try:
        if message is None:
            assert reasons(record) == (None, None)
        else:
            for check in (level_length_failure, reflection_length_failure):
                with pytest.raises(InvariantFailureError, match=f"^{re.escape(message)}$"):
                    check(record)
            assert held() == []
    finally:
        clear_store()


def repeated_root(rs):
    """(a copy of the record rs, i, root) whose level i, the first from 1 with two roots, lists
    its first root twice and not its second, with that root's row of matrix i and column of
    matrix i + 1 copied into the dropped root's place, so the level sizes and every entry agree
    with the duplicate; None when every level holds one root."""
    i = next((i for i in range(1, rs.h_dual - 1) if len(rs._levels[i]) > 1), None)
    if i is None:
        return None
    root, _, *rest = rs._levels[i]
    rows = [dict(column) for column in rs._columns[i]]  # per root of level i - 1, {place in level i: entry}
    for column in rows:
        column.pop(1, None)
        if 0 in column:
            column[1] = column[0]
    columns = rs._columns[i + 1][:1] * 2 + rs._columns[i + 1][2:]
    levels = rs._levels[:i] + ((root, root, *rest),) + rs._levels[i + 1 :]
    matrices = rs._columns[:i] + (tuple(rows), columns) + rs._columns[i + 2 :]
    return RootSystem(**{**vars(rs), "_levels": levels, "_columns": matrices}), i, root


def check_a_root_listed_twice(label):
    # the level sizes, and so the count of long roots, and every matrix entry hold, so only
    # the bijection onto W^J tells it apart; where every level holds one root (A1, G2, C_n)
    # no root can be listed twice at its own length.  The dropped root now reads as short,
    # which changes the height rule on it only where its coroot height is not its height
    rs = build(parse_type(label))
    if (repeated := repeated_root(rs)) is None:
        assert all(len(members) == 1 for members in rs._levels)
        return
    record, i, root = repeated
    assert level_length_failure(record) == f"level {i} lists {root} twice"
    dropped, coroot = rs._levels[i][1], rs.h_dual - 1 - i
    lengths = f"length {2 * coroot - 1}, expected {2 * height(dropped) - 1}"
    assert reflection_length_failure(record) == (None if coroot == height(dropped) else f"the reflection in {dropped} has {lengths}")


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "B3", "B4", "D4", "D5", "E6", "F4"])
def test_a_root_listed_twice_is_named(label):
    clear_store()
    try:
        check_a_root_listed_twice(label)
    finally:
        clear_store()


def test_a_root_listed_twice_changes_the_cohomology(monkeypatch, capsys):
    # A4's level 1 lists (1, 1, 1, 0) twice and not (0, 1, 1, 1): the cohomology read off that
    # record gains a free summand in degrees 3, 4, 11 and 12, and verify names the root
    a4 = build(parse_type("A4"))
    record, i, root = repeated_root(a4)
    assert (i, record._levels[1]) == (1, ((1, 1, 1, 0), (1, 1, 1, 0)))
    clean, changed = (minimal_orbit_cohomology(rs).table for rs in (a4, record))
    gained = {n: changed.free_rank(n) - clean.free_rank(n) for n in changed.degrees()}
    assert {n: k for n, k in gained.items() if k} == {3: 1, 4: 1, 11: 1, 12: 1}
    monkeypatch.setattr(cli, "build", lambda label: record)
    assert cli.main(["verify", "--type", "A4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "level-length: FAILED\nreflection-length: ok\n"
    assert captured.err == "level-length: level 1 lists (1, 1, 1, 0) twice\n"


def check_warm_without_the_level_map(label):
    # both checks take the grading from the levels alone: warm on the clean record, they
    # give its verdicts on a copy whose map of each root to its level raises on any read
    rs = build(parse_type(label))
    assert reasons(rs) == (None, None)
    assert reasons(RootSystem(**{**vars(rs), "_level": Poisoned()})) == (None, None)


@pytest.mark.parametrize("label", SMALL_TYPES + ["D5", "E6"])
def test_warm_without_the_level_map(label):
    clear_store()
    try:
        check_warm_without_the_level_map(label)
    finally:
        clear_store()


def test_a_root_the_record_lacks_is_an_invariant_failure(monkeypatch, capsys):
    # B3 without the short root (0, 1, 1) and its negative: s_1 sends (1, 1, 1) there, so the
    # table is not made, and verify ends with exit code 4 and a message, not a traceback
    b3 = build(parse_type("B3"))
    gone = {(0, 1, 1), (0, -1, -1)}
    kept = {name: tuple(v for v in getattr(b3, name) if v not in gone) for name in ("roots", "positive_roots")}
    lacking = RootSystem(**{**vars(b3), **kept, "_level": {v: lv for v, lv in b3._level.items() if v not in gone}})
    message = "B3: s_1 sends (1, 1, 1) to (0, 1, 1), which the root list lacks"
    clear_store()
    try:
        for check in (level_length_failure, reflection_length_failure):
            with pytest.raises(InvariantFailureError, match=f"^{re.escape(message)}$"):
                check(lacking)
        monkeypatch.setattr(cli, "build", lambda label: lacking)
        assert cli.main(["verify", "--type", "B3"]) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"invariant failure: {message}\n")
        assert held() == []
    finally:
        clear_store()


def failure_by_permutations(rs):
    """The level check on whole permutations, the reference for the table's images:
    W^J from coset_reps, and an edge decided by composing s_gamma with x_beta on all of Phi."""
    lv = long_root_poset.levels(rs)
    n_long = sum(map(len, lv))
    reps = coset_reps(rs, _orthogonal_simple_indices(rs))
    if len(reps) != n_long:
        return f"W^J has {len(reps)} elements, but there are {n_long} long roots"
    by_root = {rs.roots[w.perm[len(rs.positive_roots) - 1]]: w for w in reps}
    assert len(by_root) == len(reps)  # W^J sends the highest root to each long root once
    for i, members in enumerate(lv):
        for root in members:
            if root not in by_root:
                return f"no representative sends the highest root to {root}, of level {i}"
            if by_root[root].length != i:
                return f"the representative sending the highest root to {root} has length {by_root[root].length}, level {i}"
        if len(set(members)) < len(members):
            return f"level {i} lists {next(r for r, n in Counter(members).items() if n > 1)} twice"
    by_root = {root: w.perm for root, w in by_root.items()}
    reflections = list(zip(rs.positive_roots, _reflection_table(rs, _simple_reflections(rs))))
    lines = {tuple(c * g for g in gamma): (s, c) for c in (-3, -2, -1, 1, 2, 3) for gamma, s in reflections}
    for i in range(rs.h_dual - 1):
        for beta, column in zip(lv[i], rs._columns[i + 1]):
            for row, alpha in enumerate(lv[i + 1]):
                s, expected = lines.get(tuple(map(sub, beta, alpha)), (None, 0))
                if s is not None and _compose(s, by_root[beta]) != by_root[alpha]:
                    expected = 0
                if (entry := column.get(row, 0)) != expected:
                    return f"({beta}, {alpha}): d_matrix({i + 1}) entry {entry}, expected {expected}"
    return None


@pytest.mark.parametrize("label", SMALL_TYPES + ["D5", "E6"])
def test_failure_equals_the_permutation_route(label):
    # on the record, on 40 copies with one entry changed, and on copies with the highest
    # root moved and a root listed twice, the images of the simple roots give the verdict
    # and the reason that whole permutations give
    rs = build(parse_type(label))
    rng = random.Random(label)
    records = [rs]
    for _ in range(40):
        i = rng.randrange(1, rs.h_dual)
        col, row = rng.randrange(len(rs._levels[i - 1])), rng.randrange(len(rs._levels[i]))
        records.append(_patch_entry(rs, i, row, col, rng.choice([0, -1, 1, 2, 3])))
    records.append(shifted_top(rs))
    if repeated := repeated_root(rs):
        records.append(repeated[0])
    found = [level_length_failure(record) for record in records]
    assert found == [failure_by_permutations(record) for record in records]
    assert found[0] is None and any(found)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2"])
def test_longest_element_identities(label):
    rs = build(parse_type(label))
    elements = coset_reps(rs, ())
    nu = len(rs.positive_roots)
    w0 = next(w for w in elements if w.length == nu)
    lengths = {w.perm: w.length for w in elements}
    # multiplying by the longest element reverses lengths
    for w in elements:
        assert lengths[_compose(w0.perm, w.perm)] == nu - w.length
        assert lengths[_compose(w.perm, w0.perm)] == nu - w.length

    # the longest elements of W and of the highest-root stabilizer compose
    # to the reflection in the highest root
    indices = _orthogonal_simple_indices(rs)
    index = root_index(rs)
    ident = tuple(range(len(rs.roots)))
    gens = [reflection_perm(rs, index, simple_roots(rs)[i]) for i in indices]
    sub = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = _compose(w, s)
                if ws not in sub:
                    sub.add(ws)
                    nxt.append(ws)
        frontier = nxt
    w_sub = max(sub, key=lambda p: lengths[p])
    s_top = reflection_perm(rs, index, highest_root(rs))
    assert _compose(w0.perm, w_sub) == s_top
    assert _compose(w_sub, w0.perm) == s_top


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_negative_rep_factors_through_reflection(label):
    # the representative sending the highest root to -a equals s_a times the
    # one sending it to a, with lengths adding up
    rs = build(parse_type(label))
    top_idx = rs.roots.index(highest_root(rs))
    reps = coset_reps(rs, _orthogonal_simple_indices(rs))
    by_image = {rs.roots[w.perm[top_idx]]: w for w in reps}
    index = root_index(rs)
    for root in rs.positive_roots:
        if not is_long(rs, root):
            continue
        x_pos = by_image[root]
        x_neg = by_image[tuple(-c for c in root)]
        s = reflection_perm(rs, index, root)
        assert _compose(s, x_pos.perm) == x_neg.perm
        npos = len(rs.positive_roots)
        s_len = sum(1 for i in range(npos) if s[i] >= npos)
        assert x_neg.length == s_len + x_pos.length


def test_invert():
    rs = build(parse_type("B2"))
    for w in coset_reps(rs, ()):
        assert _compose(w.perm, invert(w.perm)) == tuple(range(len(rs.roots)))


@pytest.mark.parametrize("indices", [[9], [-1], [0, 3], [True], [1.0], ["a"]])
def test_coset_reps_refuses_an_index_outside_the_diagram(indices):
    # -1 is not read as the last simple root, nor True as the second: the
    # check comes before the coset count and the budget
    with pytest.raises(DomainError, match=rf"^{indices[-1]!r} is not a simple-root index of A3$"):
        coset_reps(build(parse_type("A3")), indices)


@pytest.mark.parametrize("indices", [iter([0, 1]), None, 1, {0: 0}, "01", {0, 1}, (i for i in [0])])
def test_coset_reps_refuses_indices_that_are_no_sequence(indices):
    # an iterator would be spent by the checks before the walk, an int or None is not
    # iterable, and a dict would be read by its keys: none of them reaches the walk
    name = type(indices).__name__
    message = rf"^simple-root indices of A3 are a tuple, list or range, got {name}$"
    a3 = build(parse_type("A3"))
    with pytest.raises(DomainError, match=message):
        coset_reps(a3, indices)
    with pytest.raises(DomainError, match=message):
        cartan_of_subset(a3, indices)


@pytest.mark.parametrize("indices", [[0, 0], [2, 1, 2], (0, 1, 2, 0)])
def test_coset_reps_refuses_a_repeated_index(indices):
    with pytest.raises(DomainError, match=rf"^the simple-root indices {re.escape(str(tuple(indices)))} of A3 repeat an index$"):
        coset_reps(build(parse_type("A3")), indices)
