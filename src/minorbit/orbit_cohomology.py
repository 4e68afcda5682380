"""Integral cohomology of minimal nilpotent orbits, assembled exactly.

The Gysin sequence of the C*-bundle resolving the orbit closure breaks the
cohomology into cokernels (even degrees) and kernels (odd degrees) of the
level-raising matrices of the long-root poset.  Matrix d - i is the
transpose of matrix i, so one Smith form per transposed pair serves four
degrees.  The rest is bookkeeping: the closed-form alternative in type A,
the middle group read from the lattice, and the JSON form.
"""

from __future__ import annotations

from collections import namedtuple

from . import long_root_poset
from .errors import DomainError, InvariantFailureError
from .int_linalg import _invariant_factors, cokernel
from .root_system import (
    _DUAL_COXETER_NUMBER, RootSystem, TypeLabel, _check_record, _check_root_budget, cartan_of_subset, parse_type,
)


class GradedAbelianGroup:
    """Map degree -> (free rank, torsion invariant factors); absent = 0.
    The one check of a group, from code or JSON: DomainError unless each
    degree and free rank is an int >= 0 and each torsion a divisibility
    chain of ints >= 2, in a dict of pairs, each pair and torsion a tuple or list."""

    def __init__(self, entries: dict[int, tuple[int, tuple[int, ...]]]):
        if type(entries) is not dict:
            raise DomainError(f"a graded group is a dict of degree: (free rank, torsion), got {type(entries).__name__}")
        clean: dict[int, tuple[int, tuple[int, ...]]] = {}
        for n, entry in entries.items():
            if type(n) is not int or n < 0:
                raise DomainError(f"degree {n!r} is not an int >= 0")
            if type(entry) not in (tuple, list) or len(entry) != 2 or type(entry[1]) not in (tuple, list):
                raise DomainError(f"degree {n}: {entry!r} is not a (free rank, torsion) pair, torsion a tuple or list")
            free, torsion = entry[0], tuple(entry[1])
            if type(free) is not int or free < 0:
                raise DomainError(f"degree {n}: free rank {free!r} is not an int >= 0")
            for a, b in zip((1,) + torsion, torsion):  # one pass: type, size, then a | b
                if type(b) is not int:
                    raise DomainError(f"degree {n}: 'torsion' {torsion} has an entry {b!r} that is not an int")
                if b < 2:
                    raise DomainError(f"degree {n}: 'torsion' {torsion} has an entry below 2")
                if b % a:
                    raise DomainError(f"degree {n}: 'torsion' {torsion} is not a divisibility chain")
            if free or torsion:
                clean[n] = (free, torsion)
        self._entries = dict(sorted(clean.items()))

    def degrees(self) -> tuple[int, ...]:
        return tuple(self._entries)

    def free_rank(self, n: int) -> int:
        return self._entries.get(n, (0, ()))[0]

    def torsion(self, n: int) -> tuple[int, ...]:
        return self._entries.get(n, (0, ()))[1]

    def items(self):
        return self._entries.items()

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedAbelianGroup) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(self._entries.items()))

    def __repr__(self) -> str:
        return f"GradedAbelianGroup({self._entries!r})"


class OrbitCohomology(namedtuple("OrbitCohomology", "type_label d h_dual table")):
    """H^* of a minimal orbit of complex dimension d, as a GradedAbelianGroup."""

    __slots__ = ()


def minimal_orbit_cohomology(rs: RootSystem) -> OrbitCohomology:
    """H^*(minimal orbit, Z) over degrees 0 .. 2d-1, d = 2 h_dual - 2.

    Matrix i (level i-1 to level i) gives the cokernel in degree 2i and the
    kernel rank in degree 2i-1; its transpose, matrix d-i, gives degrees
    2(d-i) and 2(d-i)-1 with rows and columns swapped.  One Smith form per
    transposed pair serves all four: the recorded columns of matrix i, as the
    rows of its transpose, for i <= h_dual-1.  The group gets the nonzero degrees."""
    lv, d = long_root_poset.levels(rs), long_root_poset.dimension(rs)
    # the map into level 0 and the map out of the last level are zero
    entries = {0: (len(lv[0]), ()), 2 * d - 1: (len(lv[d - 1]), ())}
    for i in range(1, rs.h_dual):
        factors = _invariant_factors(rs._columns[i], len(lv[i]))
        torsion = factors[factors.count(1) :]  # a divisibility chain puts its 1s first
        rows, cols = len(lv[i]) - len(factors), len(lv[i - 1]) - len(factors)
        entries[2 * i], entries[2 * i - 1] = (rows, torsion), (cols, ())
        entries[2 * (d - i)], entries[2 * (d - i) - 1] = (cols, torsion), (rows, ())
    table = GradedAbelianGroup({n: entry for n, entry in entries.items() if entry[0] or entry[1]})
    return OrbitCohomology(rs.type_label, d, rs.h_dual, table)


def _lattice_quotient(label: TypeLabel, diagram: str, cartan: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors of Z^n modulo the columns of a Cartan matrix, which is
    nonsingular; InvariantFailureError names the type, the diagram and the shape."""
    free, torsion = cokernel(cartan)
    if free:
        raise InvariantFailureError(
            f"{label}: the Cartan matrix of {diagram} ({len(cartan)}x{len(cartan[0])}) is singular"
        )
    return torsion


def middle_via_lattice(rs: RootSystem) -> tuple[int, ...]:
    """Invariant factors of the coweight/coroot quotient of the long-simple
    subsystem; an independent route to the torsion in degree d."""
    _check_record(rs)
    cartan = cartan_of_subset(rs, rs.long_simple_indices)
    return _lattice_quotient(rs.type_label, "its long-simple subsystem", cartan)


def type_a_alternative(n: int) -> OrbitCohomology:
    """Cohomology for type A_{n-1} from the rank-one resolution over P^{n-1}.

    The orbit is the rank-one traceless matrices; the projectivized bundle
    route gives the closed form directly: Z in even degrees up to 2n-4 and
    odd degrees from 2n-1 to 4n-5, Z/n in the middle degree 2n-2.  Refuses,
    before making any entry, an n whose A_{n-1} is over the root budget.
    """
    if type(n) is not int or n < 2:
        raise DomainError(f"type A alternative needs an int n >= 2, got n = {n!r}")
    label = TypeLabel("A", n - 1)
    _check_root_budget(label)
    entries = dict.fromkeys([*range(0, 2 * n - 3, 2), *range(2 * n - 1, 4 * n - 4, 2)], (1, ()))
    entries[2 * n - 2] = (0, (n,))
    return OrbitCohomology(label, 2 * n - 2, n, GradedAbelianGroup(entries))


def to_json_dict(oc: OrbitCohomology) -> dict:
    """Schema-stable JSON form: degrees ascending, torsion ascending.
    Anything but an OrbitCohomology is refused with DomainError."""
    if type(oc) is not OrbitCohomology:
        raise DomainError(f"the JSON form is of an OrbitCohomology, got {type(oc).__name__}")
    return {
        "type": str(oc.type_label),
        "d": oc.d,
        "h_dual": oc.h_dual,
        "H": [
            {"n": n, "rank": free, "torsion": list(torsion)}
            for n, (free, torsion) in oc.table.items()
        ],
    }


def _field(obj, key: str, kind: type):
    """obj[key], checked to be a kind; DomainError names the field."""
    if not isinstance(obj, dict) or key not in obj:
        raise DomainError(f"cohomology JSON lacks the field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise DomainError(f"cohomology JSON field {key!r} must be {kind.__name__}, got {value!r}")
    return value


def from_json_dict(obj: dict) -> OrbitCohomology:
    """Inverse of ``to_json_dict``; DomainError names a missing or ill-typed
    field, a ``d`` or ``h_dual`` contradicting the type, or a bad degree ``n``.
    A negative rank or a bad torsion entry is refused by ``GradedAbelianGroup``."""
    label = parse_type(_field(obj, "type", str))
    d, h_dual = _field(obj, "d", int), _field(obj, "h_dual", int)
    _check_root_budget(label)
    expected = _DUAL_COXETER_NUMBER[label.series](label.rank)
    if h_dual != expected:
        raise DomainError(f"cohomology JSON field 'h_dual' is {h_dual}, but {label} has h_dual = {expected}")
    if d != 2 * h_dual - 2:
        raise DomainError(f"cohomology JSON field 'd' is {d}, but {label} has d = 2 h_dual - 2 = {2 * h_dual - 2}")
    entries = {}
    for e in _field(obj, "H", list):
        n = _field(e, "n", int)
        if n in entries or not 0 <= n < 2 * d:
            raise DomainError(f"cohomology JSON degree n = {n} is repeated or outside 0 .. {2 * d - 1}")
        entries[n] = (_field(e, "rank", int), _field(e, "torsion", list))
    return OrbitCohomology(label, d, h_dual, GradedAbelianGroup(entries))
