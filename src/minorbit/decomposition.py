"""Decomposition numbers that reduce to lattice quotients.

Three families are computed: the weight/root quotient of the simple
(Kleinian) singularity attached to a type, the subregular multiplicities
split by character of the symmetry group, and the single number attached
to the minimal class.  The subregular map is keyed by the modular
characters that ``characters`` lists, zero but for the few nonzero entries
each inhomogeneous series has; a degree-weighted sum rule guards it
against the dimension of the full quotient.

Both quotients depend on the type alone, so each is kept in the package's one
store (``errors.weighed_cache``), keyed on the label: the weight/root quotient
by ``simple_singularity``, and the minimal-class one, of the long-simple
subsystem, by ``orbit_cohomology._long_simple_quotient``, which
``middle_via_lattice`` reads too; it comes from the Dynkin diagram, so no
root is built.  Each number tests ell once, after the type's own checks and
before any quotient is made, so a refusal costs no work.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError, InvariantFailureError, weighed_cache
from .int_linalg import _check_prime, _torsion_f_dimension
from .orbit_cohomology import _factor_count, _lattice_quotient, _long_simple_quotient
from .root_system import TypeLabel, _check_root_budget, cartan_matrix

# irreducible characters of the symmetry group that survive reduction mod ell
_CHARACTER_DEGREES = {"1": 1, "eps": 1, "psi": 2}


class SimpleSingularityData(namedtuple("SimpleSingularityData", "gamma gamma_hat symmetry_group quotient")):
    """Homogeneous diagram, symmetry group ("trivial", "Z2" or "S3") and the
    invariant factors of the weight/root quotient of a type."""

    __slots__ = ()


def _gamma_hat(label: TypeLabel) -> tuple[TypeLabel, str]:
    s, n = label.series, label.rank
    if s == "B":
        return TypeLabel("A", 2 * n - 1), "Z2"
    if s == "C":
        # the rank-3 homogeneous diagram D_3 is A_3
        return (TypeLabel("A", 3) if n == 2 else TypeLabel("D", n + 1)), "Z2"
    if s == "F":
        return TypeLabel("E", 6), "Z2"
    if s == "G":
        return TypeLabel("D", 4), "S3"
    return label, "trivial"


def _homogeneous(label: TypeLabel) -> tuple[TypeLabel, str]:
    """The homogeneous diagram and symmetry group of a type; DomainError names
    the type when its diagram is over the root budget (B51 and up)."""
    _check_root_budget(label)
    hat, sym = _gamma_hat(label)
    try:
        _check_root_budget(hat)
    except DomainError as exc:
        raise DomainError(f"{label}: the homogeneous diagram {exc}") from None
    return hat, sym


def _weigh_singularity(label: TypeLabel) -> int:
    """The tuple slots of a type's ``SimpleSingularityData``, in closed form: its
    own four, two for a homogeneous diagram that is another label, and one per
    invariant factor of that diagram's quotient.  Refuses first a diagram over
    the root budget."""
    hat = _homogeneous(label)[0]
    return 4 + 2 * (hat != label) + _factor_count(hat)


@weighed_cache(_check_root_budget, _weigh_singularity)
def simple_singularity(label: TypeLabel) -> SimpleSingularityData:
    """Attach the homogeneous diagram, its symmetry group, and the
    invariant factors of its weight lattice modulo root lattice."""
    hat, sym = _gamma_hat(label)
    quotient = _lattice_quotient(label, f"its homogeneous diagram {hat}", cartan_matrix(hat))
    return SimpleSingularityData(label, hat, sym, quotient)


def characters(symmetry_group: str, ell: int) -> tuple[str, ...]:
    """Names of the irreducible modular characters of the symmetry group."""
    _check_prime(ell)
    if symmetry_group == "trivial":
        return ("1",)
    if symmetry_group == "Z2":
        return ("1",) if ell == 2 else ("1", "eps")
    if symmetry_group == "S3":
        if ell == 2:
            return ("1", "psi")
        if ell == 3:
            return ("1", "eps")
        return ("1", "eps", "psi")
    raise DomainError(f"unknown symmetry group {symmetry_group!r}")


def character_degree(name: str) -> int:
    """Degree of a character that ``characters`` lists; DomainError names any other."""
    if type(name) is not str or name not in _CHARACTER_DEGREES:
        raise DomainError(f"unknown character {name!r}")
    return _CHARACTER_DEGREES[name]


def decomp_minimal(label: TypeLabel, ell: int) -> int:
    """Multiplicity tying the minimal class to the origin.

    Equals the F_ell-dimension of the coweight/coroot quotient of the
    subsystem generated by the long simple roots; nonzero exactly when ell
    divides its connection index.  The type is checked, then ell, then the
    stored quotient is read: it comes from the Dynkin diagram, so no record
    is ever built.
    """
    _check_root_budget(label)
    _check_prime(ell)
    return _torsion_f_dimension(_long_simple_quotient(label), ell)


def decomp_subregular(label: TypeLabel, ell: int) -> dict[str, int]:
    """Per-character multiplicities tying the regular class to the
    subregular one, as a map over the modular characters at ell."""
    # the type's checks, then ell's (in characters), then the quotient
    out = dict.fromkeys(characters(_homogeneous(label)[1], ell), 0)
    data = simple_singularity(label)
    s, n = label.series, label.rank
    dim = _torsion_f_dimension(data.quotient, ell)
    if data.symmetry_group == "trivial":
        out["1"] = dim
    elif s == "B" and ell == 2:
        out["1"] = 1
    elif s == "B" and n % ell == 0:
        out["eps"] = 1
    elif s == "C" and ell == 2:
        out["1"] = 1 if n % 2 == 0 else 2
    elif s == "F" and ell == 3:
        out["eps"] = 1
    elif s == "G" and ell == 2:
        out["psi"] = 1
    weighted = sum(character_degree(name) * mult for name, mult in out.items())
    if weighted != dim:
        raise InvariantFailureError(
            f"degree-weighted multiplicities for {label} at ell={ell} do not "
            f"sum to the quotient dimension"
        )
    return out
