"""Exact cohomology of minimal nilpotent orbits from root-system data.

The package computes, over the integers and with no floating point
anywhere, the cohomology of the minimal nilpotent orbit of each simple
complex Lie algebra, together with the lattice-quotient decomposition
numbers attached to the subregular and minimal classes and the partition
combinatorics of the GL_n story.
"""

from .errors import DomainError, InvalidTypeError, InvariantFailureError
from .gln_springer import (
    adjacent_in_dominance,
    conjugate,
    decomp_adjacent,
    dominance_le,
    is_ell_regular,
    is_ell_restricted,
    minimal_degeneration,
    parse_partition,
    psi,
    row_column_reduce,
    springer_image,
)
from .decomposition import decomp_minimal, decomp_subregular, simple_singularity
from .int_linalg import SmithForm, cokernel, kernel_rank, smith, tensor_f_dimension
from .long_root_poset import d_matrix, edge_coefficient, level, levels, middle_matrix
from .orbit_cohomology import (
    GradedAbelianGroup,
    OrbitCohomology,
    bad_torsion_report,
    cone_over_curve,
    from_json_dict,
    middle_via_lattice,
    minimal_orbit_cohomology,
    rational_half_check,
    to_json_dict,
    type_a_alternative,
)
from .root_system import (
    RootSystem,
    TypeLabel,
    build,
    build_from_string,
    cartan_of_subset,
    dual_height,
    highest_root,
    is_long,
    long_simple_subsystem,
    parse_type,
)
from .weyl_oracle import (
    coset_reps,
    enumerate_group,
    verify_level_length,
    verify_reflection_length,
)

__version__ = "0.1.0"
