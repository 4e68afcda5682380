"""Exact cohomology of minimal nilpotent orbits from root-system data.

The package computes, over the integers and with no floating point
anywhere, the cohomology of the minimal nilpotent orbit of each simple
complex Lie algebra, together with the lattice-quotient decomposition
numbers attached to the subregular and minimal classes and the partition
combinatorics of the GL_n story.

The exports below are lazy (PEP 562): ``minorbit.build`` imports
``minorbit.root_system`` on first access, so a process imports only the
modules it uses.  Each access reads the submodule's attribute afresh.
"""

import importlib

_EXPORTS = {
    "errors": ("DomainError", "InvalidTypeError", "InvariantFailureError"),
    "gln_springer": (
        "adjacent_in_dominance", "conjugate", "decomp_adjacent", "dominance_le", "is_ell_regular",
        "is_ell_restricted", "minimal_degeneration", "parse_partition", "psi", "row_column_reduce", "springer_image",
    ),
    "decomposition": ("decomp_minimal", "decomp_subregular", "simple_singularity"),
    "int_linalg": ("SmithForm", "cokernel", "kernel_rank", "smith", "tensor_f_dimension"),
    "long_root_poset": ("d_matrix", "level", "levels"),
    "orbit_cohomology": (
        "GradedAbelianGroup", "OrbitCohomology", "from_json_dict", "middle_via_lattice", "minimal_orbit_cohomology",
        "to_json_dict", "type_a_alternative",
    ),
    "root_system": (
        "RootSystem", "TypeLabel", "build", "cartan_of_subset", "dual_height", "highest_root",
        "is_long", "long_simple_subsystem", "parse_type",
    ),
    "weyl_oracle": (
        "coset_reps", "level_length_failure", "reflection_length_failure", "verify_level_length",
        "verify_reflection_length",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
