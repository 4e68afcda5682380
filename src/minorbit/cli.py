"""Command-line surface: every computation, deterministic text or JSON.

Exit codes: 0 success, 2 usage (including bad type labels), 3 domain
errors, 4 invariant failures (a computation contradicting the structure
it relies on, which would mean a bug).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from .errors import DomainError, InvalidTypeError, InvariantFailureError
from .root_system import TypeLabel, build, long_simple_subsystem, parse_type

# Each cmd_* imports the modules it computes with, and ``json`` is imported
# on the JSON output path only, so a cold process compiles no more than
# its one subcommand needs.

TABLE_TYPES = (
    [TypeLabel("B", n) for n in range(2, 9)]
    + [TypeLabel("C", n) for n in range(2, 9)]
    + [TypeLabel("D", n) for n in range(4, 9)]
    + [TypeLabel("E", 6), TypeLabel("E", 7), TypeLabel("E", 8)]
    + [TypeLabel("F", 4), TypeLabel("G", 2)]
)


def format_group(rank: int, torsion: tuple[int, ...]) -> str:
    """Render an abelian group: Z, Z^2, Z/4, (Z/2)^2, Z^2 + Z/3, or 0."""
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    for factor, count in sorted(Counter(torsion).items()):
        parts.append(f"Z/{factor}" if count == 1 else f"(Z/{factor})^{count}")
    return " + ".join(parts) if parts else "0"


def format_table_text(oc) -> str:
    """Text table of an OrbitCohomology, one line per group."""
    lines = [f"H^i of the minimal orbit, type {oc.type_label} (d = {oc.d}, h_dual = {oc.h_dual}):"]
    by_group: dict[str, list[int]] = {}
    for n, (free, torsion) in oc.table.items():
        by_group.setdefault(format_group(free, torsion), []).append(n)
    width = max((len(g) for g in by_group), default=1)
    for group, degrees in sorted(by_group.items(), key=lambda kv: kv[1][0]):
        lines.append(f"  {group:<{width}}  for i = {', '.join(str(n) for n in degrees)}")
    lines.append(f"  {'0':<{width}}  otherwise")
    return "\n".join(lines)


def format_root(root) -> str:
    if all(0 <= x <= 9 for x in root):
        return "".join(str(x) for x in root)
    if all(-9 <= x <= 0 for x in root):
        return "-" + "".join(str(-x) for x in root)
    return "(" + ",".join(str(x) for x in root) + ")"


def _print_json(obj) -> None:
    import json

    print(json.dumps(obj, indent=2))


def _emit(obj, fmt: str, text: str) -> None:
    if fmt == "json":
        _print_json(obj)
    else:
        print(text)


def cmd_cohomology(args) -> int:
    from .orbit_cohomology import minimal_orbit_cohomology, to_json_dict

    label = parse_type(args.type)
    oc = minimal_orbit_cohomology(build(label))
    _emit(to_json_dict(oc), args.format, format_table_text(oc))
    return 0


def cmd_dmatrices(args) -> int:
    from . import long_root_poset

    rs = build(parse_type(args.type))
    lv = long_root_poset.levels(rs)
    d = long_root_poset.dimension(rs)
    matrices = [long_root_poset.d_matrix(rs, i) for i in range(1, d)]
    if args.format == "json":
        obj = {
            "type": str(rs.type_label),
            "d": d,
            "levels": [[list(root) for root in level] for level in lv],
            "matrices": [
                {"i": i, "entries": [list(row) for row in mat]}
                for i, mat in enumerate(matrices, start=1)
            ],
        }
        _print_json(obj)
        return 0
    print(f"type {rs.type_label}: d = {d}, levels 0..{d - 1}")
    for i, level in enumerate(lv):
        print(f"level {i}: {' '.join(format_root(root) for root in level)}")
    for i, mat in enumerate(matrices, start=1):
        print(f"D_{i} (level {i - 1} -> level {i}), {len(mat)} x {len(mat[0])}:")
        for row in mat:
            print("  [" + " ".join(str(x) for x in row) + "]")
    return 0


def cmd_fundgroup(args) -> int:
    from .orbit_cohomology import middle_via_lattice

    rs = build(parse_type(args.type))
    sub = long_simple_subsystem(rs)
    factors = middle_via_lattice(rs)
    if args.format == "json":
        _print_json({"type": str(rs.type_label), "subsystem": str(sub), "invariant_factors": list(factors)})
    else:
        print(f"long-simple subsystem: {sub}")
        print(f"fundamental group: {format_group(0, factors)}")
    return 0


def cmd_decomp(args) -> int:
    from . import decomposition
    from .int_linalg import tensor_f_dimension

    label = parse_type(args.type)
    if args.mode == "minimal":
        value = decomposition.decomp_minimal(label, args.ell)
        _emit({"type": str(label), "ell": args.ell, "value": value}, args.format, str(value))
        return 0
    if args.mode == "subregular":
        mults = decomposition.decomp_subregular(label, args.ell)
        text = "\n".join(f"{name}: {value}" for name, value in mults.items())
        _emit(
            {"type": str(label), "ell": args.ell, "multiplicities": mults}, args.format, text
        )
        return 0
    data = decomposition.simple_singularity(label)
    obj = {
        "type": str(label),
        "homogeneous_diagram": str(data.gamma_hat),
        "symmetry_group": data.symmetry_group,
        "invariant_factors": list(data.quotient),
    }
    lines = [
        f"homogeneous diagram: {data.gamma_hat}",
        f"symmetry group: {data.symmetry_group}",
        f"quotient: {format_group(0, data.quotient)}",
    ]
    if args.ell is not None:
        dim = tensor_f_dimension(data.quotient, 0, args.ell)
        obj["dim_mod_ell"] = dim
        lines.append(f"dim over F_{args.ell}: {dim}")
    _emit(obj, args.format, "\n".join(lines))
    return 0


def cmd_springer_gln(args) -> int:
    from . import gln_springer

    image = gln_springer.springer_image(args.n, args.ell)
    regular = [p for p in gln_springer.partitions_of(args.n) if gln_springer.is_ell_regular(p, args.ell)]
    mapping = [(mu, gln_springer.psi(mu, args.ell)) for mu in regular]
    if args.format == "json":
        obj = {
            "n": args.n,
            "ell": args.ell,
            "image": [list(p) for p in image],
            "map": [{"regular": list(mu), "orbit": list(la)} for mu, la in mapping],
        }
        _print_json(obj)
        return 0
    print(f"restricted orbits for n = {args.n}, ell = {args.ell}:")
    for p in image:
        print(f"  {gln_springer.format_partition(p)}")
    print("map:")
    for mu, la in mapping:
        print(f"  {gln_springer.format_partition(mu)} -> {gln_springer.format_partition(la)}")
    return 0


def cmd_verify(args) -> int:
    from . import weyl_oracle

    rs = build(parse_type(args.type))
    checks = {
        "level-length": weyl_oracle.level_length_failure(rs),
        "reflection-length": weyl_oracle.reflection_length_failure(rs),
    }
    for name, failure in checks.items():
        print(f"{name}: {'ok' if failure is None else 'FAILED'}")
        if failure is not None:
            print(f"{name}: {failure}", file=sys.stderr)
    return 4 if any(checks.values()) else 0


def cmd_tables(args) -> int:
    from .orbit_cohomology import minimal_orbit_cohomology, to_json_dict

    tables = [minimal_orbit_cohomology(build(label)) for label in TABLE_TYPES]
    if args.format == "json":
        _print_json([to_json_dict(oc) for oc in tables])
        return 0
    print("\n\n".join(format_table_text(oc) for oc in tables))
    return 0


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minorbit",
        description="Exact cohomology of minimal nilpotent orbits and the "
        "decomposition numbers attached to them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", help="integral cohomology table of the minimal orbit")
    p.add_argument("--type", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("dmatrices", help="level bases and boundary matrices")
    p.add_argument("--type", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_dmatrices)

    p = sub.add_parser("fundgroup", help="fundamental group of the long-simple subsystem")
    p.add_argument("--type", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_fundgroup)

    p = sub.add_parser("decomp", help="decomposition numbers")
    mode = p.add_subparsers(dest="mode", required=True)
    for name, needs_ell in (("minimal", True), ("subregular", True), ("simple", False)):
        q = mode.add_parser(name)
        q.add_argument("--type", required=True)
        q.add_argument("--ell", type=int, required=needs_ell, default=None)
        _add_format(q)
        q.set_defaults(func=cmd_decomp)

    p = sub.add_parser("springer-gln", help="modular orbit correspondence for GL_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_springer_gln)

    p = sub.add_parser("verify", help="run the Weyl-group oracle checks")
    p.add_argument("--type", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tables", help="all classical and exceptional tables")
    p.add_argument("--all", action="store_true", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantFailureError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
