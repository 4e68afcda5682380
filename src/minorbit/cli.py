"""Command-line surface: every computation, deterministic text or JSON.

Each subcommand computes one JSON-ready object.  ``main`` prints it, as
``json.dumps(obj, indent=2)`` under ``--format json`` and otherwise as
the text its renderer makes from the same object, so the two forms read
one result.  ``verify`` alone prints for itself: one line per check, the
reason for a failed check on stderr.

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


def format_group(rank: int, torsion: list[int]) -> str:
    """Render an abelian group: Z, Z^2, Z/4, (Z/2)^2, Z^2 + Z/3, or 0."""
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    for factor, count in sorted(Counter(torsion).items()):
        parts.append(f"Z/{factor}" if count == 1 else f"(Z/{factor})^{count}")
    return " + ".join(parts) if parts else "0"


def format_table_text(obj: dict) -> str:
    """Text table of a cohomology in its ``to_json_dict`` form, one line per group."""
    lines = [f"H^i of the minimal orbit, type {obj['type']} (d = {obj['d']}, h_dual = {obj['h_dual']}):"]
    by_group: dict[str, list[int]] = {}
    for e in obj["H"]:
        by_group.setdefault(format_group(e["rank"], e["torsion"]), []).append(e["n"])
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


def cmd_cohomology(args) -> dict:
    from .orbit_cohomology import minimal_orbit_cohomology, to_json_dict

    return to_json_dict(minimal_orbit_cohomology(build(parse_type(args.type))))


def render_cohomology(obj: dict, args) -> str:
    return format_table_text(obj)


def cmd_dmatrices(args) -> dict:
    from . import long_root_poset

    rs = build(parse_type(args.type))
    d = long_root_poset.dimension(rs)
    return {
        "type": str(rs.type_label),
        "d": d,
        "levels": long_root_poset.levels(rs),
        "matrices": [{"i": i, "entries": long_root_poset.d_matrix(rs, i)} for i in range(1, d)],
    }


def render_dmatrices(obj: dict, args) -> str:
    lines = [f"type {obj['type']}: d = {obj['d']}, levels 0..{obj['d'] - 1}"]
    lines += [f"level {i}: {' '.join(map(format_root, level))}" for i, level in enumerate(obj["levels"])]
    for m in obj["matrices"]:
        i, mat = m["i"], m["entries"]
        lines.append(f"D_{i} (level {i - 1} -> level {i}), {len(mat)} x {len(mat[0])}:")
        lines += ["  [" + " ".join(map(str, row)) + "]" for row in mat]
    return "\n".join(lines)


def cmd_fundgroup(args) -> dict:
    from .orbit_cohomology import middle_via_lattice

    rs = build(parse_type(args.type))
    sub = long_simple_subsystem(rs)
    return {"type": str(rs.type_label), "subsystem": str(sub), "invariant_factors": list(middle_via_lattice(rs))}


def render_fundgroup(obj: dict, args) -> str:
    group = format_group(0, obj["invariant_factors"])
    return f"long-simple subsystem: {obj['subsystem']}\nfundamental group: {group}"


def cmd_decomp(args) -> dict:
    from . import decomposition
    from .int_linalg import tensor_f_dimension

    label = parse_type(args.type)
    if args.mode == "minimal":
        return {"type": str(label), "ell": args.ell, "value": decomposition.decomp_minimal(label, args.ell)}
    if args.mode == "subregular":
        mults = decomposition.decomp_subregular(label, args.ell)
        return {"type": str(label), "ell": args.ell, "multiplicities": mults}
    data = decomposition.simple_singularity(label)
    obj = {
        "type": str(label),
        "homogeneous_diagram": str(data.gamma_hat),
        "symmetry_group": data.symmetry_group,
        "invariant_factors": list(data.quotient),
    }
    if args.ell is not None:
        obj["dim_mod_ell"] = tensor_f_dimension(data.quotient, 0, args.ell)
    return obj


def render_decomp(obj: dict, args) -> str:
    if args.mode == "minimal":
        return str(obj["value"])
    if args.mode == "subregular":
        return "\n".join(f"{name}: {value}" for name, value in obj["multiplicities"].items())
    lines = [
        f"homogeneous diagram: {obj['homogeneous_diagram']}",
        f"symmetry group: {obj['symmetry_group']}",
        f"quotient: {format_group(0, obj['invariant_factors'])}",
    ]
    if args.ell is not None:
        lines.append(f"dim over F_{args.ell}: {obj['dim_mod_ell']}")
    return "\n".join(lines)


def cmd_springer_gln(args) -> dict:
    from .gln_springer import _conjugate, _regular, partitions_of, springer_image

    image = springer_image(args.n, args.ell)
    regular = [p for p in partitions_of(args.n) if _regular(p, args.ell)]
    return {
        "n": args.n,
        "ell": args.ell,
        "image": image,
        "map": [{"regular": mu, "orbit": _conjugate(mu)} for mu in regular],
    }


def render_springer_gln(obj: dict, args) -> str:
    from .gln_springer import format_partition

    lines = [f"restricted orbits for n = {obj['n']}, ell = {obj['ell']}:"]
    lines += [f"  {format_partition(p)}" for p in obj["image"]]
    lines.append("map:")
    lines += [f"  {format_partition(e['regular'])} -> {format_partition(e['orbit'])}" for e in obj["map"]]
    return "\n".join(lines)


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


def cmd_tables(args) -> list:
    from .orbit_cohomology import minimal_orbit_cohomology, to_json_dict

    return [to_json_dict(minimal_orbit_cohomology(build(label))) for label in TABLE_TYPES]


def render_tables(objs: list, args) -> str:
    return "\n\n".join(map(format_table_text, objs))


TYPE = ("--type", {"required": True})


def _command(p: argparse.ArgumentParser, run, render, *options) -> None:
    """Give a subcommand parser its options, ``--format`` when the command
    has a text renderer, and the functions ``main`` calls: ``run(args)``
    returns the result, ``render(result, args)`` its text form (None for
    a command that prints for itself)."""
    for flag, kwargs in options:
        p.add_argument(flag, **kwargs)
    if render is not None:
        p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=run, render=render)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minorbit",
        description="Exact cohomology of minimal nilpotent orbits and the "
        "decomposition numbers attached to them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = sub.add_parser
    cohomology = add("cohomology", help="integral cohomology table of the minimal orbit")
    _command(cohomology, cmd_cohomology, render_cohomology, TYPE)
    _command(add("dmatrices", help="level bases and boundary matrices"), cmd_dmatrices, render_dmatrices, TYPE)
    fundgroup = add("fundgroup", help="fundamental group of the long-simple subsystem")
    _command(fundgroup, cmd_fundgroup, render_fundgroup, TYPE)
    mode = add("decomp", help="decomposition numbers").add_subparsers(dest="mode", required=True)
    for name, needs_ell in (("minimal", True), ("subregular", True), ("simple", False)):
        ell = ("--ell", {"type": int, "required": needs_ell, "default": None})
        _command(mode.add_parser(name), cmd_decomp, render_decomp, TYPE, ell)
    springer = add("springer-gln", help="modular orbit correspondence for GL_n")
    n, ell = ("--n", {"type": int, "required": True}), ("--ell", {"type": int, "required": True})
    _command(springer, cmd_springer_gln, render_springer_gln, n, ell)
    _command(add("verify", help="run the Weyl-group oracle checks"), cmd_verify, None, TYPE)
    tables = add("tables", help="all classical and exceptional tables")
    _command(tables, cmd_tables, render_tables, ("--all", {"action": "store_true", "required": True}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.run(args)
        if args.render is None:  # verify printed its checks; result is the exit code
            return result
        if args.format == "json":
            import json

            print(json.dumps(result, indent=2))
        else:
            print(args.render(result, args))
        return 0
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
