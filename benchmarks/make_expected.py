"""Write benchmarks/expected/*.json, the reference outputs of every request kind.

    python3 benchmarks/make_expected.py

Outputs are computed with the minorbit in this checkout and cross-checked
as they are written.  Each cohomology and dmatrices entry records its
`source`:

- "golden": equal to tests/golden_data.py (E6, E7, E8, F4, G2).  Both the
  JSON and the text output are parsed back and compared.
- "closed-form": type A, equal to the closed form written out below,
  independently of the program.
- "frozen": no independent reference; the value is the program's output
  when the file was made.

Decomposition numbers, GL_n answers and oracle verdicts are frozen.
Rerun only when an output is meant to change, and review the diff.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import re
import sys

import workloads
from harness import EXPECTED, ROOT, canonical, load_minorbit, session_call, session_output, sha256

BIG_PRIMES = (1_000_000_007, 99_999_999_977)


def expect(condition: bool, what) -> None:
    if not condition:
        raise SystemExit(f"cross-check failed: {what}")


def type_a_closed_form(rank: int) -> dict:
    """H^*(O_min) for A_{n-1}, n = rank + 1: Z in even degrees 0..2n-4,
    Z/n in degree 2n-2, Z in odd degrees 2n-1..4n-5."""
    n = rank + 1
    table = {i: (1, ()) for i in range(0, 2 * n - 3, 2)}
    table[2 * n - 2] = (0, (n,))
    table.update({i: (1, ()) for i in range(2 * n - 1, 4 * n - 4, 2)})
    return {"d": 2 * n - 2, "h_dual": n, "table": table}


def table_of(value: dict) -> dict:
    return {e["n"]: (e["rank"], tuple(e["torsion"])) for e in value["H"]}


def parse_group(text: str) -> tuple[int, tuple[int, ...]]:
    """Inverse of the CLI's group rendering: 'Z^2 + (Z/2)^3', '0', ..."""
    free, torsion = 0, []
    if text == "0":
        return 0, ()
    for part in text.split(" + "):
        if m := re.fullmatch(r"Z(?:\^(\d+))?", part):
            free += int(m.group(1) or 1)
        elif m := re.fullmatch(r"\(?Z/(\d+)\)?(?:\^(\d+))?", part):
            torsion += [int(m.group(1))] * int(m.group(2) or 1)
        else:
            raise ValueError(f"cannot parse group {part!r}")
    return free, tuple(sorted(torsion))


def parse_cohomology_text(text: str) -> dict:
    lines = text.rstrip("\n").split("\n")
    head = re.fullmatch(r"H\^i of the minimal orbit, type (\w+) \(d = (\d+), h_dual = (\d+)\):", lines[0])
    table = {}
    for line in lines[1:-1]:
        group, degrees = re.fullmatch(r"  (.+?)\s+for i = ([\d, ]+)", line).groups()
        for n in degrees.split(", "):
            table[int(n)] = parse_group(group)
    expect(lines[-1].split() == ["0", "otherwise"], lines[-1])
    return {"d": int(head.group(2)), "h_dual": int(head.group(3)), "table": table}


def parse_dmatrices_text(text: str) -> dict:
    matrices, current = {}, None
    for line in text.splitlines():
        if m := re.match(r"D_(\d+) \(", line):
            current = matrices.setdefault(int(m.group(1)), [])
        elif line.startswith("  [") and current is not None:
            current.append(tuple(int(x) for x in line.strip()[1:-1].split()))
    return {i: tuple(rows) for i, rows in matrices.items()}


def run_cli(cli, args: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(args)
    expect(code == 0, (args, code))
    return buffer.getvalue()


def load_golden():
    spec = importlib.util.spec_from_file_location("golden_data", ROOT / "tests" / "golden_data.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return golden


def cli_entries(cli, golden) -> tuple[dict, dict]:
    cohomology, dmatrices = {}, {}
    for t in workloads.CLI_TYPES:
        text = run_cli(cli, ["cohomology", "--type", t])
        js = run_cli(cli, ["cohomology", "--type", t, "--format", "json"])
        value = json.loads(js)
        got = {"d": value["d"], "h_dual": value["h_dual"], "table": table_of(value)}
        expect(parse_cohomology_text(text) == got, t)
        if t in golden.COHOMOLOGY:
            source = "golden"
            expect(got["table"] == golden.COHOMOLOGY[t], t)
        elif t[0] == "A":
            source = "closed-form"
            expect(got == type_a_closed_form(int(t[1:])), t)
        else:
            source = "frozen"
        cohomology[t] = {"source": source, "value": value, "text_sha256": sha256(text), "json_sha256": sha256(js)}

        text = run_cli(cli, ["dmatrices", "--type", t])
        js = run_cli(cli, ["dmatrices", "--type", t, "--format", "json"])
        source = "frozen"
        if t in golden.D_MATRICES:
            source = "golden"
            want = golden.D_MATRICES[t]  # the golden file lists the lower half of the degrees
            from_text = parse_dmatrices_text(text)
            from_json = {m["i"]: tuple(map(tuple, m["entries"])) for m in json.loads(js)["matrices"]}
            expect(all(from_text[i] == from_json[i] == want[i] for i in want), t)
            expect(from_text == from_json, t)
        dmatrices[t] = {"source": source, "text_sha256": sha256(text), "json_sha256": sha256(js)}
    return cohomology, dmatrices


def session_entries(mb) -> tuple[dict, dict, dict]:
    def answer(req):
        return session_output(req, session_call(mb, req))

    decomposition = {op: {} for op in workloads.DECOMP_OPS}
    for op, table in decomposition.items():
        for t in workloads.HOT_SET:
            for ell in workloads.SMALL_PRIMES:
                table[f"{t}:{ell}"] = answer({"op": op, "type": t, "ell": ell})
            big = [canonical(answer({"op": op, "type": t, "ell": p})) for p in BIG_PRIMES]
            expect(big[0] == big[1], (op, t))
            table[f"{t}:big"] = json.loads(big[0])

    g = mb.gln_springer
    images, pairs = {}, {}
    for n in workloads.GLN_SIZES:
        for ell in workloads.SMALL_PRIMES:
            images[f"{n}:{ell}"] = sha256(canonical([list(p) for p in g.springer_image(n, ell)]))
        parts = workloads.partitions(n)
        for lam, mu in zip(parts, parts[1:]):
            key = f"{','.join(map(str, lam))}|{','.join(map(str, mu))}"
            adjacent = g.adjacent_in_dominance(lam, mu)
            pairs[key] = {str(ell): g.decomp_adjacent(lam, mu, ell) for ell in workloads.SMALL_PRIMES} if adjacent else None

    verify = {t: answer({"op": "verify", "type": t}) for t in workloads.VERIFY_TYPES}
    expect(all(v == [True, True] for v in verify.values()), verify)
    return decomposition, {"springer_image": images, "adjacent": pairs}, verify


def dump(obj, depth: int, indent: str = "") -> str:
    """JSON with one entry per line down to the given depth."""
    if depth == 0 or not isinstance(obj, dict):
        return json.dumps(obj, sort_keys=True)
    inner = indent + " "
    entries = [f"{inner}{json.dumps(k)}: {dump(v, depth - 1, inner)}" for k, v in sorted(obj.items())]
    return "{\n" + ",\n".join(entries) + "\n" + indent + "}"


def write(name: str, obj, depth: int) -> None:
    path = EXPECTED / f"{name}.json"
    path.write_text(dump(obj, depth) + "\n")
    print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)


def main() -> None:
    mb = load_minorbit()
    golden = load_golden()
    EXPECTED.mkdir(exist_ok=True)
    cohomology, dmatrices = cli_entries(mb.cli, golden)
    decomposition, gln, verify = session_entries(mb)
    write("cohomology", cohomology, 1)
    write("dmatrices", dmatrices, 1)
    write("decomposition", decomposition, 2)
    write("gln", gln, 2)
    write("verify", verify, 1)


if __name__ == "__main__":
    main()
