import contextlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from minorbit import orbit_cohomology
from minorbit.cli import main
from minorbit.decomposition import simple_singularity
from minorbit.errors import InvariantFailureError
from minorbit.orbit_cohomology import from_json_dict, minimal_orbit_cohomology
from minorbit.root_system import build, parse_type


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_text_g2(capsys):
    code, out, err = run(capsys, "cohomology", "--type", "G2")
    assert code == 0 and not err
    assert "for i = 0, 11" in out
    assert "Z/3" in out and "for i = 4, 8" in out
    assert "Z/2" in out and "for i = 6" in out
    assert "otherwise" in out


def test_cohomology_text_a1(capsys):
    code, out, _ = run(capsys, "cohomology", "--type", "A1")
    assert code == 0
    assert "for i = 0, 3" in out
    assert "Z/2" in out


def test_cohomology_json_round_trip(capsys):
    for label in ["E7", "B5", "D6", "G2"]:
        code, out, _ = run(capsys, "cohomology", "--type", label, "--format", "json")
        assert code == 0
        parsed = from_json_dict(json.loads(out))
        assert parsed == minimal_orbit_cohomology(build(parse_type(label)))


def test_cohomology_e7_span(capsys):
    code, out, _ = run(capsys, "cohomology", "--type", "E7", "--format", "json")
    obj = json.loads(out)
    assert obj["d"] == 34
    assert max(e["n"] for e in obj["H"]) == 67


def test_determinism(capsys):
    first = run(capsys, "tables", "--all")
    second = run(capsys, "tables", "--all")
    assert first == second
    assert first[0] == 0
    for header in ["type B2", "type C8", "type D4", "type E8", "type F4", "type G2"]:
        assert header in first[1]


def test_bad_type_exit_2(capsys):
    code, out, err = run(capsys, "cohomology", "--type", "Z9")
    assert code == 2 and not out and "error" in err
    code, _, err = run(capsys, "cohomology", "--type", "D3")
    assert code == 2
    code, out, err = run(capsys, "cohomology", "--type", "A" + "9" * 5000)
    assert code == 2 and not out and err == "error: rank of 5000 digits is too long\n"


def test_domain_error_exit_3(capsys):
    code, _, err = run(capsys, "decomp", "minimal", "--type", "A3", "--ell", "4")
    assert code == 3 and "prime" in err
    code, _, err = run(capsys, "verify", "--type", "A60")
    assert code == 3 and "over the budget of" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["cohomology"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["tables"])
    assert info.value.code == 2


def test_dmatrices_text(capsys):
    code, out, _ = run(capsys, "dmatrices", "--type", "G2")
    assert code == 0
    assert "level 0: 23" in out
    assert "level 2: 10" in out
    assert "level 5: -23" in out
    assert "D_2" in out and "[3]" in out


def test_dmatrices_json(capsys):
    code, out, _ = run(capsys, "dmatrices", "--type", "F4", "--format", "json")
    obj = json.loads(out)
    assert obj["d"] == 16
    mats = {m["i"]: m["entries"] for m in obj["matrices"]}
    assert mats[6] == [[2, 0], [1, 2]]
    assert len(obj["levels"]) == 16


def test_fundgroup(capsys):
    code, out, _ = run(capsys, "fundgroup", "--type", "D5")
    assert code == 0
    assert "subsystem: D5" in out
    assert "Z/4" in out
    code, out, _ = run(capsys, "fundgroup", "--type", "B6", "--format", "json")
    obj = json.loads(out)
    assert obj["subsystem"] == "A5" and obj["invariant_factors"] == [6]


def test_decomp_minimal(capsys):
    code, out, _ = run(capsys, "decomp", "minimal", "--type", "f4", "--ell", "3")
    assert code == 0 and out.strip() == "1"


def test_decomp_large_prime(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "decomp", "minimal", "--type", "A1", "--ell", "1000000000000000009")
    assert code == 0 and out.strip() == "0"
    assert time.perf_counter() - start < 1.0
    # primality is not decided above the Miller-Rabin bound: a domain error
    code, out, err = run(capsys, "decomp", "minimal", "--type", "A1", "--ell", str(10**25))
    assert code == 3 and not out and "primality" in err


def test_decomp_over_the_root_budget_exits_3(capsys, time_budget):
    # simple_singularity refuses the A100000 Cartan matrix before making it
    with time_budget(1.0):
        for mode in (["simple"], ["subregular", "--ell", "2"]):
            code, out, err = run(capsys, "decomp", *mode, "--type", "A100000")
            assert code == 3 and not out and "over the budget" in err


def test_decomp_refusal_names_the_requested_type(capsys):
    # B51 has 5202 roots, but its homogeneous diagram A101 has 10302
    for mode in (["simple"], ["subregular", "--ell", "3"]):
        code, out, err = run(capsys, "decomp", *mode, "--type", "B51")
        assert code == 3 and not out
        assert err == "error: B51: the homogeneous diagram A101 has 10302 roots, over the budget of 10000\n"


@pytest.mark.parametrize("digits", [2200, 4300])
def test_a_rank_of_thousands_of_digits_exits_3(digits, capsys, time_budget):
    # rank * h then has more digits than str() of an int may print, so the count is not printed
    label = "A" + "9" * digits
    commands = [["cohomology"], ["dmatrices"], ["fundgroup"], ["verify"], ["decomp", "simple"]]
    for argv in commands + [["decomp", "minimal", "--ell", "2"]]:
        with time_budget(1.0):
            code, out, err = run(capsys, *argv, "--type", label)
        assert (code, out) == (3, ""), argv
        assert err == f"error: {label} has over 10^100 roots, over the budget of 10000\n", argv


def test_verify_over_the_oracle_budget_exits_3(capsys, time_budget):
    # the W^J of A45 times its roots is 2070 * 2070, refused before any oracle work
    with time_budget(1.0):
        code, out, err = run(capsys, "verify", "--type", "A45")
    assert code == 3 and not out and "over the budget" in err


def test_decomp_subregular(capsys):
    code, out, _ = run(capsys, "decomp", "subregular", "--type", "C3", "--ell", "2")
    assert code == 0 and out.strip() == "1: 2"
    code, out, _ = run(capsys, "decomp", "subregular", "--type", "G2", "--ell", "2")
    assert out.splitlines() == ["1: 0", "psi: 1"]


def test_decomp_simple(capsys):
    code, out, _ = run(capsys, "decomp", "simple", "--type", "G2")
    assert code == 0
    assert "homogeneous diagram: D4" in out
    assert "symmetry group: S3" in out
    assert "(Z/2)^2" in out
    code, out, _ = run(capsys, "decomp", "simple", "--type", "F4", "--ell", "3", "--format", "json")
    obj = json.loads(out)
    assert obj["homogeneous_diagram"] == "E6" and obj["dim_mod_ell"] == 1


def test_springer_gln(capsys):
    code, out, _ = run(capsys, "springer-gln", "--n", "4", "--ell", "2")
    assert code == 0
    assert "2,1,1" in out and "1,1,1,1" in out
    assert "4 -> 1,1,1,1" in out
    assert "3,1 -> 2,1,1" in out


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--type", "B3")
    assert code == 0
    assert "level-length: ok" in out
    assert "reflection-length: ok" in out


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "--all", "--format", "json")
    arr = json.loads(out)
    labels = [entry["type"] for entry in arr]
    assert labels == (
        [f"B{n}" for n in range(2, 9)]
        + [f"C{n}" for n in range(2, 9)]
        + [f"D{n}" for n in range(4, 9)]
        + ["E6", "E7", "E8", "F4", "G2"]
    )


HELP = json.loads((Path(__file__).parent / "cli_help.json").read_text())


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_is_unchanged(command, capsys, monkeypatch):
    # cli_help.json holds every --help text at 80 columns, top level under ""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main([*command.split(), "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out == HELP[command]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["cohomology", "--type", "A100"], 3, "A100 has 10100 roots, over the budget"),
        (["dmatrices", "--type", "D3"], 2, "rank 3 invalid for series D"),
        (["dmatrices", "--type", "B71"], 3, "over the budget"),
        (["fundgroup", "--type", "Q2"], 2, "unknown series 'Q'"),
        (["fundgroup", "--type", "C80", "--format", "json"], 3, "over the budget"),
        (["decomp", "simple", "--type", "E9"], 2, "rank 9 invalid for series E"),
        (["decomp", "subregular", "--type", "B3", "--ell", "6"], 3, "6 is not prime"),
        (["springer-gln", "--n", "0", "--ell", "2"], 3, "n >= 1"),
        (["verify", "--type", "x"], 2, "cannot parse type label"),
        (["tables", "--all", "--format", "json"], 0, ""),
    ],
)
def test_exit_codes_per_subcommand(argv, code, message, capsys):
    got, out, err = run(capsys, *argv)
    assert got == code and message in err
    assert bool(out) == (code == 0)


def test_invariant_failure_exit_4(capsys, monkeypatch):
    # each subcommand reads its layer at call time, so a patched layer is seen
    def broken(rs):
        raise InvariantFailureError(f"broken for {rs.type_label}")

    monkeypatch.setattr(orbit_cohomology, "minimal_orbit_cohomology", broken)
    code, out, err = run(capsys, "cohomology", "--type", "G2")
    assert code == 4 and not out and err == "invariant failure: broken for G2\n"


@pytest.mark.parametrize(
    "module, argv, message",
    [
        # both raises go through orbit_cohomology's one lattice quotient
        (orbit_cohomology, ("decomp", "simple", "--type", "B3"), "B3: the Cartan matrix of its homogeneous diagram A5"),
        (orbit_cohomology, ("fundgroup", "--type", "F4"), "F4: the Cartan matrix of its long-simple subsystem"),
    ],
)
def test_singular_cartan_names_the_type(module, argv, message, capsys, monkeypatch):
    monkeypatch.setattr(module, "cokernel", lambda matrix: (1, ()))
    quotients = (simple_singularity, orbit_cohomology._long_simple_quotient)
    for stored in quotients:  # a stored quotient would answer before the patched cokernel
        stored.cache_clear()
    try:
        code, out, err = run(capsys, *argv)
    finally:
        for stored in quotients:
            stored.cache_clear()
    shape = {"B3": "5x5", "F4": "2x2"}[argv[-1]]  # A5's Cartan matrix, and F4's long simple roots
    assert code == 4 and not out and err == f"invariant failure: {message} ({shape}) is singular\n"


def _spaced(text):
    return st.tuples(st.sampled_from(["", " ", "  ", "\t"]), st.sampled_from(["", " "])).map(
        lambda pad: pad[0] + text + pad[1]
    )


# Ranks from 0 to past the 4,300 digits int() reads; admitted ranks above 20
# only at the edges of the root budget, so the examples stay cheap to build.
RANKS = st.one_of(
    st.integers(0, 20).map(str),
    st.sampled_from(["70", "71", "99", "100"]),
    st.integers(1, 4301).map(lambda k: "9" * k),
    st.integers(1, 4301).map(lambda k: "1" + "0" * (k - 1)),
)
SERIES = st.one_of(st.sampled_from("ABCDabcd"), st.sampled_from("EFGefgHQ"))
LABELS = st.one_of(
    st.tuples(SERIES, RANKS).flatmap(lambda lr: _spaced(lr[0] + lr[1])),
    st.sampled_from(["E6", "e7", "E8", "f4", "G2"]).flatmap(_spaced),
)
ELLS = st.one_of(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(-5, 30),
    st.sampled_from([10**9 + 7, 2**61 - 1, 2**89 - 1, 10**40]),
    st.integers(-(10**40), 10**40),
).map(str)
# admitted n above 32 cost up to a second a call (tests/full_checks.py runs n = 45)
NS = st.one_of(st.integers(-3, 32), st.integers(46, 10**23)).map(str)
FORMAT = st.sampled_from([[], ["--format", "json"]])


def _json_of_megabytes(argv):
    """dmatrices --format json at A99, B70, D70 and D71 prints 13-20 MB, in 1.0-1.7 s a call
    on a 2-vCPU VM, too near the budget; tests/full_checks.py runs A99, B70 and D71."""
    return argv[0] == "dmatrices" and "json" in argv and argv[2].strip().upper() in ("A99", "B70", "D70", "D71")


# every subcommand; --format wherever the command takes it
ARGVS = st.one_of(
    st.builds(
        lambda command, label, fmt: [command, "--type", label, *fmt],
        st.sampled_from(["cohomology", "dmatrices", "fundgroup"]),
        LABELS,
        FORMAT,
    ).filter(lambda argv: not _json_of_megabytes(argv)),
    st.builds(lambda label: ["verify", "--type", label], LABELS),
    st.builds(
        lambda mode, label, ell, fmt: ["decomp", mode, "--type", label, "--ell", ell, *fmt],
        st.sampled_from(["minimal", "subregular", "simple"]),
        LABELS,
        ELLS,
        FORMAT,
    ),
    st.builds(lambda label, fmt: ["decomp", "simple", "--type", label, *fmt], LABELS, FORMAT),
    st.builds(lambda n, ell, fmt: ["springer-gln", "--n", n, "--ell", ell, *fmt], NS, ELLS, FORMAT),
    st.builds(lambda flag, fmt: ["tables", *flag, *fmt], st.sampled_from([[], ["--all"]]), FORMAT),
)


def _run_quietly(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# time_budget holds no state between examples, so one fixture serves them all
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ARGVS)
@example(["decomp", "subregular", "--type", "B3", "--ell", "0"])  # once a ZeroDivisionError traceback
def test_every_subcommand_answers_or_refuses(time_budget, argv):
    with time_budget(2.0):
        code, out, err = _run_quietly(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    assert bool(out) == (code == 0), argv
    with time_budget(2.0):
        assert _run_quietly(argv)[:2] == (code, out), argv
