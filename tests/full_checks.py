"""The full tier: the tier-1 checks over every input the budgets admit.

The golden tables stop at rank 8, so at ranks 9-99 the answers are held
by these checks alone: the Weyl oracle on all 144 types its budget
admits, the record checks, the simple-reflection rule, the middle
torsion and the Smith diagonal of every recorded boundary matrix of all
310 types the root budget admits, with no Hermite pass in their
cohomology or decomposition numbers, the dense route
at the top rank of each classical series, the CLI in a fresh process at
the top of each budget, sessions of large inputs under a stated peak
resident memory, and the Smith layer on dense matrices larger
than any the pipeline makes.  Where a tier-1 test states a check on a
sample, this module calls that test's body, or a helper both share, so
each check is written once.

The file is not named ``test_*.py``, so a plain ``pytest`` run does not
collect it and tier-1 stays fast.  Naming it runs it, because pytest
collects every file given on its command line:

    PYTHONPATH=src python -m pytest -q tests/full_checks.py

It takes 2.5-3 minutes on a 2-vCPU VM.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import test_gln_springer
import test_int_linalg
import test_long_root_poset
import test_orbit_cohomology
import test_root_system
import test_weyl_oracle
from minorbit import errors
from minorbit.int_linalg import invariant_factors
from minorbit.root_system import build, parse_type

SRC = Path(__file__).resolve().parent.parent / "src"
EXCEPTIONAL = ["E6", "E7", "E8", "F4", "G2"]


def admitted(last_rank) -> list[str]:
    """Every classical type up to last_rank(series), then the exceptional ones."""
    first = test_root_system.FIRST_RANK
    return [f"{s}{n}" for s in "ABCD" for n in range(first[s], last_rank(s) + 1)] + EXCEPTIONAL


ORACLE_TYPES = admitted(test_weyl_oracle.last_verified_rank)
RECORD_TYPES = admitted(test_root_system.last_admitted_rank)
TOP_TYPES = [f"{s}{test_root_system.last_admitted_rank(s)}" for s in "ABCD"]
TOP_VERIFIED = [f"{s}{test_weyl_oracle.last_verified_rank(s)}" for s in "ABCD"]


@pytest.fixture(autouse=True)
def clear_store():
    # the oracle's table of a type at the top of its budget is about 30 MB
    yield
    errors.cache_clear()


def test_the_admitted_types():
    assert len(ORACLE_TYPES) == 144
    assert len(RECORD_TYPES) == 310
    assert TOP_TYPES == ["A99", "B70", "C70", "D71"]


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_the_oracle_on_every_admitted_type(label):
    # cold, then warm on the tables the first call made: the same verdict; and the
    # record and tables of any one type fit whole under the store's budget.  Then, warm,
    # a root listed twice in a level is named, and the grading is read from the levels alone
    test_weyl_oracle.test_verify_level_length(label)
    test_weyl_oracle.test_verify_reflection_length(label)
    assert test_weyl_oracle.reasons(build(parse_type(label))) == (None, None)
    held = [(name, str(key)) for name, key, _ in test_weyl_oracle.held()]
    assert sorted(held) == [("_verify_table", label), ("build", label)]
    assert errors._store.slots <= errors.CACHE_BUDGET
    test_weyl_oracle.check_a_root_listed_twice(label)
    test_weyl_oracle.check_warm_without_the_level_map(label)


def test_the_largest_verify_table_weighs_the_tuple_slots_it_holds():
    # C37's table is the largest the oracle budget admits
    test_weyl_oracle.test_each_table_weighs_the_tuple_slots_it_adds("C37")


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_the_record_on_every_admitted_type(name):
    rs = build(parse_type(name))
    test_root_system.test_positive_root_order(rs)
    test_root_system.test_highest_root(rs)
    test_weyl_oracle.test_the_positions_the_oracle_reads(name)
    test_long_root_poset.check_record_shape(rs)
    test_long_root_poset.test_levels_hold_the_record_tuples_in_order(name)
    # every recorded entry and its transpose, held to a definition that shares no code
    # with build: between the oracle's budget and the top ranks the only such check
    test_long_root_poset.test_lowering_edges_are_the_simple_reflections(name)


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_every_recorded_matrix_has_the_smith_diagonal(name):
    # the unit-pivot kernel on the recorded columns, against smith on the dense matrices
    test_int_linalg.check_smith_diagonal(name)


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_no_hermite_pass_on_every_admitted_type(name):
    # the subregular numbers are refused only where B's or C's homogeneous diagram is over budget
    assert test_int_linalg.check_no_hermite_pass(name) or name[0] in "BC"


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_the_middle_torsion_on_every_admitted_type(name):
    # the middle degree of the cohomology against the long-simple lattice quotient
    test_orbit_cohomology.test_middle_cross_method(build(parse_type(name)))


@pytest.mark.parametrize("name", TOP_TYPES)
def test_the_dense_route_at_the_top_ranks(name):
    test_int_linalg.test_invariant_factors_on_boundary_matrices(name)
    test_orbit_cohomology.test_cohomology_equals_the_all_matrices_loop(name)


def test_type_a_alternative_at_a99():
    test_orbit_cohomology.check_type_a_alternative(100)


def test_minimal_degenerations_up_to_20():
    test_gln_springer.check_minimal_degenerations(20, 5550)


def cli(argv, timeout):
    """The CLI in a fresh process, killed after timeout seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "minorbit.cli", *argv]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("label", TOP_VERIFIED + ["E8"])
def test_verify_at_the_top_of_the_oracle_budget(label):
    done = cli(["verify", "--type", label], timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "level-length: ok\nreflection-length: ok\n", "")


# The child reads its own peak from /proc/self/status: VmHWM starts afresh at exec,
# where ru_maxrss would carry over the peak of the process that started it.
PEAK = """
import sys
{body}
status = dict(line.split(":", 1) for line in open("/proc/self/status"))
print(int(status["VmHWM"].split()[0]) // 1024, file=sys.stderr)
"""
VERIFY = """
from minorbit import cli
print(*[cli.main(["verify", "--type", label]) for label in sys.argv[1:]], file=sys.stderr)
"""
needs_proc = pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="VmHWM is read from Linux's /proc")


def peak_of(body: str, *argv: str) -> tuple[str, list[int]]:
    """Run body in a fresh interpreter, with argv as sys.argv[1:]; its stdout, and the ints
    it printed on stderr, the last its peak resident memory (VmHWM) in MB."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", PEAK.format(body=body), *argv]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    return done.stdout, list(map(int, done.stderr.split()))


@needs_proc
@pytest.mark.parametrize("label", TOP_VERIFIED)
def test_cold_verify_at_the_top_of_the_budget_peaks_under_50_mb(label):
    # W^J is walked two layers at a time, so no call holds |W^J| |Phi| slots (31 MB at A44) at once
    out, (code, peak_mb) = peak_of(VERIFY, label)
    assert (code, out) == (0, "level-length: ok\nreflection-length: ok\n")
    assert peak_mb < 50, f"{label}: cold verify peaked at {peak_mb} MB"


# The sessions below hold the package's one store under CACHE_BUDGET tuple slots, dropping
# the entries used longest ago.  On a 2-vCPU VM with Python 3.11: verify at the top of each
# series in turn keeps about one top type's tables at a time, 52-54 MB (96 MB with 16 types
# kept whole); the cohomology of A1-A99 peaks at 93 MB (288 MB with every record kept) and
# springer_image(n, 2) for n = 1..45 at 73 MB (90 MB with every partition list kept).
@needs_proc
def test_a_verify_session_at_the_top_of_the_budget_peaks_under_70_mb():
    out, (*codes, peak_mb) = peak_of(VERIFY, *TOP_VERIFIED)
    assert (codes, out) == ([0] * 4, "level-length: ok\nreflection-length: ok\n" * 4)
    assert peak_mb < 70, f"verify on {', '.join(TOP_VERIFIED)} peaked at {peak_mb} MB"


@needs_proc
def test_the_cohomology_of_a1_to_a99_peaks_under_120_mb():
    body = (
        "from minorbit.orbit_cohomology import minimal_orbit_cohomology\n"
        "from minorbit.root_system import TypeLabel, build\n"
        "print(sum(minimal_orbit_cohomology(build(TypeLabel('A', n))).d for n in range(1, 100)))"
    )
    out, [peak_mb] = peak_of(body)
    assert out == f"{sum(2 * n for n in range(1, 100))}\n"  # d = 2 h_dual - 2 = 2n
    assert peak_mb < 120, f"the cohomology of A1-A99 peaked at {peak_mb} MB"


@needs_proc
def test_springer_images_up_to_45_peak_under_85_mb():
    body = "from minorbit.gln_springer import springer_image\nprint([len(springer_image(n, 2)) for n in range(1, 46)])"
    out, [peak_mb] = peak_of(body)
    # the 2-restricted partitions of n are as many as the partitions of n into distinct parts
    distinct = [1] + [0] * 45
    for part in range(1, 46):
        for n in range(45, part - 1, -1):
            distinct[n] += distinct[n - part]
    assert out == f"{distinct[1:]}\n"
    assert peak_mb < 85, f"springer_image(n, 2) for n = 1..45 peaked at {peak_mb} MB"


# dmatrices prints 13-20 MB of JSON at the top ranks, too near the 2 s budget of the tier-1 CLI fuzz
TOP_CALLS = [
    pytest.param([*argv, name], 30, id=f"{argv[0]}-{name}")
    for argv in (["cohomology", "--type"], ["dmatrices", "--format", "json", "--type"])
    for name in TOP_TYPES
] + [pytest.param(["springer-gln", "--n", "45", "--ell", "2"], 10, id="springer-gln-45")]


@pytest.mark.parametrize("argv, timeout", TOP_CALLS)
def test_the_cli_at_the_top_of_each_budget(argv, timeout):
    done = cli(argv, timeout)
    assert (done.returncode, done.stderr) == (0, ""), argv
    assert done.stdout


def test_a_dense_60x60_has_the_sympy_determinant():
    # test_smith_dense_budget holds smith to invariant_factors on this matrix
    sympy = pytest.importorskip("sympy")
    m = test_int_linalg.dense(60, 60, 60)
    assert math.prod(invariant_factors(m)) == abs(sympy.Matrix(m).det(method="bareiss"))


def test_invariant_factors_of_dense_matrices_larger_than_any_boundary_matrix(time_budget):
    shapes = [(100, 100), (150, 150), (120, 80)]
    matrices = {shape: test_int_linalg.dense(*shape, shape[0] * shape[1]) for shape in shapes}
    with time_budget(10):
        factors = {shape: invariant_factors(m) for shape, m in matrices.items()}
    assert all(len(f) == min(shape) for shape, f in factors.items())
    sympy = pytest.importorskip("sympy")
    assert math.prod(factors[100, 100]) == abs(sympy.Matrix(matrices[100, 100]).det(method="bareiss"))
