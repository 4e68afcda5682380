"""The package surface: lazy exports, the CLI's import footprint, and the
value semantics of the small record types."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minorbit
from minorbit import errors
from minorbit.errors import DomainError
from minorbit.int_linalg import SmithForm, smith
from minorbit.orbit_cohomology import OrbitCohomology, minimal_orbit_cohomology
from minorbit.root_system import TypeLabel, build, parse_type

SRC = Path(__file__).resolve().parent.parent / "src"


def modules_after(code: str) -> set[str]:
    """Modules loaded by `code` in a fresh interpreter started with -S, so
    that site imports nothing; `code` must end by printing sys.modules."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(ast.literal_eval(out.stdout.splitlines()[-1]))


def test_cli_import_loads_no_unused_layer():
    loaded = modules_after("import sys, minorbit.cli; print(sorted(sys.modules))")
    for name in ("dataclasses", "inspect", "json"):
        assert name not in loaded
    for name in ("decomposition", "gln_springer", "weyl_oracle", "int_linalg", "orbit_cohomology"):
        assert f"minorbit.{name}" not in loaded


def test_dmatrices_loads_no_smith_layer():
    loaded = modules_after(
        "import sys; from minorbit import cli; cli.main(['dmatrices', '--type', 'G2']); print(sorted(sys.modules))"
    )
    assert "minorbit.long_root_poset" in loaded
    assert "minorbit.int_linalg" not in loaded and "minorbit.orbit_cohomology" not in loaded


@pytest.mark.parametrize(
    "argv, layer",
    [
        pytest.param("cohomology --type G2", "orbit_cohomology", id="cohomology"),
        pytest.param("dmatrices --type G2", "long_root_poset", id="dmatrices"),
        pytest.param("fundgroup --type G2", "orbit_cohomology", id="fundgroup"),
        pytest.param("decomp minimal --type G2 --ell 2", "decomposition", id="decomp-minimal"),
        pytest.param("decomp subregular --type G2 --ell 2", "decomposition", id="decomp-subregular"),
        pytest.param("decomp simple --type G2 --ell 2", "decomposition", id="decomp-simple"),
        pytest.param("springer-gln --n 4 --ell 2", "gln_springer", id="springer-gln"),
        pytest.param("tables --all", "orbit_cohomology", id="tables"),
        pytest.param("verify --type G2", "weyl_oracle", id="verify"),
    ],
)
def test_text_output_loads_no_json(argv, layer):
    # json is imported by main on the --format json path only
    loaded = modules_after(
        f"import sys; from minorbit import cli; cli.main({argv.split()!r}); print(sorted(sys.modules))"
    )
    assert f"minorbit.{layer}" in loaded and "json" not in loaded
    assert ("minorbit.weyl_oracle" in loaded) == (layer == "weyl_oracle")


def test_every_export_is_its_submodule_attribute():
    for module, names in minorbit._EXPORTS.items():
        mod = importlib.import_module(f"minorbit.{module}")
        for name in names:
            assert getattr(minorbit, name) is getattr(mod, name)
    assert set(minorbit.__all__) <= set(dir(minorbit))
    assert minorbit.to_json_dict is minorbit.orbit_cohomology.to_json_dict


def test_exports_follow_rebinding_of_the_submodule(monkeypatch):
    # the benchmark tracer rebinds submodule attributes; the package must
    # not keep a stale copy
    marker = object()
    monkeypatch.setattr(minorbit.root_system, "build", marker)
    assert minorbit.build is marker
    monkeypatch.undo()
    assert minorbit.build is minorbit.root_system.build


def test_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        minorbit.no_such_name


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from minorbit import *", namespace)
    assert set(minorbit.__all__) <= set(namespace)
    assert namespace["build"] is minorbit.root_system.build


def test_record_types_keep_value_semantics():
    a3 = TypeLabel("A", 3)
    assert repr(a3) == "TypeLabel(series='A', rank=3)" and str(a3) == "A3"
    assert a3 == TypeLabel("A", 3) and hash(a3) == hash(TypeLabel("A", 3))
    labels = [TypeLabel("E", 6), TypeLabel("A", 9), TypeLabel("A", 2), TypeLabel("D", 4)]
    assert sorted(labels) == [TypeLabel("A", 2), TypeLabel("A", 9), TypeLabel("D", 4), TypeLabel("E", 6)]

    sf = smith([[2, 4], [6, 8]])
    assert sf == smith([[2, 4], [6, 8]]) and hash(sf) == hash(smith([[2, 4], [6, 8]]))
    assert repr(sf) == f"SmithForm(left={sf.left!r}, diag={sf.diag!r}, right={sf.right!r})"
    assert isinstance(sf, SmithForm) and sf.diag == (2, 4)

    oc = minimal_orbit_cohomology(build(parse_type("G2")))
    again = minimal_orbit_cohomology(build(parse_type("G2")))
    assert oc == again and hash(oc) == hash(again) and isinstance(oc, OrbitCohomology)
    assert repr(oc).startswith("OrbitCohomology(type_label=TypeLabel(series='G', rank=2), d=6, h_dual=4, table=")

    for record, field in ((a3, "rank"), (sf, "diag"), (oc, "d")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0


# every public function taking a RootSystem, with the arguments that follow it
RECORD_CALLS = [
    ("root_system", "highest_root", ()),
    ("root_system", "is_long", ((1, 0, 0),)),
    ("root_system", "dual_height", ((1, 1, 1),)),
    ("root_system", "cartan_of_subset", ((),)),
    ("root_system", "long_simple_subsystem", ()),
    ("long_root_poset", "dimension", ()),
    ("long_root_poset", "level", ((1, 1, 1),)),
    ("long_root_poset", "levels", ()),
    ("long_root_poset", "d_matrix", (1,)),
    ("orbit_cohomology", "minimal_orbit_cohomology", ()),
    ("orbit_cohomology", "middle_via_lattice", ()),
    ("weyl_oracle", "coset_reps", ((),)),
    ("weyl_oracle", "level_length_failure", ()),
    ("weyl_oracle", "reflection_length_failure", ()),
    ("weyl_oracle", "verify_level_length", ()),
    ("weyl_oracle", "verify_reflection_length", ()),
]


@pytest.mark.parametrize("module, name, args", RECORD_CALLS, ids=[name for _, name, _ in RECORD_CALLS])
def test_record_entry_points_refuse_anything_but_a_root_system(module, name, args):
    # one check, before any field is read: the store sees no foreign key
    function = getattr(importlib.import_module(f"minorbit.{module}"), name)
    held = list(errors._store.items())
    for bad in (["A", 3], TypeLabel("A", 3), "A3", None):
        with pytest.raises(DomainError, match=rf"^expected a RootSystem \(see build\), got {type(bad).__name__}$"):
            function(bad, *args)
    assert list(errors._store.items()) == held


def test_no_module_caches_past_the_store():
    # every cache goes through errors.weighed_cache, bounded by CACHE_BUDGET; functools'
    # lru_cache and cache hold any number of entries of any size
    unbounded = {"lru_cache", "cache"}
    for path in sorted((SRC / "minorbit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
                names = {node.attr}
            else:
                continue
            assert not names & unbounded, f"{path.name}:{node.lineno} uses functools.{names & unbounded}"
