"""The package surface: lazy public names, what each command imports and
the one domain error type of the library layers."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wresolve

# the names the package has always exported, by defining module
PUBLIC = {
    "baskets": (
        "Basket", "BasketEntry", "CyclicQuotient", "TerminalClass", "aw",
        "basket_of", "normalize_cyclic", "sigma", "xi",
    ),
    "chains": (
        "O3CaseA", "O3CaseB", "beta_k", "beta_k_b", "chain_simulate",
        "chain_stages_b", "chain_weights", "check_constraints", "delta_k",
        "depth_identity", "gamma_k", "gamma_k_b", "nonnegativity_check",
    ),
    "errors": (
        "ConstraintViolation", "InvalidCaseData", "InvalidParameter",
        "InvalidSplit", "NotTerminalForm", "RuleViolation", "SchemaError",
        "SearchLimitExceeded", "WresolveError",
    ),
    "germs": (
        "CARGerm", "DepthBound", "admissible_splits", "axial_weight",
        "blowup_step", "cyclic_depth_search", "depth_bound", "depth_formula",
        "depth_search", "nu", "resolution_tree", "tvalue",
    ),
    "neighborhoods": (
        "ENPoint", "ExceptionalIAIACase", "IACase", "IAIAIIICase", "ICCase",
        "IIBCase", "KeyVerdict", "SemistableIAIACase", "canonical_degree",
        "cf_intersection", "key_check", "minimal_r1",
    ),
    "rationals": ("format_rat", "parse_rat"),
    "riemannroch": (
        "ContractionCase", "aw_upper_bound", "case_depth_check", "cd2_basket",
        "delta_chi", "rr_correction",
    ),
    "traces": (
        "FactorizationTrace", "TraceStep", "TraceVerdict",
        "induction_certificate", "validate_trace",
    ),
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_public_names_resolve_to_their_definitions():
    assert len(NAMES) == len(set(NAMES)) == 68
    assert sorted(wresolve.__all__) == sorted(NAMES)
    listed = dir(wresolve)
    for module, names in PUBLIC.items():
        layer = importlib.import_module(f"wresolve.{module}")
        for name in names:
            assert getattr(wresolve, name) is getattr(layer, name), name
            assert name in listed, name
    assert wresolve.__version__ == "0.1.0"


def test_star_import_binds_every_name():
    scope = {}
    exec("from wresolve import *", scope)
    assert set(NAMES) <= set(scope)
    assert all(scope[name] is getattr(wresolve, name) for name in NAMES)


def test_layers_and_unknown_names():
    assert wresolve.germs is importlib.import_module("wresolve.germs")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        wresolve.no_such_name  # noqa: B018
    assert not hasattr(wresolve, "no_such_name")
    assert not hasattr(wresolve, "KINDS")  # a baskets name never exported


FOOTPRINT = """
import contextlib, importlib, io, json, sys
argv = json.loads(sys.argv[1])
if isinstance(argv, str):
    importlib.import_module(argv)
else:
    from wresolve import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "wresolve"
                        or m in ("dataclasses", "inspect"))))
"""

GERM = {"r": 5, "beta": 2, "support": [[0, 2], [1, 1]]}
BASE = {"wresolve", "wresolve.cli", "wresolve.errors", "wresolve.rationals"}


def loaded(argv):
    """The wresolve modules, and dataclasses and inspect if present, that a
    fresh interpreter holds after argv (a module name: after importing it)."""
    src = str(Path(wresolve.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, json.dumps(argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_wresolve_loads_no_layer():
    assert loaded("wresolve") == {"wresolve"}


# the sweeps import every layer, and no record needs dataclasses or inspect
def test_import_sweeps_footprint():
    layers = {"baskets", "chains", "germs", "neighborhoods", "riemannroch",
              "sweeps", "traces"}
    assert loaded("wresolve.sweeps") == (
        {"wresolve", "wresolve.errors"} | {f"wresolve.{layer}" for layer in layers}
    )


# every subcommand loads only the layers it calls (and what they import),
# and neither dataclasses nor inspect
@pytest.mark.parametrize(
    "argv, layers",
    [
        (["basket", {"class": "cAx/4", "k": 3}], {"baskets"}),
        (["depth", GERM], {"germs", "baskets"}),
        (["resolve", GERM], {"germs", "baskets"}),
        (["blowup", {**GERM, "r1": 2, "r2": 8}], {"germs", "baskets"}),
        (["en", {"case": "ExceptionalIAIA", "r": 5, "a2": 3}], {"neighborhoods"}),
        (["rr", {"case": "E11"}], {"riemannroch", "baskets"}),
        (["o3", {"case": "A", "a": 3, "d": 1, "alpha": 2, "suppA": [[2, 0]]}],
         {"chains"}),
        (["trace", {"steps": [{"kind": "Flop", "before": 3, "after": 3}]}],
         {"traces"}),
        (["rr", {"basket": [[1, 2]]}], {"riemannroch", "baskets"}),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_subcommand_import_footprint(argv, layers):
    command, payload = argv
    got = loaded([command, json.dumps(payload)])
    assert got == BASE | {f"wresolve.{layer}" for layer in layers}


def test_library_raises_no_plain_value_error():
    # every range check raises InvalidParameter (a ValueError too); only the
    # rationals parsers raise ValueError, which the CLI turns into SchemaError
    found = []
    for path in sorted(Path(wresolve.__file__).parent.glob("*.py")):
        if path.name == "rationals.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
