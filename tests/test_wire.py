"""The JSON wire byte for byte: the golden requests, the README examples,
the verify entry keys, and the one record rule of the encoder."""

import json
import shlex
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest

from wresolve import chains, cli, germs, neighborhoods, riemannroch, traces
from wresolve.baskets import TerminalClass
from wresolve.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "perfbench" / "cli_golden.json").read_text())
QUICK = [
    "--cyclic-max", "6", "--germ-r-max", "3", "--rr-max", "10",
    "--en-r-max", "15", "--semi-max", "8", "--iib-max", "11", "--o3-cases", "5",
    "--trace-count", "200",
]


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, code, want",
    [entry for sub in GOLDEN.values() for entry in sub],
    ids=[f"{sub}-{n}" for sub, entries in GOLDEN.items() for n in range(len(entries))],
)
def test_golden_requests_byte_for_byte(capsys, argv, code, want):
    # json.dumps keeps the golden key order, so a reordered field shows here
    assert run(capsys, argv) == (code, json.dumps(want) + "\n")


def readme_examples():
    """(argv, output) for each README command shown with its full output:
    a `$ wresolve ...` line followed by a line of valid JSON."""
    lines = (ROOT / "README.md").read_text().splitlines()
    for command, shown in zip(lines, lines[1:]):
        if not command.startswith("$ wresolve "):
            continue
        try:
            json.loads(shown)
        except json.JSONDecodeError:
            continue  # elided ("...") or annotated output
        yield shlex.split(command)[2:], shown + "\n"


def test_readme_examples_byte_for_byte(capsys):
    examples = list(readme_examples())
    assert [argv[0] for argv, _ in examples] == [
        "depth", "depth", "basket", "en", "en", "rr", "rr", "rr"
    ]
    for argv, shown in examples:
        assert run(capsys, argv) == (0, shown)


def test_verify_json_entry_keys(capsys):
    code, out = run(capsys, ["verify", "--output", "json", *QUICK])
    payload = json.loads(out)
    assert code == 0
    assert len(payload) == 10
    for entry in payload:
        assert list(entry) == ["name", "ok", "cases", "elapsed", "detail"]
        assert entry["elapsed"] == round(entry["elapsed"], 3)
    assert out == json.dumps(payload, indent=2) + "\n"


def printed_records():
    """Every kind of record the CLI prints, as the library returns it."""
    g = germs.CARGerm(2, 1, frozenset({(0, 3), (1, 0), (2, 1)}))
    yield germs.blowup_step(g, 1, 1).residual  # frozenset support
    yield germs.depth_bound(TerminalClass("cD/3"))
    yield germs.depth_bound(TerminalClass("cA/r", germ=g))
    verdicts = [
        neighborhoods.key_check(neighborhoods.ICCase(5), kx=Fraction(-1, 5)),
        neighborhoods.key_check(neighborhoods.ExceptionalIAIACase(5, 3)),
        neighborhoods.key_check(neighborhoods.SemistableIAIACase(5, 2, 3, 2)),
        neighborhoods.key_check(neighborhoods.IAIAIIICase(7, 5)),
    ]
    # each KeyVerdict shape: no extras, r1 and s, r1 and delta
    assert {(v.r1 is None, v.s is None, v.delta is None) for v in verdicts} == {
        (True, True, True), (False, False, True), (False, True, False)
    }
    yield from verdicts
    steps = [traces.TraceStep("WExtraction", 3, 2), traces.TraceStep("Flip", 2, 1)]
    yield from traces.validate_trace(traces.FactorizationTrace(tuple(steps))).diagnostics
    for tag, rp, aw in ((riemannroch.E1_A4, 9, 8), (riemannroch.E2, 6, 2),
                        (riemannroch.E11, None, None)):
        yield riemannroch.case_depth_check(riemannroch.ContractionCase(tag, rp), aw)
    case_a = chains.O3CaseA(a=3, d=1, alpha=2, supp_a=frozenset({(2, 0)}))
    case_b = chains.O3CaseB(a=5, d=1, supp_a=frozenset({(0, 16), (3, 1)}),
                            supp_b=frozenset({(0, 5), (2, 0)}))
    for case in (case_a, case_b):
        yield chains.nonnegativity_check(case)
        yield chains.depth_identity(case, 2)


def asdict_route(record):
    """The encoder's retired dataclass route, kept as the reference: the
    record through asdict, then the dict through the encoder."""
    if isinstance(record, tuple):  # a named tuple row was never a dataclass
        return cli._encode(record._asdict())
    return cli._encode(asdict(record))


def test_record_rule_matches_the_asdict_route():
    records = list(printed_records())
    for record in records:
        assert json.dumps(cli._encode(record)) == json.dumps(asdict_route(record))
    kinds = {type(r).__name__ for r in records}
    assert kinds == {
        "CARGerm", "DepthBound", "KeyVerdict", "StepDiagnostic",
        "CaseDepthReport", "NonnegativityReport", "DepthIdentity",
    }


def test_records_carry_only_their_wire_fields():
    rep = riemannroch.case_depth_check(riemannroch.ContractionCase(riemannroch.E2, 6), 2)
    assert cli._encode(rep) == {"aw": 2, "dep_y": [22, 23], "dep_x_upper": 4, "ok": True}
    bound = germs.depth_bound(TerminalClass("cD/3"))
    assert cli._encode(bound) == {"lower": None, "upper": 6, "exact": False}
    case = chains.O3CaseB(a=3, d=1)
    assert cli._encode(chains.nonnegativity_check(case)) == {"checks": 0, "ok": True}
    assert list(cli._encode(chains.depth_identity(case, 2))) == [
        "dep_q3", "dep_x_upper", "dep_y", "check"
    ]

