"""Command-line surface: wire formats, exit codes, determinism."""

import inspect
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import wresolve
from wresolve import cli, neighborhoods, sweeps, traces
from wresolve.cli import main
from wresolve.errors import RuleViolation
from wresolve.rationals import format_rat

from test_wire import GOLDEN, readme_examples

GERM = '{"r":5,"beta":2,"support":[[0,2],[1,1]]}'


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_depth_germ_pinned(capsys):
    code, out = run(capsys, ["depth", GERM])
    assert code == 0
    assert out == '{"dep": 9, "exact": true}\n'


def test_depth_class(capsys):
    code, payload = run_json(capsys, ["depth", '{"class":"cD/3"}'])
    assert code == 0
    assert payload == {"lower": None, "upper": 6, "exact": False}
    # a non-terminal cyclic quotient: depth refuses it as basket does
    cyclic = '{"class":"cyclic","r":5,"weights":[1,1,1]}'
    refused = run(capsys, ["basket", cyclic])
    assert refused[0] == 2
    assert json.loads(refused[1])["error"]["type"] == "NotTerminalForm"
    assert run(capsys, ["depth", cyclic]) == refused


def test_basket_pinned(capsys):
    code, out = run(capsys, ["basket", '{"class":"cAx/4","k":3}'])
    assert code == 0
    assert json.loads(out) == {
        "class": "cAx/4",
        "entries": [[1, 4, 1], [1, 2, 2]],
        "aw": 3,
        "sigma": 3,
        "xi": 8,
    }
    # entry order is part of the wire format
    assert out.index("[1, 4, 1]") < out.index("[1, 2, 2]")


def test_basket_cyclic(capsys):
    code, payload = run_json(
        capsys, ["basket", '{"class":"cyclic","r":5,"weights":[2,3,1]}']
    )
    assert code == 0
    assert payload["entries"] == [[2, 5, 1]]
    assert payload["xi"] == 5


def test_resolve(capsys):
    code, payload = run_json(capsys, ["resolve", GERM])
    assert code == 0
    assert payload["dep"] == 9
    assert payload["tree"]["splits_considered"] == 2
    assert payload["tree"]["split"] == [2, 8]


def test_resolve_index_one_leaf(capsys):
    # an index-1 germ is already Gorenstein: the tree is one leaf
    code, out = run(capsys, ["resolve", '{"r":1,"beta":0,"support":[[0,1]]}'])
    assert code == 0
    assert out == (
        '{"dep": 0, "tree": {"kind": "germ", "index": 1, "dep": 0, "split": null, '
        '"quotients": [], "residual": null}}\n'
    )


def test_resolve_limit_key(capsys):
    code, payload = run_json(capsys, ["resolve", GERM[:-1] + ',"limit":3}'])
    assert code == 2
    assert payload["error"]["type"] == "SearchLimitExceeded"


# an answer depends on argv and the request alone: only the request's
# "limit" key caps the path cost, and the environment is never read
def test_resolve_reads_no_environment(capsys, monkeypatch):
    code, want = run(capsys, ["resolve", GERM])
    assert code == 0
    monkeypatch.setenv("DEPTH_SEARCH_LIMIT", "3")
    assert run(capsys, ["resolve", GERM]) == (0, want)
    assert json.loads(want)["dep"] == 9


# a negative value the environment once refused is ignored too; the same
# value on the request's "limit" key is still a SchemaError
def test_resolve_negative_env_limit(capsys, monkeypatch):
    monkeypatch.setenv("DEPTH_SEARCH_LIMIT", "-1")
    code, payload = run_json(capsys, ["resolve", GERM])
    assert code == 0 and payload["dep"] == 9
    code, payload = run_json(capsys, ["resolve", GERM[:-1] + ',"limit":-1}'])
    assert code == 1
    assert payload["error"]["type"] == "SchemaError"


def _deep_germ(t, **more):
    # r = 2 and support {(0, t), (1, 0)}: axial weight t, a walk of t stages
    return json.dumps({"r": 2, "beta": 1, "support": [[0, t], [1, 0]], **more})


# a resolve walk from index r >= 2 takes t stages; above the "resolve
# stages" ceiling the request is refused before the walk, limit or not, and
# a limit below the path cost of a walk within it still stops it
def test_resolve_stage_ceiling(capsys):
    ceiling = cli.CEILINGS["resolve stages"][0]
    for t, more in [(ceiling + 1, {}), (10**299, {}), (ceiling + 1, {"limit": 5})]:
        start = time.perf_counter()
        code, payload = run_json(capsys, ["resolve", _deep_germ(t, **more)])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert payload["error"] == {
            "type": "InvalidParameter",
            "message": f"resolve walks at most {ceiling} stages, not t = {t}"}
    code, payload = run_json(capsys, ["resolve", _deep_germ(ceiling, limit=5)])
    assert code == 2
    assert payload["error"] == {"type": "SearchLimitExceeded",
                                "message": "path cost 1 exceeds the ceiling 0"}
    # an index-1 germ walks no stage, whatever its t
    code, payload = run_json(capsys, ["resolve", json.dumps(
        {"r": 1, "beta": 0, "support": [[0, 10**299], [1, 0]]})])
    assert (code, payload["dep"]) == (0, 0)


def _wide_germ(rows, t=50, r=2):
    """An index-r germ of axial weight t (a walk of t stages for r >= 2)
    with the given number of support rows."""
    support = [[0, t], [1, 0]] + [[2 + x, x] for x in range(rows - 2)]
    return json.dumps({"r": r, "beta": 1, "support": support})


# a resolve walk also rebuilds the support at each of its t stages; above
# the "resolve stage-rows" ceiling (t times support rows) the request is
# refused after the stages row and before the walk
def test_resolve_stage_row_ceiling(capsys, monkeypatch):
    # reading 2x10^5 rows alone takes most of a second; their walk took 14 s
    for rows, stage_rows, seconds in [(20_001, 1_000_050, 1), (200_000, 10_000_000, 2)]:
        text = _wide_germ(rows)
        start = time.perf_counter()
        code, payload = run_json(capsys, ["resolve", text])
        assert time.perf_counter() - start < seconds
        assert code == 2
        assert payload["error"] == {
            "type": "InvalidParameter",
            "message": f"resolve walks at most 1000000 stage-rows, not {stage_rows}"}
    # the stages row speaks first
    code, payload = run_json(capsys, ["resolve", _wide_germ(200, t=10_001)])
    assert payload["error"]["message"] == "resolve walks at most 10000 stages, not t = 10001"
    # an index-1 germ walks no stage, however many its rows
    code, payload = run_json(capsys, ["resolve", _wide_germ(20_001, r=1)])
    assert (code, payload["dep"]) == (0, 0)
    # a request at the ceiling walks; one stage-row past it does not
    monkeypatch.setitem(cli.CEILINGS, "resolve stage-rows",
                        (150, cli.CEILINGS["resolve stage-rows"][1]))
    assert run_json(capsys, ["resolve", _wide_germ(3)])[1]["dep"] == 50
    code, payload = run_json(capsys, ["resolve", _wide_germ(4)])
    assert payload["error"]["message"] == "resolve walks at most 150 stage-rows, not 200"


def test_blowup(capsys):
    code, payload = run_json(
        capsys, ["blowup", GERM[:-1] + ',"r1":2,"r2":8}']
    )
    assert code == 0
    assert payload == {
        "quotients": [
            {"index": 2, "weights": [1, 1, 1], "normal": [1, 2]},
            {"index": 8, "weights": [5, 3, 7], "normal": [3, 8]},
        ],
        "residual": None,
    }


def test_blowup_residual(capsys):
    code, payload = run_json(
        capsys,
        ["blowup", '{"r":2,"beta":1,"support":[[0,2],[1,0]],"r1":1,"r2":1}'],
    )
    assert code == 0
    assert payload["residual"] == {"r": 2, "beta": 1, "support": [[0, 1], [1, 0]]}
    assert payload["quotients"][0] == {"index": 1, "weights": [0, 0, 0]}


def test_blowup_invalid_split(capsys):
    code, payload = run_json(
        capsys, ["blowup", GERM[:-1] + ',"r1":3,"r2":7}']
    )
    assert code == 2
    assert payload["error"]["type"] == "InvalidSplit"


def test_en_points(capsys):
    code, out = run(capsys, ["en", '{"points":[[2,"1/2"],[5,"2/5"]]}'])
    assert code == 0
    assert out == '{"kx_c": "-1/10"}\n'


def test_en_exceptional(capsys):
    code, payload = run_json(capsys, ["en", '{"case":"ExceptionalIAIA","r":5,"a2":3}'])
    assert code == 0
    assert payload == {
        "ky_cy": "0",
        "nonpositive": True,
        "kx_c": "-1/10",
        "cf": "1/2",
        "r1": 2,
        "s": 1,
        "delta": None,
    }


def test_en_semistable(capsys):
    code, payload = run_json(
        capsys,
        ["en", '{"case":"SemistableIAIA","r":5,"a":2,"rprime":3,"aprime":2}'],
    )
    assert code == 0
    assert (payload["delta"], payload["r1"], payload["ky_cy"]) == (1, 3, "0")


def test_en_case_name_normalization(capsys):
    for name in ("IA+IA+III", "iaiaiii", "IA_IA_III"):
        code, payload = run_json(
            capsys, ["en", json.dumps({"case": name, "r": 5, "a2": 3})]
        )
        assert code == 0 and payload["ky_cy"] == "0"


def test_en_errors(capsys):
    code, payload = run_json(capsys, ["en", '{"case":"XX","r":5}'])
    assert code == 1
    code, payload = run_json(capsys, ["en", '{"case":"IC","r":4,"kx":"-1/4"}'])
    assert code == 2
    assert payload["error"]["type"] == "InvalidCaseData"
    # a missing kx names the case as the request does, not the Python class
    code, payload = run_json(capsys, ["en", '{"case":"IC","r":5}'])
    assert code == 2
    assert payload["error"] == {
        "type": "InvalidCaseData", "message": "IC needs the caller's K_X . C",
    }


def test_class_and_iib_inputs(capsys):
    code, payload = run_json(capsys, ["basket", '{"class":"cA/r",' + GERM[1:]])
    assert code == 0
    assert payload == {
        "class": "cA/r", "entries": [[2, 5, 2]], "aw": 2, "sigma": 4, "xi": 10,
    }
    code, payload = run_json(capsys, ["basket", '{"class":"cAx/2"}'])
    assert code == 0 and payload["entries"] == [[1, 2, 2]]
    code, payload = run_json(capsys, ["depth", '{"class":"cAx/2","k":3}'])
    assert code == 0
    assert payload == {"lower": None, "upper": 5, "exact": False}
    # without k the class parses, and the depth bound refuses it
    code, payload = run_json(capsys, ["depth", '{"class":"cAx/2"}'])
    assert code == 2
    assert payload["error"]["message"] == "cAx/2 depth bound needs the parameter k"
    # r1 is the first IIB weight, not the IA r1 override: it sets cf = 3/7
    code, payload = run_json(
        capsys, ["en", '{"case":"IIB","r1":7,"r2":2,"r3":1,"r4":1,"kx":"-1/2"}']
    )
    assert code == 0
    assert payload == {
        "ky_cy": "-11/28", "nonpositive": True, "kx_c": "-1/2", "cf": "3/7",
        "r1": None, "s": None, "delta": None,
    }


def test_rr_correction(capsys):
    code, out = run(capsys, ["rr", '{"basket":[[1,2]]}'])
    assert (code, out) == (0, '{"correction": "1/4"}\n')
    code, payload = run_json(capsys, ["rr", '{"basket":[[1,2,7],[2,5]]}'])
    assert payload["correction"] == "47/20"


def test_rr_delta_chi(capsys):
    code, payload = run_json(
        capsys,
        ["rr", '{"a_over_n":2,"e3":"1/9","basket_y":[[5,18]],"basket_x":[[1,2,5]]}'],
    )
    assert code == 0
    assert payload["delta_chi"] == "1"  # the threshold boundary for r' = 9


def test_rr_case_bounds(capsys):
    code, payload = run_json(capsys, ["rr", '{"case":"E1_a4","rprime":9,"aw":8}'])
    assert code == 0
    assert payload == {
        "case": "E1_a4",
        "aw_bound": 5,
        "sufficient_bound": 8,
        "check": {"aw": 8, "dep_y": [17, 17], "dep_x_upper": 16, "ok": True},
    }


def test_rr_e11(capsys):
    code, payload = run_json(capsys, ["rr", '{"case":"E11"}'])
    assert code == 0
    assert payload["check"] == {
        "aw": None,
        "dep_y": [6, 6],
        "dep_x_upper": 7,
        "ok": True,
    }


def test_rr_domain_errors(capsys):
    code, payload = run_json(capsys, ["rr", '{"case":"E2","rprime":3}'])
    assert code == 2
    assert payload["error"]["type"] == "InvalidParameter"


def test_o3_case_a(capsys):
    code, payload = run_json(
        capsys,
        ["o3", '{"case":"A","a":3,"d":1,"alpha":2,"suppA":[[2,0]]}'],
    )
    assert code == 0
    assert payload["r"] == 5
    assert len(payload["stages"]) == 4
    st0 = payload["stages"][0]
    # rational-valued fields always arrive as rational strings
    assert st0["weights"] == ["1/2", "1/2", "1", "3/2"]
    assert st0["sigma_weight"] == "2"
    assert st0["discrepancy"] == "1/2"
    assert st0["witnesses"] == ["y2z", "x4z0"]
    assert payload["identity"] == {
        "dep_q3": 0,
        "dep_x_upper": 9,
        "dep_y": 10,
        "check": True,
    }


def test_o3_case_b(capsys):
    code, payload = run_json(
        capsys, ["o3", '{"case":"B","a":3,"d":1,"depQ3":2,"kMax":1}']
    )
    assert code == 0
    assert payload["r"] == 7
    assert len(payload["stages"]) == 2
    assert payload["stages"][0]["wt_first"] == "3"
    assert payload["stages"][0]["wt_second"] == "3/2"
    assert payload["identity"] == {
        "dep_q3": 2,
        "dep_x_upper": 17,
        "dep_y": 18,
        "check": True,
    }


def test_o3_constraint_violation(capsys):
    code, payload = run_json(
        capsys, ["o3", '{"case":"A","a":3,"d":1,"alpha":2,"suppA":[[1,1]]}']
    )
    assert code == 2
    err = payload["error"]
    assert err["type"] == "ConstraintViolation"
    assert (err["i"], err["j"]) == (1, 1)


def test_o3_schema(capsys):
    code, payload = run_json(capsys, ["o3", '{"case":"C","a":3,"d":1}'])
    assert code == 1


# an o3 request walks kMax stages, else a; above the "o3 stages" ceiling it
# is refused before the walk, and a kMax within the ceiling answers any a
@pytest.mark.parametrize("shape", [{"case": "A", "alpha": 2, "suppA": [[2, 0]]},
                                   {"case": "B"}], ids=["A", "B"])
def test_o3_stage_ceiling(capsys, shape):
    ceiling = cli.CEILINGS["o3 stages"][0]
    for a, k_max in [(10**19 + 1, None), (ceiling + 1, None), (ceiling + 3, ceiling + 1)]:
        doc = {**shape, "a": a, "d": 1} | ({} if k_max is None else {"kMax": k_max})
        start = time.perf_counter()
        code, payload = run_json(capsys, ["o3", json.dumps(doc)])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert payload["error"] == {
            "type": "InvalidParameter",
            "message": f"o3 walks at most {ceiling} stages, not {k_max or a}: "
                       f"give a kMax up to {ceiling}"}
    code, payload = run_json(capsys, ["o3", json.dumps({**shape, "a": 10**19 + 1, "d": 1,
                                                        "kMax": 3})])
    assert code == 0
    assert [stage["k"] for stage in payload["stages"]] == [0, 1, 2, 3]


# the ceiling counts the stages a request can walk, at most a: a kMax
# above a gets the walk's own stage-range refusal, not the ceiling's advice
@pytest.mark.parametrize("shape", [{"case": "A", "alpha": 2, "suppA": [[2, 0]]},
                                   {"case": "B"}], ids=["A", "B"])
def test_o3_kmax_above_a_is_out_of_range(capsys, shape):
    for k_max in [4, cli.CEILINGS["o3 stages"][0] + 1, 99999]:
        code, payload = run_json(capsys, ["o3", json.dumps(
            {**shape, "a": 3, "d": 1, "kMax": k_max})])
        assert code == 2
        assert payload["error"] == {"type": "InvalidParameter",
                                    "message": "stage range is 0..a"}


def _o3_rows(shape, rows):
    """An o3 request of the shape, d = 1, a = 9999 and the given number of
    support rows, split between suppA (shape A's pivot (2, 0) first) and
    suppB."""
    first, second = (rows + 1) // 2, rows // 2
    supp_a = ([[2, 0]] + [[2 + x, x] for x in range(1, first)] if shape == "A"
              else [[3 + x, x] for x in range(first)])
    doc = {"case": shape, "a": 9999, "d": 1, "suppA": supp_a,
           "suppB": [[1 + x, x] for x in range(second)]}
    return doc | ({"alpha": 2} if shape == "A" else {})


# an o3 request also walks at most the "o3 stage-rows" ceiling: stages
# (kMax, else a) times support rows; above it, it is refused before the walk
@pytest.mark.parametrize("shape", ["A", "B"])
def test_o3_stage_row_ceiling(capsys, shape):
    ceiling = cli.CEILINGS["o3 stage-rows"][0]
    rows = 16
    code, payload = run_json(capsys, ["o3", json.dumps(
        _o3_rows(shape, rows) | {"kMax": ceiling // rows})])
    assert code == 0
    assert len(payload["stages"]) == ceiling // rows + 1
    for doc, stage_rows in [(_o3_rows(shape, rows) | {"kMax": ceiling // rows + 1},
                             ceiling + rows),
                            (_o3_rows(shape, 30), 9999 * 30),
                            (_o3_rows(shape, 200), 9999 * 200)]:
        start = time.perf_counter()
        code, payload = run_json(capsys, ["o3", json.dumps(doc)])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert payload["error"] == {
            "type": "InvalidParameter",
            "message": f"o3 walks at most {ceiling} stage-rows (stages times support "
                       f"rows), not {stage_rows}: give a smaller kMax or fewer support rows"}
    # a = 9999 with seven support rows stays within it
    code, payload = run_json(capsys, ["o3", json.dumps(_o3_rows(shape, 7))])
    assert code == 0
    assert len(payload["stages"]) == 10000


LONG_LISTS = [
    ("en", "en points", lambda items: {"points": items},
     [2, "1/2"], [2, "x"], "en sums at most {} points, not {}"),
    ("rr", "rr basket rows", lambda items: {"basket": items},
     [1, 2], [2, 2], "rr reads at most {} rows per basket, not {}"),
    ("rr", "rr basket rows", lambda items: {"a_over_n": 1, "e3": 1, "basket_y": items},
     [1, 2], [2, 2], "rr reads at most {} rows per basket, not {}"),
    ("rr", "rr basket rows", lambda items: {"a_over_n": 1, "e3": 1, "basket_x": items},
     [1, 2], [2, 2], "rr reads at most {} rows per basket, not {}"),
    ("trace", "trace steps", lambda items: {"steps": items},
     {"kind": "Flop", "before": 1, "after": 1}, {"kind": "Twist"},
     "trace checks at most {} steps, not {}"),
]


# a list longer than its row of cli.CEILINGS is refused once it is known
# to be a list of the right shape, before any item is converted: a last
# item that would not convert is never reached
@pytest.mark.parametrize("cmd, name, wrap, item, bad, message", LONG_LISTS,
                         ids=["en-points", "rr-basket", "rr-basket_y", "rr-basket_x",
                              "trace-steps"])
def test_list_length_ceilings(capsys, monkeypatch, cmd, name, wrap, item, bad, message):
    ceiling = cli.CEILINGS[name][0]
    for items, size in [([item] * ceiling + [bad], ceiling + 1),
                        ([item] * 2 * ceiling, 2 * ceiling)]:
        text = json.dumps(wrap(items))
        start = time.perf_counter()
        code, payload = run_json(capsys, [cmd, text])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert payload["error"] == {"type": "InvalidParameter",
                                    "message": message.format(ceiling, size)}
    # at the ceiling the items are read, and a malformed one is found
    monkeypatch.setitem(cli.CEILINGS, name, (3, cli.CEILINGS[name][1]))
    assert run(capsys, [cmd, json.dumps(wrap([item] * 3))])[0] == 0
    code, payload = run_json(capsys, [cmd, json.dumps(wrap([item] * 2 + [bad]))])
    assert code in (1, 2) and "at most" not in payload["error"]["message"]
    code, payload = run_json(capsys, [cmd, json.dumps(wrap([item] * 4))])
    assert payload["error"]["message"] == message.format(3, 4)


def test_readme_ceiling_list_is_the_table():
    """The README's "Request ceilings" list names every row of
    cli.CEILINGS with its ceiling, in the table's order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### Request ceilings", 1)[1].split("\n### ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    listed = [(name.strip().strip("`"), int(ceiling.replace(",", ""))) for name, ceiling in rows]
    assert listed == [(name, ceiling) for name, (ceiling, _) in cli.CEILINGS.items()]


def test_trace_valid(capsys):
    code, payload = run_json(
        capsys,
        [
            "trace",
            json.dumps(
                {
                    "steps": [
                        {"kind": "WExtraction", "before": 3, "after": 2},
                        {"kind": "Flip", "before": 2, "after": 1},
                    ]
                }
            ),
        ],
    )
    assert code == 0
    assert payload["valid"] is True
    assert payload["induction"] is True
    assert payload["steps"][0]["note"] == "minimal-resolution extraction"


def test_trace_violation_pinned(capsys):
    code, payload = run_json(
        capsys,
        ["trace", '{"steps":[{"kind":"Flop","before":3,"after":2}]}'],
    )
    assert code == 2
    err = payload["error"]
    assert err["type"] == "RuleViolation"
    assert err["index"] == 0
    assert err["rule"] == "dep_after = dep_before"


def trace_wire_cases(n, seed):
    """Seeded generated traces, every third with one chaining break, then
    the empty trace."""
    rng = random.Random(seed)
    for i in range(n):
        steps = list(sweeps.random_trace(rng, {}).steps)
        if i % 3 == 0 and len(steps) > 1:
            m = rng.randrange(1, len(steps))
            st = steps[m]
            steps[m] = traces.TraceStep(st.kind, st.dep_before + 1, st.dep_after)
        yield traces.FactorizationTrace(tuple(steps))
    yield traces.FactorizationTrace(())


def expected_trace_output(tr, mode):
    """The trace wire rendered on the test side, one dict per verdict row."""
    try:
        verdict = traces.validate_trace(tr, raise_on_violation=True)
    except RuleViolation as exc:
        error = {"type": "RuleViolation", "message": str(exc),
                 "index": exc.index, "rule": exc.rule}
        return 2, json.dumps({"error": error}) + "\n"
    valid, induction = verdict.valid, traces.induction_certificate(tr)
    rows = [
        {"index": d.index, "kind": d.kind, "rule": d.rule, "ok": d.ok, "note": d.note}
        for d in verdict.diagnostics
    ]
    if mode == "json":
        return 0, json.dumps({"valid": valid, "induction": induction, "steps": rows}) + "\n"
    return 0, f"valid: {valid}\ninduction: {induction}\nsteps: {json.dumps(rows)}\n"


def test_trace_wire_matches_a_dict_per_row_rendering(capsys):
    seen = set()
    for tr in trace_wire_cases(200, seed=31):
        payload = json.dumps({"steps": [
            {"kind": s.kind, "before": s.dep_before, "after": s.dep_after}
            for s in tr.steps
        ]})
        for mode in ("json", "text"):
            got = run(capsys, ["trace", payload, "-o", mode])
            assert got == expected_trace_output(tr, mode)
        diags = traces.validate_trace(tr).diagnostics
        seen |= {got[0]} | {d.rule for d in diags} | {d.note for d in diags}
    # valid traces with minimal-resolution notes, and broken chains
    assert {0, 2, "chaining", "minimal-resolution extraction"} <= seen


def test_accepted_trace_checks_its_steps_once(capsys, monkeypatch):
    # validate_trace applies the step rules; the certificate adds only the
    # induction rule, so the rules run once per request
    runs = []
    check = traces._check_run

    def counted(steps, dep, start):
        runs.append(len(steps))
        return check(steps, dep, start)

    monkeypatch.setattr(traces, "_check_run", counted)
    steps = [{"kind": "WExtraction", "before": 3, "after": 2},
             {"kind": "Flip", "before": 2, "after": 1}]
    code, payload = run_json(capsys, ["trace", json.dumps({"steps": steps})])
    assert code == 0
    assert (payload["valid"], payload["induction"]) == (True, True)
    assert runs == [2]


def test_trace_schema_errors(capsys):
    code, payload = run_json(capsys, ["trace", '{"steps":[{"kind":"Nope","before":1,"after":1}]}'])
    assert code == 1
    assert payload["error"]["type"] == "SchemaError"
    code, payload = run_json(capsys, ["trace", '{"steps":"Flop"}'])
    assert code == 1


def test_schema_error_missing_key(capsys):
    code, payload = run_json(capsys, ["depth", '{"r":5,"beta":2}'])
    assert code == 1
    assert payload["error"]["type"] == "SchemaError"
    assert "support" in payload["error"]["message"]


def test_domain_error_bad_germ(capsys):
    code, payload = run_json(
        capsys, ["depth", '{"r":4,"beta":2,"support":[[0,1]]}']
    )
    assert code == 2
    assert payload["error"]["type"] == "InvalidParameter"


def test_malformed_json(capsys):
    code, payload = run_json(capsys, ["depth", "{not json"])
    assert code == 1


def test_file_and_stdin_input(capsys, tmp_path, monkeypatch):
    path = tmp_path / "germ.json"
    path.write_text(GERM)
    code, out_file = run(capsys, ["depth", str(path)])
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(GERM))
    code, out_stdin = run(capsys, ["depth", "-"])
    assert code == 0
    assert out_file == out_stdin == '{"dep": 9, "exact": true}\n'


def test_missing_file(capsys):
    code, payload = run_json(capsys, ["depth", "no/such/file.json"])
    assert code == 1


def test_name_too_long_for_the_os(capsys):
    # the OS refuses the name itself (ENAMETOOLONG) when the path is probed
    code = main(["basket", "x" * 5000])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"]["type"] == "SchemaError"
    assert "Traceback" not in captured.out + captured.err


def test_integer_too_long_to_parse_is_a_schema_error(capsys):
    # json.loads refuses an int literal past the interpreter's digit limit
    # with a plain ValueError; it is malformed input, not a domain error
    doc = '{"r": 1' + "0" * 5000 + ', "beta": 1, "support": [[0, 1]]}'
    code = main(["depth", doc])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "SchemaError"
    assert error["message"].startswith("input is not valid JSON: ")
    assert "Traceback" not in captured.out + captured.err


def _one_document(capsys):
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    lines = captured.out.splitlines()
    assert len(lines) == 1
    return captured.out, json.loads(lines[0])


def _unlimited(compute):
    """compute() with the int-string digit limit lifted, as the CLI answers."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return compute()
    finally:
        sys.set_int_max_str_digits(limit)


def test_answer_with_an_int_past_the_digit_limit_prints_exactly(capsys):
    # a/n = 10^3000 has 3001 digits, and delta_chi = 10^9000 / 2 has 9000
    a_over_n = "1" + "0" * 3000
    limit = sys.get_int_max_str_digits()
    code = main(["rr", f'{{"a_over_n": "{a_over_n}", "e3": 1}}'])
    out, payload = _one_document(capsys)
    assert code == 0
    expected = _unlimited(lambda: format_rat(Fraction(1, 2) * Fraction(int(a_over_n)) ** 3))
    assert payload == {"delta_chi": expected}
    assert len(out) == 9018
    assert sys.get_int_max_str_digits() == limit


def test_message_with_an_int_past_the_digit_limit_is_the_domain_error(capsys):
    # r = 10^4299 is a 4300-digit literal; the split message holds r * nu_1
    doc = ('{"r": 1' + "0" * 4299
           + ', "beta": 1, "support": [[0, 100000]], "r1": 1, "r2": 1}')
    limit = sys.get_int_max_str_digits()
    code = main(["blowup", doc])
    _, payload = _one_document(capsys)
    assert code == 2
    error = payload["error"]
    assert error["type"] == "InvalidSplit"
    head = "split (1, 1) does not sum to r*nu_1 = "
    assert error["message"].startswith(head)
    total = error["message"][len(head):]
    assert total.isdigit() and len(total) > 4300
    assert sys.get_int_max_str_digits() == limit


def test_error_field_with_an_int_past_the_digit_limit(capsys):
    # d and alpha = d + 1 have 4300 digits each; the pivot 2d has 4301
    d = 5 * 10**4299
    doc = f'{{"case": "A", "a": 3, "d": {d}, "alpha": {d + 1}}}'
    limit = sys.get_int_max_str_digits()
    code = main(["o3", doc])
    _, payload = _one_document(capsys)
    assert code == 2
    error = payload["error"]
    assert error["type"] == "ConstraintViolation"
    assert error["message"] == "first support must contain the pivot (2d, 0)"
    assert error["i"] == _unlimited(lambda: str(2 * d))
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("key", ["a_over_n", "e3"])
def test_decimal_string_past_the_digit_limit_is_a_schema_error(capsys, key):
    # the handler runs with the limit lifted; a string is still held to it
    fields = {"a_over_n": "1", "e3": "1", key: "1" + "0" * 4300 + "/3"}
    code = main(["rr", json.dumps(fields)])
    _, payload = _one_document(capsys)
    assert code == 1
    assert payload["error"] == {
        "type": "SchemaError", "message": f"key {key!r} must be a rational"}


@pytest.mark.parametrize("request_", [
    ["depth", GERM],
    ["depth", '{"r": 1' + "0" * 5000 + ', "beta": 1, "support": [[0, 1]]}'],
    ["depth", '{"r": 0, "beta": 1, "support": [[0, 1]]}'],
    ["verify", "--cyclic-max", "3", "--germ-r-max", "2", "--rr-max", "2",
     "--en-r-max", "3", "--semi-max", "3", "--iib-max", "3", "--o3-cases", "1",
     "--trace-count", "1"],
], ids=["answer", "schema-error", "domain-error", "verify"])
def test_digit_limit_is_restored(capsys, request_):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        main(request_)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)
    capsys.readouterr()


def test_a_stray_value_error_is_not_a_domain_error(capsys, monkeypatch):
    # only the library's InvalidParameter is reported as one; a ValueError
    # from anywhere else is a bug, and it escapes main as itself
    from wresolve import germs

    def broken(g):
        raise ValueError("bug")

    monkeypatch.setattr(germs, "depth_formula", broken)
    with pytest.raises(ValueError, match="^bug$") as exc:
        main(["depth", GERM])
    assert type(exc.value) is ValueError
    assert capsys.readouterr().out == ""


def test_text_output(capsys):
    code, out = run(capsys, ["depth", GERM, "--output", "text"])
    assert code == 0
    assert out == "dep: 9\nexact: True\n"


def test_determinism(capsys):
    first = run(capsys, ["o3", '{"case":"A","a":5,"d":2,"alpha":4,"suppA":[[4,0]]}'])
    second = run(capsys, ["o3", '{"case":"A","a":5,"d":2,"alpha":4,"suppA":[[4,0]]}'])
    assert first == second


def test_big_integers_as_strings(capsys):
    big = '{"r":%d,"beta":1,"support":[[0,%d]]}' % (2**30 + 1, 2**30)
    code, payload = run_json(capsys, ["depth", big])
    assert code == 0
    dep = payload["dep"]
    assert isinstance(dep, str)
    assert int(dep) == 2**30 * (2**30 + 1) - 1


def test_verify_quick(capsys):
    code = main(
        [
            "verify",
            "--cyclic-max", "6",
            "--germ-r-max", "3",
            "--rr-max", "10",
            "--en-r-max", "15",
            "--semi-max", "8",
            "--iib-max", "11",
            "--o3-cases", "5",
            "--trace-count", "200",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert len(lines) == 10
    assert all(ln.startswith("[PASS]") for ln in lines)


def test_verify_reports_every_sweep_when_a_check_raises(capsys, monkeypatch):
    # a raising check fails its own cases only: ten lines at the default
    # case counts, exit 2, and no traceback
    def raising(*args):
        raise KeyError("x")

    monkeypatch.setattr(sweeps, "_check_germ_depth", raising)
    assert main(["verify"]) == 2
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 10 and "Traceback" not in out
    counts = [223, 7038, 1411, 57, 1, 3006, 20016, 28561, 408, 10000]
    assert [ln.split(": ")[1].split(" cases")[0] for ln in lines] == list(map(str, counts))
    assert [ln[:6] for ln in lines] == ["[PASS]"] + ["[FAIL]"] + ["[PASS]"] * 8
    assert lines[1].endswith(
        " 7038 failed, first: CARGerm(r=2, beta=1, support=frozenset({(0, 1)})), 2: "
        "raised KeyError: 'x'")


def test_verify_reports_every_sweep_when_making_a_case_raises(capsys, monkeypatch):
    # a raise while the IIB stream builds its first case fails that sweep
    # only, by name: ten lines, exit 2, and no traceback
    def raising(*args):
        raise KeyError("x")

    monkeypatch.setattr(neighborhoods, "IIBCase", raising)
    assert main(QUICK_VERIFY) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 10 and "Traceback" not in captured.out + captured.err
    assert [ln[:6] for ln in lines] == ["[PASS]"] * 7 + ["[FAIL]"] + ["[PASS]"] * 2
    assert lines[7].startswith("[FAIL] en-iib-fiber-degree: 0 cases in ")
    assert lines[7].endswith(" 1 failed, first: while making case 1: raised KeyError: 'x'")


def test_verify_json(capsys):
    code = main(
        [
            "verify", "--output", "json",
            "--cyclic-max", "6",
            "--germ-r-max", "3",
            "--rr-max", "10",
            "--en-r-max", "15",
            "--semi-max", "8",
            "--iib-max", "11",
            "--o3-cases", "5",
            "--trace-count", "200",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(entry["ok"] for entry in payload)


def test_verify_defaults_are_run_all_defaults(capsys, monkeypatch):
    # one flag per run_all parameter, in its order; a flag left out is not
    # passed, so run_all's own default applies, and a given one arrives as given
    params = list(inspect.signature(sweeps.run_all).parameters)
    assert list(cli._VERIFY_FLAGS) == params
    calls = []
    monkeypatch.setattr(sweeps, "run_all", lambda **kw: calls.append(kw) or [])
    assert main(["verify"]) == 0
    for value, name in enumerate(params, 3):
        assert main(["verify", "--" + name.replace("_", "-"), str(value)]) == 0
    argv = ["verify", "--seed", "11", "--rr-max", "-4", "--semi-max", "6"]
    assert main(argv) == 0
    assert calls == [
        {},
        *({name: value} for value, name in enumerate(params, 3)),
        {"seed": 11, "rr_max": -4, "semi_max": 6},
    ]


VERIFY_HELP = """\
usage: wresolve verify [-h] [--output {json,text}] [--cyclic-max CYCLIC_MAX]
                       [--germ-r-max GERM_R_MAX] [--rr-max RR_MAX]
                       [--en-r-max EN_R_MAX] [--semi-max SEMI_MAX]
                       [--iib-max IIB_MAX] [--o3-cases O3_CASES]
                       [--trace-count TRACE_COUNT] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --output {json,text}, -o {json,text}
  --cyclic-max CYCLIC_MAX
  --germ-r-max GERM_R_MAX
  --rr-max RR_MAX
  --en-r-max EN_R_MAX
  --semi-max SEMI_MAX
  --iib-max IIB_MAX
  --o3-cases O3_CASES
  --trace-count TRACE_COUNT
  --seed SEED
"""


def test_verify_help_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == VERIFY_HELP


def test_console_script():
    proc = subprocess.run(
        ["wresolve", "depth", GERM], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"dep": 9, "exact": True}


RR_JUMP = '"basket_y":[[5,18]],"basket_x":[[1,2,5]]}'

# rational fields take -?[0-9]+(/[0-9]+)? strings and [p, q] pairs whose
# entries follow the integer rule; Fraction() alone accepts each of these
LAX_RATIONALS = {
    "underscore": "1_0/9", "arabic-indic-digit": "\u0663/9", "plus": "+1/9",
    "space": " 1/9", "decimal": "1.5", "exponent": "1e-2",
    "pair-underscore": ["1_0", 9],
}

# each input once exited 0 and dropped the named key; every key a handler
# reads is taken out of the input, and a leftover key is refused
UNREAD_KEYS = [
    (["en", '{"case":"IA","r":7,"a1":1,"a2":3,"kx":"-1/7","R1":10}'], "R1"),
    (["o3", '{"case":"B","a":3,"d":1,"alpha":9}'], "alpha"),
    (["basket", '{"class":"cD/3","k":5}'], "k"),
    (["rr", '{"a_over_n":2,"e3":"1/9","rprime":4}'], "rprime"),
    (["en", '{"points":[[2,"1/2"]],"case":"IC"}'], "case"),
    (["trace", '{"steps":[{"kind":"Flip","before":2,"after":1,"afer":1}]}'], "afer"),
]


# each input once exited 0 with the last of the repeated key's values
REPEATED_KEYS = [
    (["en", '{"case":"IA","r":7,"a1":1,"a2":3,"kx":"-1/7","kx":"-1"}'], "kx"),
    (["trace", '{"steps":[{"kind":"Flip","before":2,"after":1,"after":0}]}'],
     "after"),
]


# every bad input gets exactly one JSON error document: exit 1 for a shape
# or range error in the input, exit 2 for a parameter outside its domain
@pytest.mark.parametrize(
    "argv, code, kind",
    [
        pytest.param(["o3", '{"case":"B","a":3,"d":1,"kMax":-1}'], 1, "SchemaError",
                     id="o3-kMax-negative"),
        pytest.param(["o3", '{"case":"B","a":3,"d":1,"depQ3":-1}'], 1, "SchemaError",
                     id="o3-depQ3-negative"),
        pytest.param(["o3", '{"case":"A","a":3,"d":1,"alpha":2,"suppA":[[2,0]],"kMax":4}'],
                     2, "InvalidParameter", id="o3-kMax-above-a"),
        pytest.param(["rr", '{"a_over_n":2,"e3":"-1/9",' + RR_JUMP], 2, "InvalidParameter",
                     id="rr-e3-negative"),
        pytest.param(["rr", '{"a_over_n":[2.7,1],"e3":"1/9",' + RR_JUMP], 1, "SchemaError",
                     id="rr-float-pair"),
        pytest.param(["en", '{"points":[[2.9,"1/2"]]}'], 1, "SchemaError",
                     id="en-float-index"),
        pytest.param(["en", '{"points":[[true,"0"]]}'], 1, "SchemaError",
                     id="en-bool-index"),
        pytest.param(["resolve", GERM[:-1] + ',"limit":-5}'], 1, "SchemaError",
                     id="resolve-limit-negative"),
        pytest.param(["depth", "[1, 2]"], 1, "SchemaError", id="top-level-array"),
        pytest.param(["en", '{"points":[[5]]}'], 1, "SchemaError", id="rows-length"),
        pytest.param(["depth", '{"r":5,"beta":2,"support":[[0,"2"]]}'], 1,
                     "SchemaError", id="int-rows-type"),
        pytest.param(["basket", "{}"], 1, "SchemaError", id="class-missing"),
        pytest.param(["basket", '{"class":"cZ/9"}'], 1, "SchemaError",
                     id="class-unknown"),
        pytest.param(["en", '{"r":5}'], 1, "SchemaError", id="en-case-missing"),
        pytest.param(["rr", '{"rprime":3}'], 1, "SchemaError", id="rr-no-input"),
        pytest.param(["rr", '{"case":"E9"}'], 1, "SchemaError", id="rr-case-unknown"),
        pytest.param(["trace", '{"steps":[1]}'], 1, "SchemaError",
                     id="trace-step-not-object"),
        pytest.param(["o3", '{"case":"B","a":4,"d":1}'], 2, "InvalidParameter",
                     id="o3-b-even-a"),
        pytest.param(["rr", '{"case":"O3"}'], 2, "InvalidParameter", id="rr-o3"),
        pytest.param(["rr", '{"case":"E11","aw":3}'], 2, "InvalidParameter",
                     id="rr-e11-aw"),
        # integer fields take plain decimal strings only
        pytest.param(["depth", '{"r":"1_0","beta":3,"support":[[0,1]]}'], 1,
                     "SchemaError", id="int-string-underscore"),
        pytest.param(["depth", '{"r":" 7","beta":3,"support":[[0,1]]}'], 1,
                     "SchemaError", id="int-string-space"),
        pytest.param(["depth", '{"r":"\u0663","beta":1,"support":[[0,1]]}'], 1,
                     "SchemaError", id="int-string-arabic-indic-digit"),
        pytest.param(["depth", '{"r":"+5","beta":2,"support":[[0,1]]}'], 1,
                     "SchemaError", id="int-string-plus"),
        pytest.param(["depth", '{"r":"5\\n","beta":2,"support":[[0,1]]}'], 1,
                     "SchemaError", id="int-string-newline"),
        pytest.param(["depth", '{"r":"","beta":2,"support":[[0,1]]}'], 1,
                     "SchemaError", id="int-string-empty"),
        *(pytest.param(["resolve", GERM[:-1] + ',"limit":' + json.dumps(limit) + "}"], 1,
                       "SchemaError", id=f"resolve-limit-{tag}")
          for tag, limit in [("underscore", "1_0"), ("space", " 9"),
                             ("arabic-indic-digit", "\u0669"), ("plus", "+9")]),
        *(pytest.param(["en", json.dumps({"case": "IC", "r": 5, "kx": value})], 1,
                       "SchemaError", id=f"en-kx-{tag}")
          for tag, value in LAX_RATIONALS.items()),
        *(pytest.param(["rr", '{"a_over_n":2,"e3":' + json.dumps(value) + "," + RR_JUMP],
                       1, "SchemaError", id=f"rr-e3-{tag}")
          for tag, value in LAX_RATIONALS.items()),
        # IC fixes its fiber degree: a given r1 is refused, not dropped
        pytest.param(["en", '{"case":"IC","r":5,"kx":"-1/5","r1":3}'], 2,
                     "InvalidCaseData", id="en-ic-r1"),
        # IA takes K_X . C in [-1, 0], like IC and IIB in theirs
        pytest.param(["en", '{"case":"IA","r":7,"a1":1,"a2":3,"kx":"-100"}'], 2,
                     "InvalidCaseData", id="en-ia-kx-below-minus-one"),
        # r' below each family's terminal range
        pytest.param(["rr", '{"case":"E1_a2","rprime":2}'], 2, "InvalidParameter",
                     id="rr-e1-a2-rprime-2"),
        pytest.param(["rr", '{"case":"E2","rprime":1}'], 2, "InvalidParameter",
                     id="rr-e2-rprime-1"),
        pytest.param(["rr", '{"case":"E1_a4","rprime":4}'], 2, "InvalidParameter",
                     id="rr-e1-a4-rprime-4"),
        *(pytest.param(argv, 1, "SchemaError", id=f"unread-{argv[0]}-{key}")
          for argv, key in UNREAD_KEYS),
        *(pytest.param(argv, 1, "SchemaError", id=f"repeated-{argv[0]}-{key}")
          for argv, key in REPEATED_KEYS),
        # the handler's own error wins over a leftover key
        pytest.param(["en", '{"case":"IC","r":4,"kx":"-1/4","zz":1}'], 2,
                     "InvalidCaseData", id="en-domain-error-before-unread-key"),
    ],
)
def test_boundary_errors(capsys, argv, code, kind):
    got, out = run(capsys, argv)
    assert got == code
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["type"] == kind


@pytest.mark.parametrize("argv, key", UNREAD_KEYS,
                         ids=[f"{argv[0]}-{key}" for argv, key in UNREAD_KEYS])
def test_unread_key_is_refused(capsys, argv, key):
    code, payload = run_json(capsys, argv)
    assert code == 1
    assert payload["error"] == {"type": "SchemaError", "message": f"unknown key {key!r}"}


STEPS = [{"kind": "WExtraction", "before": 3, "after": 2},
         {"kind": "Flip", "before": 2, "after": 1}]
# the golden requests and README examples that exit 0, and one request for
# each subcommand neither of them shows
ACCEPTED = [argv for sub in GOLDEN.values() for argv, code, _ in sub if code == 0]
ACCEPTED += [argv for argv, _ in readme_examples()]
ACCEPTED += [["resolve", GERM], ["blowup", GERM[:-1] + ',"r1":2,"r2":8}'],
             ["trace", json.dumps({"steps": STEPS})]]


@pytest.mark.parametrize("argv", ACCEPTED,
                         ids=[f"{argv[0]}-{n}" for n, argv in enumerate(ACCEPTED)])
def test_every_accepted_request_refuses_an_extra_key(capsys, argv):
    # a handler that reads a key around _field leaves it behind, and fails here
    sub, text, *rest = argv
    assert run(capsys, argv)[0] == 0
    extra = json.dumps({**json.loads(text), "zz": 1})
    code, payload = run_json(capsys, [sub, extra, *rest])
    assert code == 1
    assert payload["error"] == {"type": "SchemaError", "message": "unknown key 'zz'"}


@pytest.mark.parametrize("argv, key", REPEATED_KEYS,
                         ids=[f"{argv[0]}-{key}" for argv, key in REPEATED_KEYS])
def test_repeated_key_is_refused(capsys, argv, key):
    code, payload = run_json(capsys, argv)
    assert code == 1
    assert payload["error"] == {"type": "SchemaError", "message": f"repeated key {key!r}"}


def test_trace_step_refuses_an_extra_key(capsys):
    steps = [*STEPS[:1], {**STEPS[1], "zz": 1}]
    code, payload = run_json(capsys, ["trace", json.dumps({"steps": steps})])
    assert code == 1
    assert payload["error"] == {"type": "SchemaError", "message": "unknown key 'zz'"}


def test_input_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "germ.json"
    path.write_bytes(b"\xff" + GERM.encode())
    code, payload = run_json(capsys, ["depth", str(path)])
    assert code == 1
    assert payload["error"]["type"] == "SchemaError"


def spawn(argv, **kwargs):
    """Run the CLI in a fresh interpreter on this source tree."""
    src = str(Path(wresolve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "wresolve.cli", *argv],
        stderr=subprocess.PIPE, text=True, env=env, timeout=60, **kwargs,
    )


def test_input_too_deep_for_the_recursion_limit():
    # a 2000-stage tree: the JSON encoder nests once per stage
    proc = spawn(["resolve", '{"r":2,"beta":1,"support":[[0,2000],[1,0]]}'],
                 stdout=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["error"] == {
        "type": "InvalidParameter", "message": "input too large (RecursionError)"
    }
    assert "Traceback" not in proc.stderr


# a walk within the "resolve stages" ceiling is not refused up front; past
# the encoder's depth (982 / 984 / 743 / 988 stages on Python 3.10.13 /
# 3.11.7 / 3.12.1 / 3.13.0, in a fresh process) it ends in the
# RecursionError answer, and either way in one JSON document, soon
@pytest.mark.parametrize("t", [1000, cli.CEILINGS["resolve stages"][0]])
def test_resolve_walk_within_the_ceiling_answers(t):
    start = time.perf_counter()
    proc = spawn(["resolve", _deep_germ(t)], stdout=subprocess.PIPE)
    assert time.perf_counter() - start < 2
    assert proc.returncode in (0, 2)
    assert proc.stdout.count("\n") == 1
    json.loads(proc.stdout)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("germ, dep", [
    ('{"r":601,"beta":1,"support":[[0,1]]}', 600),
    ('{"r":2,"beta":1,"support":[[0,10000000]]}', 19999999),
], ids=["index-601", "axial-weight-1e7"])
def test_large_index_and_axial_weight_resolve(germ, dep):
    # each stage is priced once by r*nu_1 - 1, not by searching its
    # cyclic points or building its nu_1 splits
    proc = spawn(["resolve", germ], stdout=subprocess.PIPE)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dep"] == dep
    assert "Traceback" not in proc.stderr


def test_deep_resolve_tree_is_printed():
    # 800 nested stages fit the recursion limit when the encoder costs
    # one frame per level
    proc = spawn(["resolve", '{"r":2,"beta":1,"support":[[0,800],[1,0]]}'],
                 stdout=subprocess.PIPE)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dep"] == 800
    assert "Traceback" not in proc.stderr


def test_memory_error_is_one_json_error(capsys, monkeypatch):
    def exhausted(obj):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_depth", exhausted)
    code, out = run(capsys, ["depth", GERM])
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == {
        "type": "InvalidParameter", "message": "input too large (MemoryError)"
    }


QUICK_VERIFY = [
    "verify", "--cyclic-max", "6", "--germ-r-max", "3", "--rr-max", "10",
    "--en-r-max", "15", "--semi-max", "8", "--iib-max", "11", "--o3-cases", "5",
    "--trace-count", "50",
]


@pytest.mark.parametrize("argv", [["depth", GERM], QUICK_VERIFY])
def test_closed_stdout_exits_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read what the CLI writes
    try:
        proc = spawn(argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
