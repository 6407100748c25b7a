"""tools/bench_pairs.py: alternating parent/change runs and their summary,
and the count comparison of one traced run per checkout."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "score", "unit": "count", "better": "higher", "bound": 0.1},
]


def pair(parent_wall, change_wall, parent_score=5, change_score=5):
    return {"parent": {"wall_s": parent_wall, "score": parent_score},
            "change": {"wall_s": change_wall, "score": change_score}}


def test_summary_of_canned_pairs():
    pairs = [pair(1.0 + i / 100, 0.8 + i / 100) for i in range(9)]
    pairs.append(pair(0.9, 0.95, 4, 6))  # the change loses wall_s once
    s = bench_pairs.summarize(pairs, SPEC)
    wall = s["wall_s"]
    assert (wall["wins"], wall["losses"], wall["pairs"]) == (9, 1, 10)
    assert wall["parent"]["median"] == pytest.approx(1.035)
    assert wall["change"]["median"] == pytest.approx(0.845)
    assert wall["parent"]["q1"] < wall["parent"]["median"] < wall["parent"]["q3"]
    assert wall["median_gain"] == pytest.approx(0.19)
    assert wall["parent_iqr"] == pytest.approx(wall["parent"]["q3"] - wall["parent"]["q1"])
    assert wall["claimable"]  # 9 of 10 and a gain wider than the parent's IQR
    score = s["score"]  # higher is better; nine ties count for neither side
    assert (score["wins"], score["losses"]) == (1, 0)
    assert score["median_gain"] == 0 and not score["claimable"]
    lines = bench_pairs.format_summary(s)
    assert lines[0] == "wall_s (s, lower is better)"
    assert lines[1].startswith("  parent  median 1.035  q1 ")
    assert lines[3].startswith("  change wins 9 of 10 pairs (1 lost, 0 tied)")
    assert lines[3].endswith("a gain may be claimed")
    assert lines[7].startswith("  change wins 1 of 10 pairs (0 lost, 9 tied)")
    assert lines[7].endswith("no gain to claim")


def test_no_claim_inside_the_parents_spread():
    # the change wins every pair, but by less than the parent's own IQR
    pairs = [pair(1.0 + i / 10, 0.99 + i / 10) for i in range(10)]
    wall = bench_pairs.summarize(pairs, SPEC)["wall_s"]
    assert wall["wins"] == 10 and not wall["claimable"]


def test_one_run_is_its_own_quartiles():
    wall = bench_pairs.summarize([pair(2.0, 1.0)], SPEC)["wall_s"]
    assert wall["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert wall["claimable"]


FAKE_RUN = '''
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
with open(here.parent / "order.log", "a") as log:
    log.write(here.name + "\\n")
with open(here.parent / "argv.log", "a") as log:
    log.write(" ".join(sys.argv[1:]) + "\\n")
wall = {"parent": 1.0}.get(here.name, 0.5)
score = {"moved": 7}.get(here.name, 5)
metrics = {"wall_s": {"value": wall, "unit": "s"},
           "score": {"value": score, "unit": "count"}}
if here.name == "extra":
    metrics["extra.calls"] = {"value": 3, "unit": "count"}
print("noise line")
print(json.dumps({"correct": here.name != "broken", "attempted": 1, "failed": 0,
                  "metrics": metrics}))
'''


def checkout(tmp_path, name):
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True, exist_ok=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC}))
    return root


def test_runs_alternate_and_an_incorrect_run_fails(tmp_path, capsys):
    parent, change = checkout(tmp_path, "parent"), checkout(tmp_path, "change")
    args = ["--workload", "verify", "--pairs", "3", "--seed", "1", "--seconds", "1"]
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change)] + args) == 0
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    assert "pair 2 (change first)" in out
    assert "change wins 3 of 3 pairs" in out
    broken = checkout(tmp_path, "broken")
    assert bench_pairs.main(["--parent", str(parent), "--change", str(broken)] + args) == 1
    assert "change FAILED" in capsys.readouterr().out


def test_summary_states_the_bytecode_setting(tmp_path, capsys, monkeypatch):
    parent, change = checkout(tmp_path, "parent"), checkout(tmp_path, "change")
    argv = ["--parent", str(parent), "--change", str(change), "--workload",
            "verify", "--pairs", "1", "--seed", "1", "--seconds", "1"]
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_pairs.main(argv) == 0
    out = capsys.readouterr().out
    assert "PYTHONDONTWRITEBYTECODE set\n" in out
    assert "  parent  src/wresolve/__pycache__ absent\n" in out
    assert "  change  src/wresolve/__pycache__ absent\n" in out
    assert "warning" not in out
    (change / "src" / "wresolve" / "__pycache__").mkdir(parents=True)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_pairs.main(argv) == 0
    out = capsys.readouterr().out
    assert "PYTHONDONTWRITEBYTECODE not set\n" in out
    assert "  change  src/wresolve/__pycache__ present\n" in out
    assert "warning: the checkouts differ in src/wresolve/__pycache__" in out


def test_needs_a_pair(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--workload", "verify", "--pairs", "0", "--seed", "1",
                          "--seconds", "1"])


def counts(tmp_path, change, *expect, parent="parent"):
    argv = ["--parent", str(checkout(tmp_path, parent)),
            "--change", str(checkout(tmp_path, change)),
            "--workload", "verify", "--seed", "3", "--counts"]
    for e in expect:
        argv += ["--expect", e]
    return bench_pairs.main(argv)


def test_counts_no_move(tmp_path, capsys):
    # wall_s differs, but only a metric of unit count is compared
    assert counts(tmp_path, "change") == 0
    out = capsys.readouterr().out
    assert out.startswith("no count moved\nverify seed 3, 1 counts: every count as declared\n")
    argv = (tmp_path / "argv.log").read_text().splitlines()
    assert argv == ["--workload verify --seed 3 --seconds 1 --trace 1"] * 2


def test_counts_undeclared_move(tmp_path, capsys):
    assert counts(tmp_path, "moved") == 1
    out = capsys.readouterr().out
    assert out.startswith("score 5 → 7 (+2)  UNDECLARED\n"
                          "verify seed 3, 1 counts: counts differ from the declared moves\n")


def test_counts_declared_move(tmp_path, capsys):
    assert counts(tmp_path, "moved", "score=2") == 0
    assert capsys.readouterr().out.startswith("score 5 → 7 (+2)\n")
    # a move of another size, a declared move that did not happen and a
    # count that does not exist all fail
    assert counts(tmp_path, "moved", "score=3") == 1
    assert capsys.readouterr().out.startswith("score 5 → 7 (+2)  expected +3\n")
    assert counts(tmp_path, "change", "score=2") == 1
    assert capsys.readouterr().out.startswith("score 5 → 5 (+0)  expected +2\n")
    assert counts(tmp_path, "moved", "score=2", "nothing=1") == 1
    assert "nothing: no such count\n" in capsys.readouterr().out


# a count that only one side has is named and fails the comparison; it is
# neither a KeyError nor left out
def test_counts_only_in_the_change(tmp_path, capsys):
    assert counts(tmp_path, "extra") == 1
    assert capsys.readouterr().out == (
        "extra.calls: only in change\n"
        "verify seed 3, 2 counts: counts differ from the declared moves\n")


def test_counts_only_in_the_parent(tmp_path, capsys):
    assert counts(tmp_path, "change", "extra.calls=1", parent="extra") == 1
    assert capsys.readouterr().out == (
        "extra.calls: only in parent\n"
        "verify seed 3, 1 counts: counts differ from the declared moves\n")
    direct = bench_pairs.count_diff(
        {"score": {"value": 5, "unit": "count"}, "gone": {"value": 1, "unit": "count"}},
        {"score": {"value": 5, "unit": "count"}, "new": {"value": 2.0, "unit": "count"}},
        {})
    assert direct == (["new: only in change", "gone: only in parent"], False)


def test_counts_of_an_incorrect_run_fail(tmp_path, capsys):
    assert counts(tmp_path, "broken") == 1
    out = capsys.readouterr().out
    assert out.startswith("change FAILED ")
    assert "no count moved" in out


def test_expect_needs_counts_and_a_whole_delta(tmp_path):
    base = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload",
            "verify", "--seed", "1", "--pairs", "1", "--seconds", "1"]
    for extra in (["--expect", "score=2"], ["--counts", "--expect", "score=1.5"],
                  ["--counts", "--expect", "=2"]):
        with pytest.raises(SystemExit):
            bench_pairs.main(base + extra)
