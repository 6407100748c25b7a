"""The benchmark's own tests: python3 -m pytest perfbench

Every workload runs end to end at a tiny size; a wrong answer injected on
the benchmark side (a corrupted reference) must show up as failed requests.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))  # the in-process passes import wresolve

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_reports_every_metric_and_no_failure(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0
    assert result["correct"] is True
    assert "failed_frac" in proc.stdout


def failed_frac(result, workload):
    per_pass = workloads.make(workload, "tiny").requests_per_pass
    attempted, failed, _ = run.tally([result], per_pass)
    return failed / attempted


def test_wrong_depth_reference_fails_large_inputs(monkeypatch):
    assert failed_frac(worker.run_pass("large-inputs", 3, "tiny", "plain"), "large-inputs") == 0
    real = workloads.ref_germ_depth
    monkeypatch.setattr(workloads, "ref_germ_depth", lambda r, s: real(r, s) + 1)
    assert failed_frac(worker.run_pass("large-inputs", 3, "tiny", "plain"), "large-inputs") > 0


def test_wrong_case_count_fails_verify(monkeypatch):
    counts = list(workloads.VERIFY_COUNTS["tiny"])
    counts[-1] += 1
    monkeypatch.setitem(workloads.VERIFY_COUNTS, "tiny", tuple(counts))
    result = worker.run_pass("verify", 3, "tiny", "plain")
    assert failed_frac(result, "verify") == 1 / len(counts)


def test_wrong_cli_answer_fails(monkeypatch):
    assert failed_frac(worker.run_pass("cli", 3, "tiny", "inprocess"), "cli") == 0
    real = workloads.ref_quotient
    monkeypatch.setattr(workloads, "ref_quotient",
                        lambda index, r: {**real(index, r), "index": index + 1})
    assert failed_frac(worker.run_pass("cli", 3, "tiny", "inprocess"), "cli") > 0


def test_cli_check_rejects_tracebacks_and_wrong_exit_codes():
    want = {"dep": 9, "exact": True}
    text = json.dumps(want)
    assert workloads.check_cli_output(0, text, "", 0, want)[0]
    assert not workloads.check_cli_output(0, text, "Traceback (most recent call last):", 0, want)[0]
    assert not workloads.check_cli_output(2, text, "", 0, want)[0]
    assert not workloads.check_cli_output(0, text + text, "", 0, want)[0]


def test_rung_tags_name_the_prepared_requests():
    state = workloads.LargeInputs("tiny").prepare(3, "tiny")
    assert [req.tag for req in state["requests"]] == workloads.rung_tags("tiny")
    assert len(run.curve_tags()) == len(workloads.rung_tags("full")) - 3


def test_inputs_depend_only_on_the_seed():
    assert workloads.cli_mix(7, "full") == workloads.cli_mix(7, "full")
    assert workloads.cli_mix(7, "full") != workloads.cli_mix(8, "full")
    first = workloads.random_steps(random.Random(1), 50)
    assert first == workloads.random_steps(random.Random(1), 50)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
