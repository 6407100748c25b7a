"""tools/bench_append.py: one appended BENCH entry per set of run records."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_append", ROOT / "tools" / "bench_append.py")
bench_append = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_append)


def record(seed, trace, passes, metrics=None, sha="abc123", failed=0):
    return {
        "record": {"git_sha": sha, "python": "3.11.7", "nproc": 2,
                   "loadavg": [0.5, 0.5, 0.5], "time": f"2026-01-0{seed}T00:00:00Z"},
        "args": {"workload": "cli", "seed": seed, "trace": trace},
        "metrics": metrics or {}, "attempted": 10, "failed": failed,
        "failures": [], "notes": [], "passes": passes,
    }


def measured(wall, rss_kb, setup):
    return {"wall_s": wall, "setup_s": setup, "rss_kb": rss_kb, "outcomes": [["x", 0.1, True, ""]]}


def setup_only(setup):
    return {"wall_s": 0.0, "setup_s": setup, "rss_kb": 1, "outcomes": []}


def write(out, name, rec):
    (out / name).write_text(json.dumps(rec))


def test_entry_sums_up_the_records_and_is_only_appended(tmp_path):
    out = tmp_path / "runs"
    out.mkdir()
    write(out, "cli-seed1-trace0.json",
          record(1, 0, [measured(1.0, 1024, 0.1), setup_only(0.3), {"error": "x"}]))
    write(out, "cli-seed2-trace0.json",
          record(2, 0, [measured(3.0, 3072, 0.2), measured(2.0, 2048, 0.4)], failed=1))
    write(out, "cli-seed3-trace1.json",
          record(3, 1, [], {"cli.import_ms": 30.0, "baskets.calls": 7, "chains.stages": 2,
                            "sweeps.e11-depth.cases": 1, "sweeps.e11-depth.s": 0.1,
                            "baskets.self_s": 0.2}))
    new = bench_append.append("cli", out, tmp_path)
    assert new["sha"] == "abc123" and new["date"] == "2026-01-03T00:00:00Z"
    assert new["wall_s"] == {"median": 2.0, "iqr": 2.0, "n": 3}
    assert new["peak_rss_mb"]["median"] == 2.0
    assert new["setup_s"]["n"] == 4 and new["setup_s"]["median"] == 0.25
    assert (new["attempted"], new["failed"]) == (30, 1)
    assert new["counts"] == {"seed3": {"baskets.calls": 7, "chains.stages": 2,
                                       "cli.import_ms": 30.0, "sweeps.e11-depth.cases": 1}}
    bench = tmp_path / "BENCH_cli.json"
    first = bench.read_text()
    with pytest.raises(ValueError, match="already holds"):
        bench_append.append("cli", out, tmp_path)
    assert bench.read_text() == first
    write(out, "cli-seed1-trace0.json", record(4, 0, [measured(5.0, 1024, 0.1)]))
    write(out, "cli-seed2-trace0.json", record(4, 0, [measured(5.0, 1024, 0.1)]))
    write(out, "cli-seed3-trace1.json", record(4, 1, []))
    bench_append.append("cli", out, tmp_path)
    entries = json.loads(bench.read_text())
    assert entries[0] == json.loads(first)[0] and len(entries) == 2


def test_records_of_different_trees_are_refused(tmp_path):
    write(tmp_path, "cli-seed1-trace0.json", record(1, 0, [measured(1.0, 1, 0.1)]))
    write(tmp_path, "cli-seed2-trace0.json", record(2, 0, [measured(1.0, 1, 0.1)], sha="def"))
    with pytest.raises(ValueError, match="different trees"):
        bench_append.append("cli", tmp_path, tmp_path)
    assert not (tmp_path / "BENCH_cli.json").exists()


# every germ case searches once, so a traced verify record with fewer
# searches than germ cases counted only the caller's share of the sweeps
@pytest.mark.parametrize("searches, refused", [(21, True), (1242, False)])
def test_a_traced_record_of_a_split_run_is_refused(tmp_path, searches, refused):
    metrics = {"germs.search.calls": searches, "sweeps.germ-depth-dual-route.cases": 1242,
               "traces.calls": 0}
    write(tmp_path, "verify-seed1-trace0.json", record(1, 0, [measured(1.0, 1, 0.1)]))
    write(tmp_path, "verify-seed3-trace1.json", record(3, 1, [], metrics))
    if refused:
        with pytest.raises(ValueError, match="21 germ searches for 1242 germ cases: .*"
                                             "rerun it under taskset -c 0"):
            bench_append.append("verify", tmp_path, tmp_path)
        assert not (tmp_path / "BENCH_verify.json").exists()
    else:
        new = bench_append.append("verify", tmp_path, tmp_path)
        assert new["counts"]["seed3"]["germs.search.calls"] == 1242
