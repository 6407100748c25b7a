"""Append one entry per workload to BENCH_<workload>.json at the repo root,
summing up the run records that perfbench/run.py leaves in .perfbench_out.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 30
    python3 perfbench/run.py --workload cli --seed 3 --seconds 30 --trace 1
    python3 tools/bench_append.py cli

Each entry holds the git sha and the date of the runs; the median and
interquartile range of wall_s, setup_s and peak_rss_mb over every pass of
the --trace 0 records (all seeds together); the attempted and failed
request counts of all the records; and, per seed of a --trace 1 record,
cli.import_ms and the machine-independent counts (every *.calls,
chains.stages, traces.steps_checked and sweeps.*.cases).  An entry is
only ever appended: the entries already in the file are kept as they are,
and records that an entry already sums up are refused.  So is a --trace 1
record that counts fewer germs.search.calls than germ-depth-dual-route
cases: every germ case searches once, so its counts cover only the share
of the sweeps run in the traced process, and it must be run again under
``taskset -c 0``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("verify", "large-inputs", "cli")


def _spread(values) -> dict:
    """Median, interquartile range and sample count."""
    values = list(values)
    if len(values) < 2:
        return {"median": values[0] if values else None, "iqr": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values)}


def _counted(name: str) -> bool:
    return (name == "cli.import_ms" or name.endswith(".calls")
            or name in ("chains.stages", "traces.steps_checked")
            or (name.startswith("sweeps.") and name.endswith(".cases")))


def entry(records: dict[str, dict]) -> dict:
    """The entry that sums up the run records (file name -> record) of one
    workload."""
    shas = {r["record"]["git_sha"] for r in records.values()}
    if len(shas) != 1:
        raise ValueError(f"the records come from different trees: {sorted(shas)}")
    plain = [r for r in records.values() if not r["args"]["trace"]]
    traced = [r for r in records.values() if r["args"]["trace"]]
    for name, r in records.items():
        searches = r["metrics"].get("germs.search.calls", 0)
        cases = r["metrics"].get("sweeps.germ-depth-dual-route.cases", 0)
        if r["args"]["trace"] and searches < cases:
            raise ValueError(
                f"{name} counts {searches} germ searches for {cases} germ cases: "
                "the sweeps ran in several processes; rerun it under taskset -c 0")
    passes = [p for r in plain for p in r["passes"] if "error" not in p]
    # a pass with requests measured them; a set-up pass only starts
    measured = [p for p in passes if p["outcomes"]]
    first = next(iter(records.values()))["record"]
    return {
        "sha": shas.pop(),
        "date": max(r["record"]["time"] for r in records.values()),
        "python": first["python"],
        "nproc": first["nproc"],
        "records": sorted(records),
        "wall_s": _spread(p["wall_s"] for p in measured),
        "setup_s": _spread(p["setup_s"] for p in passes),
        "peak_rss_mb": _spread(p["rss_kb"] / 1024 for p in measured),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "counts": {
            f"seed{r['args']['seed']}": {
                k: v for k, v in sorted(r["metrics"].items()) if _counted(k)
            }
            for r in traced
        },
    }


def append(workload: str, out_dir: Path, root: Path = ROOT) -> dict:
    """Append the entry of out_dir's records of workload to its BENCH file
    and return it."""
    paths = sorted(out_dir.glob(f"{workload}-seed*-trace*.json"))
    if not paths:
        raise ValueError(f"no {workload} records in {out_dir}")
    new = entry({p.name: json.loads(p.read_text()) for p in paths})
    bench = root / f"BENCH_{workload}.json"
    entries = json.loads(bench.read_text()) if bench.exists() else []
    if any((e["sha"], e["date"]) == (new["sha"], new["date"]) for e in entries):
        raise ValueError(f"{bench.name} already holds the entry of these records")
    bench.write_text(json.dumps(entries + [new], indent=1) + "\n")
    return new


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="+", choices=WORKLOADS)
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".perfbench_out",
                        help="where the run records are (default .perfbench_out)")
    args = parser.parse_args(argv)
    for workload in args.workloads:
        try:
            new = append(workload, args.out_dir)
        except ValueError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        print(f"{workload}: {new['sha'][:12]} wall_s {new['wall_s']['median']:.4g} s "
              f"over {new['wall_s']['n']} passes, {new['failed']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
