"""wresolve benchmark: one command prints every metric by name with its unit.

    python3 perfbench/run.py --workload verify|large-inputs|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout (``src/wresolve`` must exist).
Every pass of a workload runs in a fresh interpreter (perfbench/worker.py),
one at a time, so no warm state -- such as the unbounded cache on
``cyclic_depth_search`` -- carries from one pass into the next, just as
every real ``wresolve`` call starts cold.  Workloads and their references
are described in workloads.py.

``--trace 0`` repeats untraced passes for ``--seconds``, each followed by
set-up-only spawns, and reports the end-to-end metrics:

    wall_s       median time of one pass's measured phase
    setup_s      median time from spawning a pass to its first measured call
    peak_rss_mb  median over passes of peak RSS (cli: of the CLI children)

It also prints, outside the result, the median and the 90th percentile of
request latency (verify: a sweep; large-inputs: a library call; cli: a
process) with the sample count; the 90th percentile only when at least
ten requests lie beyond it.  On verify and large-inputs the requests are
of very different sizes, so these percentiles sit between size classes
and are too unsteady to serve as a gate.

``--trace 1`` alternates three untraced passes with two traced passes on
the same seed, whose counts must agree exactly, and reports the per-layer
metrics, including the tracing overhead (traced minus untraced wall_s) and,
on large-inputs, one time per rung of each size ladder.  The spans of the
first traced pass go to .perfbench_out/spans-<workload>-seed<seed>.json.gz.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; failed / attempted is failed_frac.  A full
record of the run, with git sha, Python version, nproc and load average,
goes to .perfbench_out/<workload>-seed<seed>-trace<t>.json.

The benchmark's own tests: python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SPAWNS_PER_PASS = 2
UNTRACED_PASSES = 3
TRACED_PASSES = 2
FLOOR_SPAWNS = 7
# no pass starts after this many seconds, so a run ends well within 180 s
LAST_START_S = 100
PASS_TIMEOUT_S = 60

# metric names and units, declared once, in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def curve_tags() -> list[str]:
    """The large-inputs rungs that make the scaling curves (mutants aside)."""
    return [t for t in workloads.rung_tags("full") if "mutant" not in t]


def curve_metric(tag: str) -> str:
    """germs.search.L24 -> germs.search.ms.L24"""
    family, rung = tag.rsplit(".", 1)
    return f"{family}.ms.{rung}"


# ------------------------------------------------------------------ passes


def spawn(argv: list[str], timeout: float) -> tuple[int, str, str]:
    """Run one child as the leader of a new process group and wait for it;
    on timeout kill the whole group (a cli pass has children of its own)
    and wait."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=workloads.child_env(ROOT), cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -9, out, err + f"\ntimed out after {timeout:.0f} s"
    return proc.returncode, out, err


def run_pass(workload: str, seed: int, scale: str, mode: str, spans=None) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), scale, mode]
    if spans:
        argv.append(str(spans))
    t_spawn = time.perf_counter()
    code, out, err = spawn(argv, PASS_TIMEOUT_S)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        return {"error": f"pass exited {code}: {err.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child
    result["setup_s"] = result.pop("t_first") - t_spawn
    return result


def tally(passes: list[dict], per_pass: int) -> tuple[int, int, list[str]]:
    """attempted, failed and the first failure details over the passes; a
    pass that crashed counts all of its requests as failed."""
    attempted = failed = 0
    details = []
    for p in passes:
        if "error" in p:
            attempted += per_pass
            failed += per_pass
            details.append(p["error"])
            continue
        for tag, _, ok, detail in p["outcomes"]:
            attempted += 1
            if not ok:
                failed += 1
                details.append(f"{tag}: {detail}")
    return attempted, failed, details[:5]


def good(passes: list[dict]) -> list[dict]:
    return [p for p in passes if "error" not in p]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


INTERP_CODE = "import time; print(time.perf_counter())"
IMPORT_CODE = ("import time; t = time.perf_counter(); import wresolve.cli; "
               "print(time.perf_counter() - t)")


def fresh_ms(code: str, since_spawn: bool) -> float:
    """Median over fresh interpreters of the seconds that `code` prints, in
    ms; with since_spawn the printed value is a perf_counter reading and the
    time from the spawn to it is what counts."""
    samples = []
    for _ in range(FLOOR_SPAWNS):
        spawned = time.perf_counter()
        rc, out, _ = spawn([sys.executable, "-c", code], PASS_TIMEOUT_S)
        if rc == 0:
            samples.append((float(out) - (spawned if since_spawn else 0)) * 1e3)
    return median(samples)


# ------------------------------------------------------------------ modes


def measure(workload: str, seed: int, seconds: float, scale: str):
    """Untraced passes, one after another, for `seconds`."""
    per_pass = workloads.make(workload, scale).requests_per_pass
    passes, setups = [], []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed, scale, "plain"))
        setups += [run_pass(workload, seed, scale, "setup")
                   for _ in range(SETUP_SPAWNS_PER_PASS)]
        elapsed = time.perf_counter() - started
        latest = [passes[-1]] + setups[-SETUP_SPAWNS_PER_PASS:]
        if any("error" in p for p in latest) or elapsed >= min(seconds, LAST_START_S):
            break
    ok = good(passes)
    metrics = {
        "wall_s": median(p["wall_s"] for p in ok),
        "setup_s": median(p["setup_s"] for p in good(passes + setups)),
        "peak_rss_mb": median(p["rss_kb"] for p in ok) / 1024,
    }
    latencies = sorted(o[1] * 1e3 for p in ok for o in p["outcomes"])
    notes = [f"{len(passes)} passes, {len(passes) + len(setups)} set-ups, "
             f"{len(latencies)} requests",
             f"request latency p50 {median(latencies):.6g} ms (not gated)"]
    if len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10)[8]
        notes.append(f"request latency p90 {p90:.6g} ms (not gated; "
                     f"{sum(x > p90 for x in latencies)} requests beyond it)")
    return passes + setups, per_pass, metrics, notes, True


def measure_traced(workload: str, seed: int, scale: str):
    per_pass = workloads.make(workload, scale).requests_per_pass
    base_mode = "inprocess" if workload == "cli" else "plain"
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.json.gz"
    # alternate untraced and traced passes, so that drift in the machine's
    # speed biases the tracing overhead as little as possible
    untraced, traced = [], []
    for i in range(UNTRACED_PASSES + TRACED_PASSES):
        if i % 2 and len(traced) < TRACED_PASSES:
            traced.append(run_pass(workload, seed, scale, "traced",
                                   None if traced else spans))
        else:
            untraced.append(run_pass(workload, seed, scale, base_mode))
    # every per-layer metric is reported, 0 where the workload does not
    # touch the layer or rung
    metrics = dict.fromkeys(PER_LAYER, 0)
    notes = []
    base, tr = good(untraced), good(traced)
    counts_agree = len(tr) == TRACED_PASSES and all(
        p["counts"] == tr[0]["counts"] for p in tr)
    if not counts_agree:
        notes.append("traced passes on one seed gave different counts")
    if tr:
        layers = tr[0]["layers"]
        for key, value in layers.items():
            if key.endswith("self_s"):
                value = median(p["layers"][key] for p in tr)
            metrics[key] = value
        if workload == "verify":
            trace_cases = tr[0]["sweeps"]["sweeps.trace-rule-metamorphic.cases"]
        else:
            trace_cases = sum(1 for o in tr[0]["outcomes"] if o[0].startswith("trace"))
        metrics["traces.steps_per_case"] = (
            layers["traces.steps_checked"] / trace_cases if trace_cases else 0.0)
        metrics["trace.overhead_s"] = (median(p["wall_s"] for p in tr)
                                       - median(p["wall_s"] for p in base))
    if workload == "verify":
        for key in base[0]["sweeps"] if base else ():
            metrics[key] = median(p["sweeps"][key] for p in base)
    if workload == "large-inputs":
        # rungs of the tiny ladder have no metric of their own
        for tag in curve_tags():
            metrics[curve_metric(tag)] = median(
                o[1] for p in base for o in p["outcomes"] if o[0] == tag) * 1e3
    if workload == "cli":
        handler = [o for p in base for o in p["outcomes"]]
        metrics["cli.handler_ms"] = median(o[1] for o in handler) * 1e3
        for sub in workloads.SUBCOMMANDS:
            metrics[f"cli.{sub}.ms"] = median(o[1] for o in handler if o[0] == sub) * 1e3
    metrics["cli.interp_ms"] = fresh_ms(INTERP_CODE, since_spawn=True)
    metrics["cli.import_ms"] = fresh_ms(IMPORT_CODE, since_spawn=False)
    notes.append(f"spans of the first traced pass: {spans.relative_to(ROOT)}")
    return untraced + traced, per_pass, metrics, notes, counts_agree


# ------------------------------------------------------------------ record


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="tiny: a few requests per workload, for the tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wresolve" / "__init__.py").is_file():
        print(f"no wresolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile once so no pass pays for it
    code, _, err = spawn([sys.executable, "-c", "import wresolve.cli, wresolve.sweeps"],
                         PASS_TIMEOUT_S)
    if code != 0:
        print(f"cannot import wresolve:\n{err}", file=sys.stderr)
        return 2

    record = run_record()
    if args.trace:
        passes, per_pass, metrics, notes, sound = measure_traced(
            args.workload, args.seed, args.scale)
    else:
        passes, per_pass, metrics, notes, sound = measure(
            args.workload, args.seed, args.seconds, args.scale)
    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    attempted, failed, details = tally(passes, per_pass)
    correct = sound and failed == 0 and bool(good(passes))

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "record": record, "args": vars(args), "metrics": metrics,
        "attempted": attempted, "failed": failed, "failures": details,
        "notes": notes, "passes": passes,
    }, indent=1))

    print(f"wresolve benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} scale={args.scale}")
    print("  " + "  ".join(f"{k}={v}" for k, v in record.items()))
    for note in notes:
        print(f"  {note}")
    width = max(map(len, metrics))
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {units[name]}")
    print(f"  {'failed_frac':<{width}}  {failed / max(attempted, 1):>14.6g}  "
          f"ratio ({failed} of {attempted} requests)")
    for detail in details:
        print(f"  FAILED {detail}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
