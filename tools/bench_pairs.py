"""Benchmark two checkouts in alternating pairs and sum the pairs up, or
compare their counts.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload verify \\
        --pairs 10 --seed 7 --seconds 30
    python3 tools/bench_pairs.py --parent DIR --change DIR --workload verify \\
        --seed 7 --counts [--expect chains.calls=1820 ...]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, each
checkout with its own copy of the benchmark, with the same workload, seed
and seconds.  Which side runs first alternates from pair to pair (the
parent first in pair 1), so drift in the machine's speed falls on both
sides alike.

For every end-to-end metric of the change's ``BENCHMARK.json`` it prints
each side's median and quartiles over its runs, and the pairs the change
wins: those where the change's value is better in the metric's direction.
A tie counts for neither side.  It also prints whether the medians differ,
in the change's favour, by more than the distance between the quartiles
of the parent's runs.  A gain in a metric may be claimed when the change
wins at least nine tenths of the pairs and that holds too.

Bytecode moves the numbers: where ``PYTHONDONTWRITEBYTECODE`` is set, a
checkout without ``src/wresolve/__pycache__`` compiles its sources in every
pass.  So the summary also states whether that variable is set and, after
the last pair, whether each checkout holds that directory, with a warning
when one checkout holds it and the other does not.

With ``--counts`` it runs ``perfbench/run.py --trace 1`` once in each
checkout instead, on the same workload and seed, pinned to one CPU (the
lowest this process may use), so that ``verify`` runs every sweep in the
traced process and its counts cover them all.  It prints every per-layer
metric of unit ``count`` whose value differs, as ``name parent → change
(delta)``.  Counts do not depend on the machine, so they settle what wall
times on a noisy host cannot.  ``--expect name=delta``, which may be
repeated, declares a move the change means to make.  A move nobody
declared, or one of another size than declared (a declared move that did
not happen included), is marked and fails the comparison.  So does a
count that only one run has, shown as ``name: only in parent`` or
``name: only in change``.

The exit status is 1 when a run is not ``correct`` or gives no result, or
when a count comparison fails, and 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
CLAIM_SHARE = 0.9


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    """Per end-to-end metric of spec (BENCHMARK.json's ``end_to_end``), the
    quartiles of each side and the change's wins over the pairs; each pair
    maps a side to the metrics of its run (name -> value)."""
    out = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        sign = 1 if lower else -1
        # gain > 0: the change's value is the better one
        gains = [sign * (p["parent"][name] - p["change"][name]) for p in pairs]
        stats = {side: dict(zip(("q1", "median", "q3"), _quartiles(values[side])))
                 for side in SIDES}
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        gain = sign * (stats["parent"]["median"] - stats["change"]["median"])
        wins = sum(g > 0 for g in gains)
        out[name] = {
            **stats,
            "unit": metric["unit"],
            "better": metric["better"],
            "pairs": len(pairs),
            "wins": wins,
            "losses": sum(g < 0 for g in gains),
            "median_gain": gain,
            "parent_iqr": iqr,
            "claimable": wins >= CLAIM_SHARE * len(pairs) and gain > iqr,
        }
    return out


def format_summary(summary: dict) -> list[str]:
    lines = []
    for name, s in summary.items():
        lines.append(f"{name} ({s['unit']}, {s['better']} is better)")
        for side in SIDES:
            q = s[side]
            lines.append(f"  {side:<6}  median {q['median']:.6g}  "
                         f"q1 {q['q1']:.6g}  q3 {q['q3']:.6g}")
        ties = s["pairs"] - s["wins"] - s["losses"]
        verdict = "a gain may be claimed" if s["claimable"] else "no gain to claim"
        lines.append(f"  change wins {s['wins']} of {s['pairs']} pairs "
                     f"({s['losses']} lost, {ties} tied); median gain "
                     f"{s['median_gain']:.6g} against parent IQR "
                     f"{s['parent_iqr']:.6g}: {verdict}")
    return lines


def bytecode_lines(dirs: dict[str, Path]) -> list[str]:
    """The bytecode setting of the runs: whether PYTHONDONTWRITEBYTECODE is
    set and whether each checkout holds src/wresolve/__pycache__, plus a
    warning when the two checkouts differ in the latter."""
    setting = "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "not set"
    held = {side: (dirs[side] / "src" / "wresolve" / "__pycache__").is_dir()
            for side in SIDES}
    lines = [f"PYTHONDONTWRITEBYTECODE {setting}"]
    lines += [f"  {side:<6}  src/wresolve/__pycache__ "
              f"{'present' if held[side] else 'absent'}" for side in SIDES]
    if held["parent"] != held["change"]:
        lines.append("warning: the checkouts differ in src/wresolve/__pycache__, "
                     "so one of them may compile its sources in every pass")
    return lines


def _exact(value):
    """A count as an int when it is whole, so it prints without a point."""
    return int(value) if float(value).is_integer() else value


def _counts(metrics: dict) -> dict:
    """The metrics of unit ``count``, name -> value."""
    return {name: _exact(m["value"]) for name, m in metrics.items()
            if m["unit"] == "count"}


def count_diff(parent: dict, change: dict, expected: dict) -> tuple[list[str], bool]:
    """The lines of every count (a metric of unit ``count``) whose value
    differs between the metrics of two runs, or whose move expected (name
    -> delta) declares, or that only one run has, and whether each count
    moved exactly as declared; a count only one run has never is."""
    before, after = _counts(parent), _counts(change)
    lines, ok = [], True
    for name in after | before:  # the change's order, then the parent's
        if name not in before or name not in after:
            ok = False
            lines.append(f"{name}: only in {'change' if name in after else 'parent'}")
            continue
        old, new = before[name], after[name]
        delta, want = new - old, expected.get(name, 0)
        if delta == 0 and name not in expected:
            continue
        line = f"{name} {old} → {new} ({delta:+})"
        if delta != want:
            ok = False
            line += f"  expected {want:+}" if name in expected else "  UNDECLARED"
        lines.append(line)
    for name in sorted(expected.keys() - after.keys() - before.keys()):
        ok = False
        lines.append(f"{name}: no such count")
    return lines, ok


def compare_counts(dirs: dict[str, Path], workload: str, seed: int,
                   expected: dict) -> int:
    """One traced run per checkout and the verdict on their counts."""
    runs = {side: run_once(dirs[side], workload, seed, 1, trace=1) for side in SIDES}
    sound = True
    for side in SIDES:
        if "error" in runs[side] or not runs[side].get("correct"):
            sound = False
            print(f"{side} FAILED {runs[side].get('error', runs[side])}")
    ok, compared = False, 0
    if all("metrics" in runs[side] for side in SIDES):
        change = runs["change"]["metrics"]
        lines, ok = count_diff(runs["parent"]["metrics"], change, expected)
        compared = sum(m["unit"] == "count" for m in change.values())
        print("\n".join(lines) or "no count moved")
    print(f"{workload} seed {seed}, {compared} counts: " + (
        "every count as declared" if ok else "counts differ from the declared moves"))
    return 0 if sound and ok else 1


def _expectation(text: str) -> tuple[str, int]:
    """NAME=DELTA as (name, delta); a count moves by a whole number."""
    name, _, delta = text.partition("=")
    try:
        if name:
            return name, int(delta)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not name=delta: {text!r}")


def _one_cpu():
    """Pin the calling process to the lowest CPU it may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run in a checkout, a traced one pinned to one CPU: its
    last stdout line, parsed, or an ``error`` entry when it gives none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          preexec_fn=_one_cpu if trace else None)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--counts", action="store_true",
                        help="compare the counts of one traced run per checkout")
    parser.add_argument("--expect", type=_expectation, action="append", default=[],
                        metavar="NAME=DELTA", help="a count move the change makes")
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent, "change": args.change}
    if args.counts:
        return compare_counts(dirs, args.workload, args.seed, dict(args.expect))
    if args.expect:
        parser.error("--expect needs --counts")
    if args.pairs is None or args.seconds is None:
        parser.error("--pairs and --seconds are needed without --counts")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    pairs, sound = [], True
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs = {side: run_once(dirs[side], args.workload, args.seed, args.seconds)
                for side in order}
        shown = []
        for side in SIDES:
            run = runs[side]
            if "error" in run or not run.get("correct"):
                sound = False
                shown.append(f"{side} FAILED {run.get('error', run)}")
            else:
                shown.append(f"{side} " + " ".join(
                    f"{m['name']}={run['metrics'][m['name']]['value']:.6g}"
                    for m in spec))
        print(f"pair {i + 1} ({order[0]} first): " + "; ".join(shown), flush=True)
        if all("metrics" in runs[side] for side in SIDES):
            pairs.append({side: {k: v["value"] for k, v in runs[side]["metrics"].items()}
                          for side in SIDES})
    if pairs:
        print("\n".join(format_summary(summarize(pairs, spec))))
    print("\n".join(bytecode_lines(dirs)))
    if not sound:
        print("a run was not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
