"""One pass of one workload, in the fresh interpreter that runs this file.

    python3 perfbench/worker.py <workload> <seed> <scale> <mode> [spans.json.gz]

with ``src`` on PYTHONPATH.  ``mode`` is ``plain`` (untraced), ``traced``
(spans and counts, see tracer.py), ``inprocess`` (the cli requests
through ``cli.main`` in this interpreter, untraced) or ``setup`` (set-up
only, one more set-up time sample).  Prints one JSON
line: the perf_counter value at the first measured call (the parent
turns it into set-up time), the measured wall time, peak RSS and every
request's outcome.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import workloads
from tracer import Tracer

SWEEP_FUNCTIONS = (
    "sweep_cyclic_depth", "sweep_germ_depth", "sweep_residual_recursion",
    "sweep_rr_bounds", "check_e11", "sweep_en_exceptional",
    "sweep_en_semistable", "sweep_en_iib", "sweep_o3_chains",
    "sweep_trace_rules",
)
# spans that open a new request id, per workload
REQUEST_ROOTS = {
    "verify": tuple(f"sweeps.{name}" for name in SWEEP_FUNCTIONS),
    "large-inputs": ("germs.depth_search", "germs.depth_formula",
                     "baskets.normalize_cyclic", "chains.chain_simulate",
                     "chains.chain_stages_b", "traces.validate_trace"),
    "cli": ("cli.main",),
}


def run_pass(name: str, seed: int, scale: str, mode: str, spans_path=None) -> dict:
    workload = workloads.make(name, scale)
    tracer = None
    if mode in ("inprocess", "traced"):
        # in-process requests must not pay for the import inside the
        # measured phase, and the tracer wraps every layer, cli included
        import wresolve
        import wresolve.cli  # noqa: F401
        import wresolve.sweeps  # noqa: F401
    if mode == "traced":
        tracer = Tracer(REQUEST_ROOTS[name])
        tracer.install(wresolve)
    state = workload.prepare(seed, scale)
    t_first = time.perf_counter()
    if mode == "setup":
        outcomes = []
    elif name == "cli" and mode != "plain":
        outcomes = workload.run_in_process(state)
    else:
        outcomes = workload.run(state)
    wall = time.perf_counter() - t_first
    result = {
        "t_first": t_first,
        "wall_s": wall,
        "rss_kb": state.get("children_rss_kb")
        or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outcomes": [[o.tag, o.seconds, o.ok, o.detail] for o in outcomes],
    }
    if name == "verify" and outcomes:
        result["sweeps"] = workload.sweep_metrics(state)
    if tracer is not None:
        result["counts"] = tracer.counts()
        result["layers"] = tracer.layer_metrics()
        if spans_path:
            tracer.write_spans(spans_path)
    return result


def main(argv) -> int:
    name, seed, scale, mode = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    print(json.dumps(run_pass(name, int(seed), scale, mode, spans_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
