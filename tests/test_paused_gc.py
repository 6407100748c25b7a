"""The trace and chain walks, and one CLI request, run with the cyclic
collector paused, restore the collector's state and leave no cycles."""

import contextlib
import gc
import io
import json

import pytest

from wresolve import cli, traces
from wresolve.chains import O3CaseA, O3CaseB, chain_simulate, chain_stages_b
from wresolve.errors import ConstraintViolation, paused_gc
from wresolve.traces import FactorizationTrace, TraceStep, validate_trace

# a valid run of three steps (DivToPoint 3 -> 4, WExtraction 4 -> 3, Flop)
# that can be repeated: each step continues the depth the last one left
LOOP = (("DivToPoint", 3, 4), ("WExtraction", 4, 3), ("Flop", 3, 3))


def long_trace(n):
    return FactorizationTrace(TraceStep(*LOOP[i % 3]) for i in range(n))


# each walk on a small valid input
WALKS = {
    "validate_trace": lambda: validate_trace(long_trace(30)),
    "chain_simulate": lambda: chain_simulate(O3CaseA(5, 1, 2, frozenset({(2, 0)}))),
    "chain_stages_b": lambda: chain_stages_b(
        O3CaseB(5, 1, frozenset({(3, 0)}), frozenset({(1, 0)}))),
}


@contextlib.contextmanager
def collector(enabled):
    """The collector on or off for the block, and as it was afterwards."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def test_paused_gc_pauses_and_keeps_the_walk_names():
    with collector(True):
        assert paused_gc(gc.isenabled)() is False
        assert gc.isenabled()
    for walk in (chain_simulate, chain_stages_b, traces._check_run):
        assert walk.__module__ in ("wresolve.chains", "wresolve.traces")
        assert walk.__doc__ and walk.__wrapped__.__name__ == walk.__name__


def test_the_trace_walk_runs_with_the_collector_off():
    seen = []

    def steps():
        for step in long_trace(3).steps:
            seen.append(gc.isenabled())
            yield step

    with collector(True):
        valid, rows = traces._check_run(steps(), None, 0)
        assert gc.isenabled()
    assert valid and len(rows) == 3 and seen == [False] * 3


@pytest.mark.parametrize("name", sorted(WALKS))
def test_walks_restore_the_collector_state(name):
    walk = WALKS[name]
    with collector(True):
        assert walk()
        assert gc.isenabled()
    with collector(False):
        assert walk()
        assert not gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_walks_restore_the_collector_after_raising(enabled):
    with collector(enabled):
        with pytest.raises(ConstraintViolation):  # no pivot (2d, 0)
            chain_simulate(O3CaseA(3, 1, 2, frozenset({(2, 1)})))
        assert gc.isenabled() is enabled
        with pytest.raises(ConstraintViolation):  # x^0 z^0 falls at stage 1
            chain_stages_b(O3CaseB(3, 1, frozenset({(0, 0)})))
        assert gc.isenabled() is enabled
        with pytest.raises(KeyError):  # an unchecked kind, inside the walk
            traces._check_run([("Twist", 1, 1)], None, 0)
        assert gc.isenabled() is enabled


def test_cli_request_restores_the_collector_state():
    request = json.dumps({"steps": [{"kind": "Flop", "before": 3, "after": 3}]})
    for enabled in (True, False):
        with collector(enabled), contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["trace", request]) == 0
            assert gc.isenabled() is enabled
        assert json.loads(out.getvalue())["valid"] is True


def test_the_walks_and_a_request_leave_no_cycles():
    steps = [{"kind": k, "before": b, "after": a} for k, b, a in LOOP * 100]
    request = json.dumps({"steps": steps})
    sink = io.StringIO()

    def run():
        with contextlib.redirect_stdout(sink):
            assert cli.main(["trace", request]) == 0
        assert validate_trace(long_trace(10**4)).valid
        assert len(chain_simulate(O3CaseA(1001, 1, 2, frozenset({(2, 0)})))) == 1002
        case_b = O3CaseB(1001, 1, frozenset({(3, 0)}), frozenset({(1, 0)}))
        assert len(chain_stages_b(case_b)) == 1002

    with collector(True):
        run()  # imports and caches first: they are not what is measured
        gc.collect()
        run()
        assert gc.collect() == 0
