"""Entry points: ``python -m wresolve`` and verify's exit code when a sweep
checks no case."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wresolve
from wresolve.cli import main

GERM = '{"r":5,"beta":2,"support":[[0,2],[1,1]]}'
QUICK = [
    "--cyclic-max", "6", "--germ-r-max", "3", "--rr-max", "10",
    "--en-r-max", "15", "--semi-max", "8", "--iib-max", "11", "--o3-cases", "5",
]


def test_python_dash_m():
    src = str(Path(wresolve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "wresolve", "depth", GERM],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"dep": 9, "exact": True}


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_fails_a_sweep_with_no_cases(capsys, count):
    code = main(["verify", *QUICK, "--trace-count", count])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2
    assert lines[-1].startswith("[FAIL] trace-rule-metamorphic: 0 cases")
    assert lines[-1].endswith("no cases checked")
    assert all(ln.startswith("[PASS]") for ln in lines[:-1])
