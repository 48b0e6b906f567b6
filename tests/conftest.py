"""Fixtures shared by the test modules: a fresh interpreter, and the
start-up facts that one such interpreter records."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvosc

# What a new process loads, in the order a user loads it: first the model
# modules alone, then the CLI, whose parser is built on the first call, then
# the checks and the solver.
STARTUP = """
import json, os, sys
solver = lambda: [m for m in ("scipy", "curvosc.numerics", "curvosc._lapack") if m in sys.modules]
import curvosc.crs, curvosc.higgs, curvosc.transform, curvosc.special_functions, curvosc.params
facts = {"after_models": solver()}
import curvosc.cli as cli
facts["after_cli"] = solver()
import curvosc.verify, curvosc._lapack as lapack
facts.update({"imported": [m for m in ("scipy", "scipy.linalg", "numpy.random",
                                       "numpy.polynomial") if m in sys.modules],
              "lapack_source": lapack.SOURCE,
              "parsers_at_import": cli._parser.cache_info().currsize,
              "heap_at_import": cli._steady_heap.cache_info().currsize})
for _ in range(2):
    cli.main(["potential", "--model", "higgs", "--output", os.devnull])
facts["parsers_built"] = cli._parser.cache_info().misses
facts["heap_set"] = cli._steady_heap.cache_info().misses
print(json.dumps(facts))
"""


def run_fresh_python(code, unset=()):
    """(stdout, stderr) of code run by a new interpreter, which has imported
    nothing yet and finds this checkout's curvosc, with the environment
    variables named in unset removed."""
    src = Path(curvosc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    for name in unset:
        env.pop(name, None)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout, done.stderr


@pytest.fixture(scope="session")
def fresh_python():
    return run_fresh_python


@pytest.fixture(scope="session")
def startup():
    """The start-up facts of STARTUP, from one fresh interpreter per test run."""
    return json.loads(run_fresh_python(STARTUP)[0])
