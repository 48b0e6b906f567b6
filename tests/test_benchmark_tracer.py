"""The package side of the benchmark's layer tracer, perfbench/layers.py.

The tracer wraps the public functions of each curvosc module and reads
the layers from their names and nesting: the fine-grid share of a
Richardson pair is the second lowest_eigenvalues span under each
richardson_eigenvalues span, and eigensolves are the calls of
numerics.eigh_tridiagonal.  This test loads the tracer read-only from its
file and runs one command of each benchmark workload under it."""

import importlib.util
from pathlib import Path

from curvosc import cli

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

COMMANDS = [
    ["spectrum", "--model", "higgs", "--n-max", "2", "--mprime-max", "0"],
    ["verify", "--suite", "numerics-oracle"],
    ["spectrum", "--model", "qes2", "--mprime-q", "1"],
]


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_each_layer_it_reports(tmp_path):
    layers = load_layers()
    tracer = layers.Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(COMMANDS):
            assert cli.main(argv + ["--output", str(tmp_path / f"{i}.json")]) == 0
    finally:
        tracer.uninstall()
    metrics = {name: value for name, (value, _) in
               layers.layer_metrics(tracer, (), 0.0).items()}
    assert metrics["numerics.richardson.calls"] > 0
    assert 0 < metrics["numerics.richardson.fine_share"] < 1
    assert metrics["numerics.eigensolve.calls"] > 0
    assert metrics["numerics.rayleigh.calls"] > 0
