"""Deliberate defects that named verify checks must catch: each mutation
runs the suite it targets and asserts which of its checks fail."""

import dataclasses

from curvosc import higgs
from curvosc.crs import QesSpec
from curvosc.verify import run_suites


def failed(suite):
    return sorted(c.name for c in run_suites([suite]) if not c.passed)


def test_constraint_ode_reads_a_from_the_spec(monkeypatch):
    example1 = QesSpec.example1

    def off_by_1e_4(cls, l, mprime_q, params):
        spec = example1(l, mprime_q, params)
        return dataclasses.replace(spec, A=spec.A * (1 + 1e-4))

    monkeypatch.setattr(QesSpec, "example1", classmethod(off_by_1e_4))
    assert failed("constraint-ode") == ["example1-l=1", "example1-l=2", "example1-l=3"]


def test_l2_reduction_gates_the_difference(monkeypatch):
    potential = higgs.qes_example1_potential
    monkeypatch.setattr(higgs, "qes_example1_potential",
                        lambda *args: potential(*args) + 1e-6)
    assert failed("l2-reduction") == [f"difference-mprimeq={mq}"
                                      for mq in (0.0, 0.5, 1.0, 2.0)]
