"""Seeded inputs and output checks for the three benchmark workloads.

An op is one ``curvosc.cli.main(argv)`` call.  A pass is the fixed set of
configurations a workload cycles through, in an order drawn from the seed,
so every pass does the same kind and amount of work whatever the seed.  A
run is a fixed number of passes, set by ``passes_per_run`` from the run
length, so a given run length always attempts the same ops.  The closed
form used by the checks is written out here rather than imported from
curvosc, so the check stays independent of the code it checks.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("verify-all", "spectrum-deep", "qes-channels")

# Best time of one pass, with the reference-kernel runs between its ops
# (see run.py), on a 2-core Xeon VM.  A run does as many passes as fill
# WORK_SHARE of its --seconds at these times, leaving room for set-up and
# for contention from other tenants.
NOMINAL_PASS_S = {"verify-all": 8.0, "spectrum-deep": 2.3, "qes-channels": 4.25}
WORK_SHARE = 0.8

# The QES workload takes lambda from this fixed grid, one value per pass,
# rather than drawing it: the near-gate configurations below pass or fail
# depending on lambda in no monotone way, so drawn values would make the
# number of failed ops differ from seed to seed.  The grid spans [0.5, 1],
# keeps every near-gate error at least 10 % away from QES_GATE, and makes
# each near-gate configuration fail at one or more of its values.
QES_LAMBDAS = (0.5, 0.65, 0.7, 0.8, 0.9, 1.0)

SPECTRUM_GATE = 1e-5      # verify's gate for the higgs/crs spectrum checks
QES_GATE = 1e-4           # verify's gate for the QES ground eigenvalue
ANALYTIC_ROUNDOFF = 1e-12

# QES configurations (model, l, m'_Q) whose N = 0 eigenvalue is known to
# miss the closed form at QES_GATE.  The first four miss it by 4 % to
# 170 % at every lambda in [0.5, 1]; the last three sit near the gate and
# miss it only at some lambda.  On QES_LAMBDAS they fail at 0.9 and 1.0
# (qes1 l=4 m'_Q=2), at 0.7 (qes2 m'_Q=1) and at 0.8, 0.9 and 1.0 (qes2
# m'_Q=2), so 30 of the 54 ops in six passes fail.  Measured on the parent
# commit of the benchmark; the likely cause is the origin closure of the
# channel problem.
KNOWN_WRONG = {("qes1", 3, 0), ("qes1", 4, 0), ("qes1", 4, 1), ("qes2", None, 0)}
NEAR_GATE = {("qes1", 4, 2), ("qes2", None, 1), ("qes2", None, 2)}


@dataclass(frozen=True)
class Op:
    """One CLI call plus what its check needs to know."""

    argv: tuple
    model: str | None = None
    lam: float = 1.0
    omega: float = 1.0
    n_max: int = 2
    mprime_max: int = 0
    l: int | None = None
    mprime_q: int = 0

    @property
    def key(self) -> str:
        """The op's configuration: its argv without the drawn parameters.
        Every pass runs each key of its workload once."""
        drawn = {"--lambda", "--omega"}
        return " ".join(a for i, a in enumerate(self.argv)
                        if a not in drawn and self.argv[i - 1] not in drawn)

    @property
    def known_defect(self) -> bool:
        config = (self.model, self.l, self.mprime_q)
        return config in KNOWN_WRONG or config in NEAR_GATE


def closed_form_energy(N: int, mprime: float, lam: float, omega: float) -> float:
    """E = w' n + (lam/2) n^2, n = 2N + |m'| + 1, w' = sqrt(omega^2 + lam^2/4)
    in units hbar = m = 1; the spectrum of both the higgs and crs models."""
    n = 2 * N + abs(mprime) + 1
    return math.sqrt(omega * omega + lam * lam / 4) * n + lam / 2 * n * n


def _spectrum_op(rng: random.Random, model: str, n_max: int, mprime_max: int) -> Op:
    lam = 10 ** rng.uniform(-1.0, 0.0)
    omega = rng.uniform(0.5, 2.0)
    argv = ("spectrum", "--model", model, "--lambda", repr(lam), "--omega", repr(omega),
            "--n-max", str(n_max), "--mprime-max", str(mprime_max))
    return Op(argv, model, lam, omega, n_max, mprime_max)


def _qes_op(lam: float, model: str, l: int | None, mprime_q: int) -> Op:
    argv = ("spectrum", "--model", model, "--mprime-q", str(mprime_q), "--lambda", repr(lam))
    if l is not None:
        argv += ("--l", str(l))
    return Op(argv, model, lam, l=l, mprime_q=mprime_q)


def make_pass(workload: str, rng: random.Random, index: int) -> list[Op]:
    """Pass number index of a workload, drawing its order and parameters from rng."""
    if workload == "verify-all":
        from curvosc.verify import ALL_SUITE_NAMES
        suites = list(ALL_SUITE_NAMES)
        rng.shuffle(suites)
        return [Op(("verify", "--suite", suite)) for suite in suites]
    if workload == "spectrum-deep":
        models = ["higgs", "crs"]
        rng.shuffle(models)
        return [_spectrum_op(rng, m, 49, 1) for m in models]
    if workload == "qes-channels":
        configs = [(m, l, mq) for m, l in (("qes1", 3), ("qes1", 4), ("qes2", None))
                   for mq in (0, 1, 2)]
        rng.shuffle(configs)
        return [_qes_op(QES_LAMBDAS[index % len(QES_LAMBDAS)], *c) for c in configs]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def passes(workload: str, seed: int):
    """Endless deterministic sequence of passes for (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        yield make_pass(workload, rng, index)
        index += 1


def passes_per_run(workload: str, seconds: float) -> int:
    """Number of passes in a run of the given length.  At least 4: each
    configuration contributes its best time out of its ops in the run, and
    fewer than four leaves that best time as noisy as the neighbours."""
    return max(4, round(WORK_SHARE * seconds / NOMINAL_PASS_S[workload]))


class Checker:
    """Checks op outputs.  Keeps the first verify report of each suite in a
    run so that every later report of that suite must match it byte for
    byte."""

    def __init__(self):
        self.verify_reference: dict[str, bytes] = {}

    def check(self, op: Op, output: bytes) -> tuple[bool, float | None, str]:
        """(passed, worst relative error against the closed form, note)."""
        if op.argv[0] == "verify":
            return self._check_verify(op, output)
        doc = json.loads(output)
        if op.model in ("higgs", "crs"):
            return self._check_spectrum(op, doc)
        return self._check_qes(op, doc)

    def _check_verify(self, op: Op, output: bytes):
        reference = self.verify_reference.setdefault(op.key, output)
        if output != reference:
            return False, None, "report differs from the first pass"
        doc = json.loads(output)
        if doc["passed"] is not True or doc["n_failed"] != 0:
            return False, None, f"{doc['n_failed']} failed check(s)"
        errs = [c["measured"] for s in doc["suites"]
                if s["suite"] in ("higgs-spectrum", "crs-spectrum")
                for c in s["checks"] if c["comparator"] == "<="]
        return True, max(errs, default=None), f"{doc['n_checks']} checks passed"

    def _check_spectrum(self, op: Op, doc: dict):
        expected = [(N, mp) for mp in range(op.mprime_max + 1) for N in range(op.n_max + 1)]
        got = [(row[0], row[1]) for row in doc["rows"]]
        if got != expected:
            return False, None, f"rows {got} differ from {expected}"
        worst = 0.0
        for N, mp, e_analytic, e_numeric, _ in doc["rows"]:
            exact = closed_form_energy(N, mp, op.lam, op.omega)
            if abs(e_analytic - exact) > ANALYTIC_ROUNDOFF * exact:
                return False, None, f"E_analytic {e_analytic} != closed form {exact} at N={N}"
            worst = max(worst, abs(e_numeric - exact) / exact)
        if worst > SPECTRUM_GATE:
            return False, worst, f"relative error {worst:.3e} above {SPECTRUM_GATE:g}"
        return True, worst, f"{len(expected)} rows within {SPECTRUM_GATE:g}"

    def _check_qes(self, op: Op, doc: dict):
        rows = doc["rows"]
        if [row[0] for row in rows] != list(range(op.n_max + 1)):
            return False, None, f"rows {rows} are not N = 0..{op.n_max}"
        exact = closed_form_energy(0, op.mprime_q, op.lam, op.omega)
        rel = abs(rows[0][3] - exact) / exact
        if rel > QES_GATE:
            return False, rel, f"N=0 relative error {rel:.3e} above {QES_GATE:g}"
        return True, rel, f"N=0 within {QES_GATE:g}"
