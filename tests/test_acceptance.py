"""Acceptance gate: one test per criterion, each printing a pass/fail line
with the measured value and its tolerance.  Run with `pytest -v -s
tests/test_acceptance.py` to see every line; the same checks back the
`curvosc verify` command.
"""

import json
import math

import pytest

from curvosc.cli import main
from curvosc.verify import CheckResult, _qes_measurements


@pytest.fixture(scope="session")
def verify_runs(tmp_path_factory):
    """Two genuine full `curvosc verify` runs, the QES cache cleared before
    each: [(exit code, report bytes), ...].  The criterion tests assert on
    the first report, the determinism test compares the two."""
    runs = []
    for name in ("first.json", "second.json"):
        _qes_measurements.cache_clear()   # force a genuine recomputation
        path = tmp_path_factory.mktemp("verify") / name
        runs.append((main(["verify", "--output", str(path)]), path.read_bytes()))
    return runs


def _suite_checks(verify_runs, suite_name: str) -> list[CheckResult]:
    """The checks of one suite in the first report (null = not finite)."""
    doc = json.loads(verify_runs[0][1])
    suite = next(s for s in doc["suites"] if s["suite"] == suite_name)

    def num(v):
        return math.inf if v is None else v

    return [CheckResult(suite_name, c["name"], c["passed"], num(c["measured"]),
                        num(c["tolerance"]), c["comparator"], c["detail"])
            for c in suite["checks"]]


def _run(verify_runs, number: int, title: str, suite_name: str):
    checks = _suite_checks(verify_runs, suite_name)
    gated = [c for c in checks if c.comparator != "report"]
    failed = [c for c in gated if not c.passed]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        if c.comparator == "report":
            print(f"ACCEPTANCE {number:02d} {title} :: {c.name}: "
                  f"measured {c.measured:.3e} (reported)")
        else:
            print(f"ACCEPTANCE {number:02d} {title} :: {status} {c.name}: "
                  f"{c.measured:.3e} {c.comparator} {c.tolerance:.3e}")
    assert not failed, (
        f"criterion {number} failed: "
        + "; ".join(f"{c.name} measured {c.measured:.3e} vs {c.tolerance:.3e}"
                    for c in failed))
    return checks


def test_criterion_01_higgs_spectrum(verify_runs):
    """Richardson-extrapolated radial eigenvalues match the closed-form
    spectrum to 1e-5 relative for lam in {0.1, 1}, (N, m') in {0,1,2}^2."""
    _run(verify_runs, 1, "higgs spectrum", "higgs-spectrum")


def test_criterion_02_crs_spectrum(verify_runs):
    """Line-model eigenvalues on the natural branch and on the wide domain
    match the closed-form spectrum to 1e-5; the wide domain adds interloper
    states beyond the tan pole, reported per channel."""
    _run(verify_runs, 2, "crs spectrum", "crs-spectrum")


def test_criterion_03_eigen_residual(verify_runs):
    """Closed-form eigenpairs satisfy the radial equation: max relative
    residual < 1e-6 on r in [0.05, 20] for 16 (N, m') pairs."""
    _run(verify_runs, 3, "eigen residual", "eigen-residual")


def test_criterion_04_transform_closure(verify_runs):
    """Mapping the special line potential produces exactly the plain
    oscillator: 1e-12 relative at 100 log-spaced radii, lam in {0.1, 1, 10},
    m'_Q in {0, 1, 2, 1/2}."""
    _run(verify_runs, 4, "transform closure", "transform-closure")


def test_criterion_05_wavefunction_map(verify_runs):
    """g(r) phi(x(r)) is proportional to the radial eigenfunction
    (std/|mean| < 1e-6) under the sin^2 convention; the plain-sin variant's
    eigen-equation residual is measured and reported."""
    checks = _run(verify_runs, 5, "wavefunction map", "wavefunction-map")
    printed = next(c for c in checks if c.name == "sin-as-printed-residual")
    squared = next(c for c in checks if c.name == "sin-squared-residual")
    # the evidence that settles the convention question
    assert printed.measured > 1e4 * squared.measured


def test_criterion_06_constraint_ode(verify_runs):
    """|K X'' + lam x X' - A X - B| < 1e-6 at 50 points for the special
    choice, the cos(l Theta) family with l in {1, 2, 3}, and sqrt(lam) x."""
    _run(verify_runs, 6, "constraint ODE", "constraint-ode")


def test_criterion_07_qes_certification(verify_runs):
    """(a) Rayleigh constancy of both closed-form ground states < 1e-6;
    (b) numerical ground eigenvalue in the matching channel within 1e-4 of
    the Rayleigh energy; (c) neighboring channels are not proportional to
    any closed-form candidate (deviation > 1e-2)."""
    _run(verify_runs, 7, "QES certification", "qes-certification")


def test_criterion_08_l2_reduction(verify_runs):
    """The l=2 member reduces to the plain oscillator: max |D| of the
    difference D = V_l=2 - (1/2) m w^2 r^2 is at most 1e-10 at 200 radii
    for m'_Q in {0, 1, 2, 1/2}."""
    _run(verify_runs, 8, "l=2 reduction", "l2-reduction")


def test_criterion_09_flat_limit(verify_runs):
    """At lam = 1e-8 the spectrum equals the flat 2D oscillator ladder
    within 1e-6 absolute."""
    _run(verify_runs, 9, "flat limit", "flat-limit")


def test_criterion_10_determinism(verify_runs):
    """Two consecutive full `verify --suite all` runs emit byte-identical
    reports."""
    for code, _ in verify_runs:
        assert code == 0, "verify run must pass all suites"
    outs = [report for _, report in verify_runs]
    identical = outs[0] == outs[1]
    print(f"ACCEPTANCE 10 determinism :: {'PASS' if identical else 'FAIL'} "
          f"byte-identical reports ({len(outs[0])} bytes)")
    assert identical


def test_module_invariant_suites(verify_runs):
    """The remaining module-level invariant suites all pass."""
    for name in ("special-functions", "crs-model", "higgs-model",
                 "transform-maps", "numerics-oracle", "determinism"):
        checks = _suite_checks(verify_runs, name)
        bad = [c for c in checks if not c.passed]
        assert not bad, f"suite {name}: {[c.name for c in bad]}"


# Every check of the report: suite -> [(name, comparator, tolerance)], in
# report order; None is the infinite tolerance of a report-only entry.  A
# gate may change only by editing this table, so a loosened gate or a
# dropped check shows in the diff.
GATES = {
    "higgs-spectrum": [
        ("lam=0.1-mprime=0", "<=", 1e-05),
        ("lam=0.1-mprime=1", "<=", 1e-05),
        ("lam=0.1-mprime=2", "<=", 1e-05),
        ("lam=1.0-mprime=0", "<=", 1e-05),
        ("lam=1.0-mprime=1", "<=", 1e-05),
        ("lam=1.0-mprime=2", "<=", 1e-05),
        ("planar-dirichlet-reference", "report", None),
    ],
    "crs-spectrum": [
        ("natural-lam=0.1-mprimeq=0", "<=", 1e-05),
        ("natural-lam=0.1-mprimeq=1", "<=", 1e-05),
        ("natural-lam=0.1-mprimeq=2", "<=", 1e-05),
        ("natural-lam=1.0-mprimeq=0", "<=", 1e-05),
        ("natural-lam=1.0-mprimeq=1", "<=", 1e-05),
        ("natural-lam=1.0-mprimeq=2", "<=", 1e-05),
        ("wide-lam=1-mprimeq=0", "<=", 1e-05),
        ("wide-lam=1-mprimeq=1", "<=", 1e-05),
        ("wide-lam=1-mprimeq=2", "<=", 1e-05),
    ],
    "eigen-residual": [
        ("all-16-pairs", "<=", 1e-06),
    ],
    "transform-closure": [
        ("lam=0.1", "<=", 1e-12),
        ("lam=1.0", "<=", 1e-12),
        ("lam=10.0", "<=", 1e-12),
    ],
    "wavefunction-map": [
        ("ratio-constancy", "<=", 1e-06),
        ("sin-squared-residual", "<=", 1e-06),
        ("sin-as-printed-residual", "report", None),
    ],
    "constraint-ode": [
        ("special-cos2theta", "<=", 1e-06),
        ("example1-l=1", "<=", 1e-06),
        ("example1-l=2", "<=", 1e-06),
        ("example1-l=3", "<=", 1e-06),
        ("example2-sqrt(lam)x", "<=", 1e-06),
    ],
    "qes-certification": [
        ("example1-rayleigh-constancy", "<=", 1e-06),
        ("example1-half-angle-constancy", "report", None),
        ("example2-rayleigh-constancy", "<=", 1e-06),
        ("example1-ground-eigenvalue", "<=", 1e-04),
        ("example2-ground-eigenvalue", "<=", 1e-04),
        ("example1-channel0-not-analytic", ">", 1e-02),
        ("example1-channel2-not-analytic", ">", 1e-02),
        ("example2-channel0-not-analytic", ">", 1e-02),
        ("example2-channel2-not-analytic", ">", 1e-02),
    ],
    "l2-reduction": [
        ("difference-mprimeq=0.0", "<=", 1e-10),
        ("difference-mprimeq=1.0", "<=", 1e-10),
        ("difference-mprimeq=2.0", "<=", 1e-10),
        ("difference-mprimeq=0.5", "<=", 1e-10),
    ],
    "flat-limit": [
        ("lam=1e-8", "<=", 1e-06),
    ],
    "special-functions": [
        ("theta-upsilon-identity", "<=", 1e-12),
        ("gudermannian-odd", "<=", 1e-15),
        ("gudermannian-increasing", "<=", 0.0),
    ],
    "crs-model": [
        ("general-vs-special-potential", "<=", 1e-09),
        ("beta-minus-gamma", "<=", 1e-12),
        ("mprimeq-roundtrip", "<=", 1e-12),
        ("omega-prime-vs-delta", "<=", 1e-12),
        ("spectrum-gap-closed-form", "<=", 1e-12),
    ],
    "higgs-model": [
        ("mprime-parity", "<=", 0.0),
        ("node-count-equals-N", "<=", 0.0),
        ("example1-both-routes", "<=", 1e-09),
        ("example2-both-routes", "<=", 1e-09),
    ],
    "transform-maps": [
        ("roundtrip", "<=", 1e-12),
        ("spectrum-preservation-bitwise", "<=", 0.0),
        ("g-modulus-at-1", "<=", 1e-14),
    ],
    "numerics-oracle": [
        ("flat-oscillator", "<=", 1e-06),
        ("convergence-order-low", ">", 1.8),
        ("convergence-order-high", "<=", 2.2),
        ("sturm-node-counts", "<=", 0.0),
        ("self-adjointness-certificates", "<=", 1e-08),
        ("dense-eigensolve-agreement", "<=", 1e-10),
    ],
    "determinism": [
        ("repeated-pipeline-bytes", "<=", 0.0),
    ],
}


def test_every_gate_is_pinned(verify_runs):
    """The report holds exactly the checks of GATES, in order, each with its
    comparator and tolerance."""
    doc = json.loads(verify_runs[0][1])
    found = {s["suite"]: [(c["name"], c["comparator"], c["tolerance"]) for c in s["checks"]]
             for s in doc["suites"]}
    assert list(found) == list(GATES)
    for suite, checks in GATES.items():
        assert found[suite] == checks, suite
