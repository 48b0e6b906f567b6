"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--seed N]

For every workload it runs the first pass twice, traced, in one process
and checks that
  * every count metric repeats exactly from one pass to the next;
  * the layers the workload was chosen to stress have non-zero counts;
  * the layers' self times add up to the traced wall time;
  * every op passed its output check or is a recorded known defect.
On verify-all it also checks that verify's QES work is redone in the second
pass: the assemble calls under the qes-certification span must be equal in
both passes, and its time must not collapse.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT, SRC, traced_pass
from workloads import WORKLOADS, Checker, passes

STRESSED = {
    "verify-all": ("verify.checks", "numerics.residual.calls", "numerics.rayleigh.calls",
                   "transform.calls", "special_functions.calls", "crs.calls", "higgs.calls"),
    "spectrum-deep": ("numerics.assemble.calls", "numerics.eigensolve.pairs",
                      "numerics.richardson.calls"),
    "qes-channels": ("higgs.calls", "special_functions.calls", "params.calls",
                     "numerics.rayleigh.calls"),
}
SELF_SUM_TOLERANCE = 0.01


def suite_assemble_calls(tracer, suite: str) -> tuple[int, float]:
    """(assemble calls under the suite's span, the span's duration)."""
    kids = tracer.children()
    roots = [i for i, s in enumerate(tracer.spans) if tracer.suite_of.get(s[1]) == suite]
    calls, seconds, todo = 0, 0.0, list(roots)
    for i in roots:
        seconds += tracer.spans[i][3] - tracer.spans[i][2]
    while todo:
        i = todo.pop()
        calls += tracer.spans[i][0] == "numerics.assemble"
        todo.extend(kids[i])
    return calls, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="self-test of the benchmark's tracing")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import curvosc.verify
    from layers import layer_metrics
    suites = curvosc.verify.ALL_SUITE_NAMES
    failures = []

    def check(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    try:
        for workload in WORKLOADS:
            ops = next(passes(workload, args.seed))
            checker = Checker()
            runs = [traced_pass(ops, tmp, checker) for _ in range(2)]
            metrics = [layer_metrics(tracer, suites, 0.0) for tracer, _, _ in runs]
            changed = [name for name, (value, unit) in metrics[0].items()
                       if unit == "count" and metrics[1][name][0] != value]
            check(not changed, f"{workload}: counts repeat across two traced passes {changed}")
            for name in STRESSED[workload]:
                check(metrics[0][name][0] > 0,
                      f"{workload}: {name} = {metrics[0][name][0]} is non-zero")
            for tracer, result, wall in runs:
                total = sum(tracer.self_s.values())
                check(abs(total - wall) <= SELF_SUM_TOLERANCE * wall,
                      f"{workload}: self times sum to {total:.4f} s of {wall:.4f} s traced wall")
                bad = [op["argv"] for op in result["ops"]
                       if not op["passed"] and not op["known_defect"]]
                check(not bad, f"{workload}: ops pass or are known defects {bad}")
            if workload == "verify-all":
                (c1, s1), (c2, s2) = (suite_assemble_calls(t, "qes-certification")
                                      for t, _, _ in runs)
                check(c1 == c2 > 0, f"qes-certification assemble calls {c1} then {c2}")
                check(s2 > 0.5 * s1, f"qes-certification span {s1:.3f} s then {s2:.3f} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
