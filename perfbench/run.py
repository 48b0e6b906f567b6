"""curvosc benchmark: runs the public CLI entry point in-process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n>

Ops run one at a time (closed loop, one client) in this process; each
writes its document through ``--output`` to a temp file that is parsed and
checked.  With ``--trace 0`` a run makes the number of passes that fills
``--seconds`` at the nominal pass time and prints the end-to-end metrics;
with ``--trace 1`` the first pass runs once untraced and once traced, and
the per-layer metrics are printed.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  ``--workload all`` runs every
workload in a fresh process, traced and untraced, and prints a summary.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from workloads import WORKLOADS, Checker, passes, passes_per_run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 7

SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import curvosc.cli, workloads; "
              "next(workloads.passes(sys.argv[3], int(sys.argv[4])))")


def benchmark_spec() -> dict | None:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else None


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def machine_record(args, loadavg) -> dict:
    import numpy
    import scipy
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit,
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "loadavg_start": loadavg, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes
    maps = Path("/proc/self/maps").read_text()
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def run_op(op, tmp: Path, checker: Checker) -> dict:
    """One cli.main call, timed, with its output checked."""
    import curvosc.cli
    import curvosc.verify
    out = tmp / "out.json"
    out.unlink(missing_ok=True)
    if op.argv[0] == "verify":
        # verify caches the QES solves per process; a CLI user pays for them
        curvosc.verify._qes_measurements.cache_clear()
    start, cpu = time.perf_counter(), time.process_time()
    try:
        rc = curvosc.cli.main([*op.argv, "--output", str(out)])
        status = "ok" if rc == 0 else f"exit {rc}"
    except SystemExit as exc:
        status = f"exit {exc.code}"
    except Exception as exc:  # the loop must go on; the op counts as failed
        status = f"raised {type(exc).__name__}: {exc}"
    ms = 1e3 * (time.perf_counter() - start)
    cpu_ms = 1e3 * (time.process_time() - cpu)
    result = {"argv": list(op.argv), "key": op.key, "ms": ms, "cpu_ms": cpu_ms,
              "passed": False, "rel_err": None, "known_defect": op.known_defect, "note": status}
    if status == "ok":
        try:
            ok, rel, note = checker.check(op, out.read_bytes())
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            ok, rel, note = False, None, f"unreadable output: {exc!r}"
        result.update(passed=ok, rel_err=rel, note=note)
    return result


def run_pass(ops, tmp: Path, checker: Checker) -> dict:
    wall, cpu = time.perf_counter(), time.process_time()
    results = [run_op(op, tmp, checker) for op in ops]
    return {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu,
            "ops": results}


def setup_once(workload: str, seed: int) -> float:
    """Time for a fresh interpreter to import curvosc and make the inputs."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload,
                    str(seed)], check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Reference:
    """A fixed kernel with the program's mix of work (a Python loop, numpy
    element-wise maths on an 8001-point grid, LAPACK tridiagonal eigensolves)
    and nothing of curvosc in it.  Its time tracks how fast this machine
    runs at the moment, which on a shared host swings by up to 2x within
    seconds; each op is scaled by the kernel runs just before and after it."""

    NOMINAL_S = 0.050   # its median time on a 2-core Xeon VM

    def __init__(self):
        import numpy as np
        from scipy.linalg import eigh_tridiagonal
        self.np, self.eigh = np, eigh_tridiagonal
        self.x = np.linspace(0.01, 3.0, 8001)
        self.diag, self.off = 2.0 + self.x ** 2, -np.ones(8000)

    def seconds(self) -> float:
        np, x = self.np, self.x
        start = time.perf_counter()
        acc = 0.0
        for i in range(60000):
            acc += (i * 0.5) ** 0.5
        for _ in range(60):
            (np.exp(-x) * np.sin(x) / (1.0 + x * x)).sum()
        for _ in range(3):
            self.eigh(self.diag, self.off, select="i", select_range=(0, 2))
        return time.perf_counter() - start


def best_sum(ops, field: str, scaled: bool) -> float:
    """Sum over the op configurations of the fastest op of each, in seconds:
    the time of one pass at the best speed the run saw for every
    configuration.  scaled divides each op by its reference-kernel time
    first and gives the result at the kernel's nominal speed."""
    best = {}
    for r in ops:
        value = r[field] / r["ref_ms"] * Reference.NOMINAL_S * 1e3 if scaled else r[field]
        best[r["key"]] = min(best.get(r["key"], math.inf), value)
    return sum(best.values()) / 1e3


def timed_run(args, tmp: Path, checker: Checker):
    n_passes = passes_per_run(args.workload, args.seconds)
    gen = passes(args.workload, args.seed)
    reference = Reference()
    ops, pass_s, setups = [], [], []
    before = reference.seconds()
    for i in range(n_passes):
        start = len(ops)
        for op in next(gen):
            result = run_op(op, tmp, checker)
            after = reference.seconds()
            result["ref_ms"] = 1e3 * (before + after) / 2
            before = after
            ops.append(result)
        pass_s.append(sum(r["ms"] for r in ops[start:]) / 1e3)
        # set-up samples are spread over the run, between passes
        due = SETUP_REPEATS * (i + 1) // n_passes
        if len(setups) < due:
            setups += [setup_once(args.workload, args.seed) for _ in range(due - len(setups))]
            before = reference.seconds()
    ms = sorted(r["ms"] for r in ops)
    metrics = {
        "wall_norm_s": (best_sum(ops, "ms", scaled=True), "s"),
        "cpu_norm_s": (best_sum(ops, "cpu_ms", scaled=True), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (best_sum(ops, "ms", scaled=False), "s"),
        "cpu_s": (best_sum(ops, "cpu_ms", scaled=False), "s"),
        "pass_p50_s": (statistics.median(pass_s), "s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "ref_p50_ms": (statistics.median(r["ref_ms"] for r in ops), "ms"),
    }
    n = len(ms)
    if n >= 100:
        metrics["op_p90_ms"] = (statistics.quantiles(ms, n=10)[8], "ms")
        print(f"op_p90_ms from {n} ops")
    elif n > 10:
        print(f"op_p90_ms not reported: {n} ops, fewer than 10 beyond p90; "
              f"p{100 * (n - 10) // n} = {ms[n - 11]:.6g} ms has 10 of {n} beyond it")
    else:
        print(f"op_p90_ms not reported: {n} ops")
    failed = [r for r in ops if not r["passed"]]
    metrics["fail_frac"] = (len(failed) / n, "ratio")
    print(f"failures: {len(failed)} of {n} ops, "
          f"{sum(r['known_defect'] for r in failed)} on recorded known-defect configurations")
    errs = [r["rel_err"] for r in ops if r["passed"] and r["rel_err"] is not None]
    metrics["max_rel_err"] = (max(errs) if errs else float("nan"), "ratio")
    print(f"passes {n_passes}, ops {n}, set-ups {len(setups)}")
    return metrics, ops, []


def traced_pass(ops, tmp: Path, checker: Checker):
    """One pass with every curvosc layer traced: (tracer, pass result, wall s)."""
    from layers import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        result = tracer.wrap(run_pass, "bench")(ops, tmp, checker)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, result, wall


def traced_run(args, tmp: Path, checker: Checker):
    import curvosc.verify
    from layers import layer_metrics
    ops = next(passes(args.workload, args.seed))
    plain = run_pass(ops, tmp, checker)
    tracer, traced, wall = traced_pass(ops, tmp, checker)
    metrics = layer_metrics(tracer, curvosc.verify.ALL_SUITE_NAMES,
                            traced["wall_s"] - plain["wall_s"])
    self_s = tracer.self_s
    for key in ("bench", "verify", "numerics.other", "params"):
        metrics[f"{key}.self_s"] = (self_s[key], "s")
    metrics["trace.self_sum_s"] = (sum(self_s.values()), "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["untraced.wall_s"] = (plain["wall_s"], "s")
    return metrics, plain["ops"] + traced["ops"], tracer.spans


def run_workload(args) -> int:
    loadavg = list(os.getloadavg())
    if not (SRC / "curvosc" / "__init__.py").is_file():
        return fail(f"no curvosc sources under {SRC}; run from a curvosc checkout")
    spec = benchmark_spec()
    if spec is None:
        return fail(f"no BENCHMARK.json in {ROOT}")
    sys.path.insert(0, str(SRC))
    import curvosc.cli  # noqa: F401  (import errors should stop the run here)
    record = machine_record(args, loadavg)
    print("record " + json.dumps(record))
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        run = traced_run if args.trace else timed_run
        metrics, ops, spans = run(args, tmp, Checker())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for r in ops:
        verdict = "pass" if r["passed"] else ("FAIL known-defect" if r["known_defect"] else "FAIL")
        rel = "" if r["rel_err"] is None else f" rel_err={r['rel_err']:.3e}"
        print(f"op {verdict} {r['ms']:.1f} ms{rel} [{' '.join(r['argv'])}] {r['note']}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    failed = sum(not r["passed"] for r in ops)
    # a known defect may miss its gate, but must still run and give a checkable answer
    correct = all(r["passed"] or (r["known_defect"] and r["rel_err"] is not None) for r in ops)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                          for m in declared}}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"record": record, "result": result, "ops": ops,
                                        "metrics": metrics, "spans": spans}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return fail(f"{workload} --trace {trace} exited {proc.returncode}")
            lines = proc.stdout.splitlines()
            rows.append((workload, trace, json.loads(lines[-1]),
                         [line for line in lines if line.startswith("metric ")]))
    print("\nsummary")
    for workload, trace, result, lines in rows:
        if trace == 0:
            print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
        for line in lines:
            if trace == 0 or line.startswith("metric trace.overhead_s"):
                print("  " + line)
    return 0


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=spec["run_seconds"] if spec else 20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
