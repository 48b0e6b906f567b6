"""Command-line front end emitting machine-readable tables.

Commands: spectrum, potential, wavefunction, verify, transform-check.
Output is JSON (default; the only form of verify) or CSV, written to
--output or stdout, with deterministic float formatting (17 significant
digits, lowercase e), so identical configurations produce byte-identical
files.  Units default to hbar = m = 1 with omega and lambda free.  The
spectrum rows are verify.spectrum's; this module checks flags and formats.

Exit codes: 0 success, 1 configuration error, 2 verify-suite failure.  An
error is one line, `error: <message> (<flags>)`: the flags of the inputs
that a CurvoscError blames, which this module alone names.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import cache

# no command calls a threaded BLAS routine: one thread, unless the user set it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import crs, higgs, transform
from .errors import NegativeRadiusError, PrecisionLossError, SingularPointError, UnresolvedError
from .params import PhysParams

MODELS = ("higgs", "crs", "qes1", "qes2")
_CLOSURE_GATE = 1e-12   # verify's transform-closure gate


def fmt_float(x) -> str:
    """17-significant-digit scientific form with a lowercase exponent."""
    return format(float(x), ".17e")


def serialize_json(obj, indent: int = 0) -> str:
    """Deterministic JSON writer for the limited document shapes used here.

    Dict keys keep insertion order (documents are built in a fixed order);
    floats go through fmt_float so output is byte-stable.  json.dumps(obj,
    indent=2) gives the same layout but not the 17-digit floats that
    TestExactBytes pins, and its pure-Python indenting encoder leaves 33
    cyclic objects per verify report, which a warm call must not leave.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {serialize_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {serialize_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(obj)}")


def serialize_csv(columns: list[str], rows: list[list]) -> str:
    def cell(v):
        if isinstance(v, float):
            return fmt_float(v)
        if v is None:
            return ""
        return str(v)

    lines = [",".join(columns)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _flag(name: str) -> str:
    """The flag that sets an input, by the input's library name (as in
    CurvoscError.inputs) or argparse dest: --lambda for lam, else the dest
    with "-" for "_"."""
    return "--lambda" if name == "lam" else "--" + name.replace("_", "-")


def _validate(args) -> PhysParams:
    """The physical parameters of a table command, after checking its
    flags; the first failed check raises ValueError with the one line the
    user sees."""
    params = PhysParams(mass=args.mass, hbar=args.hbar, omega=args.omega, lam=args.lam)
    command, model = args.command, getattr(args, "model", None)
    l = getattr(args, "l", None)
    if command != "transform-check" and model is None:
        raise ValueError(f"{command} requires --model")
    if model == "qes1" and l is None:
        raise ValueError("model qes1 requires --l")
    if l is not None and model != "qes1":
        raise ValueError("--l only applies to model qes1")
    # a flag the model does not read is refused, not ignored: one given, or
    # for --N and --mprime, whose default 0 cannot be told apart, one not 0
    for dest, unset, unread in (
            ("mprime_q", None, model == "higgs" or (model, command) == ("crs", "spectrum")),
            ("mprime_max", None, model in ("qes1", "qes2")),
            ("N", 0, command == "wavefunction" and model not in ("higgs", "crs")),
            ("mprime", 0, command == "wavefunction" and model != "higgs")):
        if unread and getattr(args, dest, unset) != unset:
            raise ValueError(f"{_flag(dest)} does not apply to {command} --model {model}")
    needs_channel = model in ("qes1", "qes2") or (
        model == "crs" and command in ("potential", "wavefunction"))
    if needs_channel and args.mprime_q is None:
        raise ValueError(f"model {model} requires --mprime-q here")
    # the QES channels are built from the signed m'_Q
    if model in ("qes1", "qes2") and not args.mprime_q >= 0:
        raise ValueError(f"--mprime-q must be at least 0 for model {model}, "
                         f"got {args.mprime_q}")
    for dest, least in (("n_max", 0), ("mprime_max", 0), ("N", 0), ("grid_n", 1)):
        value = getattr(args, dest, None)
        if value is not None and value < least:
            raise ValueError(f"{_flag(dest)} must be at least {least}, got {value}")
    # the solver resolves at most n/4 levels of an n-point grid
    if command == "spectrum":
        from .verify import SPECTRUM_N
        if args.n_max >= SPECTRUM_N[model] // 4:
            raise ValueError(f"--n-max must be at most {SPECTRUM_N[model] // 4 - 1} for "
                             f"spectrum --model {model}, got {args.n_max}")
    params.require_curvature()
    for dest in ("mass", "hbar", "omega", "lam", "mprime_q", "l", "grid_min", "grid_max"):
        value = getattr(args, dest, None)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{_flag(dest)} must be finite, got {value}")
    return params


def run_spectrum(args, params: PhysParams):
    from .verify import spectrum
    mprimes = (args.mprime_q,) if args.model in ("qes1", "qes2") \
        else range((2 if args.mprime_max is None else args.mprime_max) + 1)
    return (["N", "mprime", "E_analytic", "E_numeric", "relative_error"],
            spectrum(args.model, params, args.n_max + 1, mprimes, args.l))


def _tabulate(args, params: PhysParams, formula):
    """(xs, formula(xs)) on the --grid-min..--grid-max table.  A grid that
    leaves the formula's domain is refused with the formula's own error
    type, naming the flag at fault: --grid-min where the formula refuses
    that end alone, else --grid-max, beside the channel's branch radius for
    a QES model."""
    xs = np.linspace(args.grid_min, args.grid_max, args.grid_n)
    try:
        return xs, formula(xs)
    except (SingularPointError, NegativeRadiusError) as exc:
        try:
            formula(xs[:1])
        except (SingularPointError, NegativeRadiusError):
            where = f"--grid-min {args.grid_min:g}"
        else:
            where = f"--grid-max {args.grid_max:g}"
            if args.model in ("qes1", "qes2"):
                spec = crs.QesSpec.transplanted(args.mprime_q, params, args.l)
                where += f" (branch radius {higgs.qes_branch_radius(spec, params):.6g})"
        raise type(exc)(f"{where} is outside the domain of {args.command} "
                        f"--model {args.model}: {exc}") from exc


def run_potential(args, params: PhysParams):
    if args.model == "higgs":
        formula = lambda x: higgs.oscillator_potential(params, x)
    elif args.model == "crs":
        formula = lambda x: crs.crs_potential_special(args.mprime_q, params, x)
    else:
        spec = crs.QesSpec.transplanted(args.mprime_q, params, args.l)
        formula = lambda x: higgs.qes_potential(spec, params, x)
    xs, v = _tabulate(args, params, formula)
    return ["coordinate", "V"], np.column_stack((xs, v)).tolist()


def run_wavefunction(args, params: PhysParams):
    if args.model == "higgs":
        formula = lambda x: higgs.higgs_wavefunction((args.N, args.mprime), params, x)
    elif args.model == "crs":
        formula = lambda x: crs.crs_wavefunction_special((args.N, args.mprime_q), params, x)
    else:
        spec = crs.QesSpec.transplanted(args.mprime_q, params, args.l)
        formula = lambda x: higgs.qes_groundstate(spec, params, x)
    xs, v = _tabulate(args, params, formula)
    return (["coordinate", "value_real", "value_imag"],
            np.column_stack((xs, np.real(v), np.imag(v))).tolist())


def run_transform_check(args, params: PhysParams):
    """The mapped potential against m omega^2 r^2/2 at the tabulated radii.
    The map's shift cancels the line potential down to that target, so the
    difference reads the roundoff of their terms; a table whose roundoff
    bound exceeds _CLOSURE_GATE of the target at any radius is refused."""
    mq = args.mprime_q if args.mprime_q is not None else 0.0
    rs = np.logspace(-0.5, 1.0, args.grid_n)
    line = lambda x: crs.crs_potential_special(mq, params, x)
    mapped = transform.map_potential(mq, params, line, rs)
    target = higgs.oscillator_potential(params, rs)
    roundoff = crs.crs_potential_special_roundoff(mq, params, transform.x_of_r(params, rs))
    worst = float(np.max(roundoff / target))
    if worst > _CLOSURE_GATE:
        raise PrecisionLossError(
            f"--lambda {params.lam:g} at --mprime-q {mq:g} leaves the mapped potential a "
            f"roundoff of {worst:.1e} of m omega^2 r^2/2, above the {_CLOSURE_GATE:g} "
            f"that transform-check holds")
    return (["r", "mapped_V", "half_m_omega2_r2", "difference"],
            np.column_stack((rs, mapped, target, mapped - target)).tolist())


@cache
def _steady_heap() -> None:
    """Fix glibc's heap thresholds for the rest of the process, unless the
    user set them (MALLOC_TRIM_THRESHOLD_, MALLOC_MMAP_THRESHOLD_ or a
    glibc.malloc tunable); other C libraries keep their heap.  glibc would
    otherwise hand each system's short-lived arrays back to the kernel and
    fault them in again for the next.  The mmap threshold lies above the
    largest array of one system (0.8 MB, the k = 50 float32 coarse block),
    the trim threshold above what one command frees at once (1.2 MB for an
    8001-point assembly, 2.1 MB for a 50-level spectrum)."""
    import platform
    tunables = os.getenv("GLIBC_TUNABLES", "")
    if platform.libc_ver()[0] == "glibc" and "glibc.malloc." not in tunables \
            and not {"MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"} & os.environ.keys():
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 1 << 20)    # M_MMAP_THRESHOLD
        mallopt(-1, 8 << 20)    # M_TRIM_THRESHOLD


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the
    process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="curvosc",
        description="Spectra, potentials, wavefunctions and verification "
                    "reports for the curved-space oscillator models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def physics(p, model=True):
        """Model and parameter flags plus the table format."""
        if model:
            p.add_argument("--model", choices=MODELS)
        p.add_argument("--mass", type=float, default=1.0)
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--omega", type=float, default=1.0)
        p.add_argument("--lambda", dest="lam", type=float, default=1.0)
        p.add_argument("--mprime-q", type=float, default=None)
        if model:
            p.add_argument("--l", type=float, default=None)
        p.add_argument("--format", dest="output_format", choices=("json", "csv"),
                       default="json")
        p.add_argument("--output", default=None)

    def grid(p):
        p.add_argument("--grid-min", type=float, default=0.05)
        p.add_argument("--grid-max", type=float, default=5.0)
        p.add_argument("--grid-n", type=int, default=200)

    p = sub.add_parser("spectrum", help="analytic vs numerical eigenvalues")
    physics(p)
    p.add_argument("--n-max", type=int, default=2)
    # None means 2; the QES spectra solve one channel and refuse the flag
    p.add_argument("--mprime-max", type=int, default=None)

    p = sub.add_parser("potential", help="potential table")
    physics(p)
    grid(p)

    p = sub.add_parser("wavefunction", help="wavefunction table")
    physics(p)
    p.add_argument("--N", type=int, default=0)
    p.add_argument("--mprime", type=int, default=0)
    grid(p)

    p = sub.add_parser("verify", help="run verification suites (fixed parameters, JSON)")
    p.add_argument("--output", default=None)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name or 'all' (repeatable)")

    p = sub.add_parser("transform-check", help="special-model closure table")
    physics(p, model=False)
    p.add_argument("--grid-n", type=int, default=100)
    return parser


def main(argv=None) -> int:
    """Run one command line and return its exit code."""
    _steady_heap()
    args = _parser().parse_args(argv)
    verify = args.command == "verify"
    try:
        if verify:
            from .verify import build_report, run_suites
            results = run_suites(args.suite)
        else:
            params = _validate(args)
            runner = {"spectrum": run_spectrum, "potential": run_potential,
                      "wavefunction": run_wavefunction,
                      "transform-check": run_transform_check}[args.command]
            # a value that no check caught shows as inf or nan in the table,
            # which is refused below by its row, so numpy's warnings are not wanted
            with np.errstate(over="ignore", invalid="ignore"):
                columns, rows = runner(args, params)
            keys = 2 if args.command == "spectrum" else 1
            for row in rows:
                if not all(v is None or math.isfinite(v) for v in row):
                    at = ", ".join(f"{c} = {v:g}" for c, v in zip(columns, row[:keys]))
                    raise UnresolvedError(f"the table row at {at} has non-finite entries")
    except (ValueError, OverflowError) as exc:
        # Python float arithmetic raises OverflowError where numpy returns inf
        line = "a flag is too large for floating point" if isinstance(exc, OverflowError) else exc
        flags = ", ".join(map(_flag, getattr(exc, "inputs", ())))
        print(f"error: {line}" + (f" ({flags})" if flags else ""), file=sys.stderr)
        return 1

    code = 0
    if verify:
        report = build_report(results)
        text = serialize_json(report) + "\n"
        code = 0 if report["passed"] else 2
    elif args.output_format == "csv":
        text = serialize_csv(columns, rows)
    else:
        text = serialize_json({
            "command": args.command,
            "model": getattr(args, "model", None),
            "params": {"mass": params.mass, "hbar": params.hbar,
                       "omega": params.omega, "lambda": params.lam},
            "columns": columns,
            "rows": rows,
        }) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    if verify and args.verbose:
        for c in results:
            status = "PASS" if c.passed else "FAIL"
            print(f"{status} {c.suite}/{c.name}: {c.measured:.3e} "
                  f"{c.comparator} {c.tolerance:.3e}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
