"""Command-line front end emitting machine-readable tables.

Commands: spectrum, potential, wavefunction, verify, transform-check.
Output is JSON (default; the only form of verify) or CSV, written to
--output or stdout, with deterministic float formatting (17 significant
digits, lowercase e), so identical configurations produce byte-identical
files.  Units default to
hbar = m = 1 with omega and lambda free.

Exit codes: 0 success, 1 configuration error, 2 verify-suite failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import crs, higgs, problems, transform
from .crs import QesSpec
from .numerics import lowest_eigenvalues, rayleigh_quotient
from .params import PhysParams

MODELS = ("higgs", "crs", "qes1", "qes2")
COMMANDS = ("spectrum", "potential", "wavefunction", "verify", "transform-check")


def fmt_float(x) -> str:
    """17-significant-digit scientific form with a lowercase exponent."""
    return format(float(x), ".17e")


def serialize_json(obj, indent: int = 0) -> str:
    """Deterministic JSON writer for the limited document shapes used here.

    Dict keys keep insertion order (documents are built in a fixed order);
    floats go through fmt_float so output is byte-stable.
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


@dataclass
class RunConfig:
    command: str
    model: str | None
    params: PhysParams
    n_max: int = 2
    mprime_max: int = 2
    mprime: int = 0
    mprime_q: float | None = None
    N: int = 0
    l: float | None = None
    grid_min: float = 0.05
    grid_max: float = 5.0
    grid_n: int = 200
    suites: tuple = ("all",)
    output_format: str = "json"
    output_path: str | None = None
    verbose: bool = False

    def validate(self):
        if self.command in ("spectrum", "potential", "wavefunction") and self.model is None:
            raise ValueError(f"{self.command} requires --model")
        if self.model == "qes1" and self.l is None:
            raise ValueError("model qes1 requires --l")
        if self.model is not None and self.l is not None and self.model != "qes1":
            raise ValueError("--l only applies to model qes1")
        needs_channel = self.model in ("qes1", "qes2") or (
            self.model == "crs" and self.command in ("potential", "wavefunction"))
        if needs_channel and self.mprime_q is None:
            raise ValueError(f"model {self.model} requires --mprime-q here")
        # the QES channels are built from the signed m'_Q
        if self.model in ("qes1", "qes2") and not self.mprime_q >= 0:
            raise ValueError(f"--mprime-q must be at least 0 for model {self.model}, "
                             f"got {self.mprime_q}")
        grid = (("--grid-n", self.grid_n, 1),)
        counts = {"spectrum": (("--n-max", self.n_max, 0), ("--mprime-max", self.mprime_max, 0)),
                  "wavefunction": (("--N", self.N, 0),) + grid,
                  "potential": grid, "transform-check": grid}
        for flag, value, least in counts.get(self.command, ()):
            if value < least:
                raise ValueError(f"{flag} must be at least {least}, got {value}")
        if self.command in ("spectrum", "potential", "wavefunction", "transform-check"):
            self.params.require_curvature()


def _document(config: RunConfig, columns, rows, extra=None) -> dict:
    doc = {
        "command": config.command,
        "model": config.model,
        "params": {
            "mass": config.params.mass,
            "hbar": config.params.hbar,
            "omega": config.params.omega,
            "lambda": config.params.lam,
        },
        "columns": list(columns),
        "rows": [list(r) for r in rows],
    }
    if extra:
        doc.update(extra)
    return doc


def run_spectrum(config: RunConfig):
    params = config.params
    rows = []
    if config.model in ("higgs", "crs"):
        channels = range(config.mprime_max + 1)
        for mp in channels:
            if config.model == "higgs":
                numeric = problems.higgs_spectrum_numeric(mp, params, config.n_max + 1)
                analytic = [higgs.higgs_energy((N, mp), params)
                            for N in range(config.n_max + 1)]
            else:
                numeric = problems.crs_spectrum_numeric(mp, params, config.n_max + 1)
                analytic = [crs.crs_energy((N, mp), params)
                            for N in range(config.n_max + 1)]
            for N, (ea, en) in enumerate(zip(analytic, numeric)):
                rows.append([N, mp, float(ea), float(en), abs(en - ea) / abs(ea)])
    else:
        example = 1 if config.model == "qes1" else 2
        mq = config.mprime_q
        prob = problems.qes_channel_problem(example, mq, mq, params, 8001, l=config.l)
        numeric = lowest_eigenvalues(prob, config.n_max + 1)
        # only the channel ground state has a closed form; its energy is
        # defined by the Rayleigh quotient of the printed state
        if example == 1:
            psi = lambda r: higgs.qes_example1_groundstate(config.l, mq, params, r)
        else:
            spec = QesSpec.example2(mq, params)
            psi = lambda r: higgs.qes_example2_groundstate(spec, params, r)
        E0, _ = rayleigh_quotient(
            problems.qes_rayleigh_problem(example, mq, params, l=config.l), psi)
        for N, en in enumerate(numeric):
            ea = E0 if N == 0 else None
            rel = abs(en - ea) / abs(ea) if ea is not None else None
            rows.append([N, mq, ea if ea is None else float(ea), float(en), rel])
    return ["N", "mprime", "E_analytic", "E_numeric", "relative_error"], rows


def run_potential(config: RunConfig):
    params = config.params
    xs = np.linspace(config.grid_min, config.grid_max, config.grid_n)
    if config.model == "higgs":
        v = 0.5 * params.mass * params.omega**2 * xs * xs
    elif config.model == "crs":
        v = crs.crs_potential_special(xs, config.mprime_q, params)
    elif config.model == "qes1":
        v = higgs.qes_example1_potential(config.l, config.mprime_q, params, xs)
    else:
        v = higgs.qes_example2_potential(config.mprime_q, params, xs)
    return ["coordinate", "V"], np.column_stack((xs, v)).tolist()


def run_wavefunction(config: RunConfig):
    params = config.params
    xs = np.linspace(config.grid_min, config.grid_max, config.grid_n)
    if config.model == "higgs":
        v = higgs.higgs_wavefunction((config.N, config.mprime), params, xs)
    elif config.model == "crs":
        v = crs.crs_wavefunction_special((config.N, config.mprime_q), params, xs)
    elif config.model == "qes1":
        v = higgs.qes_example1_groundstate(config.l, config.mprime_q, params, xs)
    else:
        spec = QesSpec.example2(config.mprime_q, params)
        v = higgs.qes_example2_groundstate(spec, params, xs)
    return (["coordinate", "value_real", "value_imag"],
            np.column_stack((xs, np.real(v), np.imag(v))).tolist())


def run_transform_check(config: RunConfig):
    params = config.params
    mq = config.mprime_q if config.mprime_q is not None else 0.0
    ctx = transform.MapContext(params, mq)
    rs = np.logspace(-0.5, 1.0, config.grid_n)
    mapped = transform.map_potential(
        ctx, lambda x: crs.crs_potential_special(x, mq, params), rs)
    target = 0.5 * params.mass * params.omega**2 * rs * rs
    return (["r", "mapped_V", "half_m_omega2_r2", "difference"],
            np.column_stack((rs, mapped, target, mapped - target)).tolist())


def run(config: RunConfig) -> int:
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if config.command == "verify":
        from .verify import build_report, run_suites
        try:
            results = run_suites(list(config.suites))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report = build_report(results)
        text = serialize_json(report) + "\n"
        _emit(config, text)
        if config.verbose:
            for c in results:
                status = "PASS" if c.passed else "FAIL"
                print(f"{status} {c.suite}/{c.name}: {c.measured:.3e} "
                      f"{c.comparator} {c.tolerance:.3e}", file=sys.stderr)
        return 0 if report["passed"] else 2

    runner = {"spectrum": run_spectrum, "potential": run_potential,
              "wavefunction": run_wavefunction,
              "transform-check": run_transform_check}[config.command]
    try:
        columns, rows = runner(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if config.output_format == "csv":
        text = serialize_csv(columns, rows)
    else:
        text = serialize_json(_document(config, columns, rows)) + "\n"
    _emit(config, text)
    return 0


def _emit(config: RunConfig, text: str):
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    p.add_argument("--mprime-max", type=int, default=2)

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


def config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command, model=getattr(args, "model", None),
                    params=PhysParams(), output_path=args.output)
    if hasattr(args, "lam"):
        cfg.params = PhysParams(mass=args.mass, hbar=args.hbar, omega=args.omega,
                                lam=args.lam)
    for name in ("mprime_q", "l", "output_format", "verbose", "n_max", "mprime_max",
                 "N", "mprime", "grid_min", "grid_max", "grid_n"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "suite", None):
        cfg.suites = tuple(args.suite)
    return cfg


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
