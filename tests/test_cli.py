import argparse
import ctypes
import gc
import json
import platform
import re
import resource
import types
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from curvosc import _lapack, cli, crs, higgs, transform, verify
from curvosc.cli import fmt_float, main, serialize_csv, serialize_json
from curvosc.errors import CurvoscError, ParameterOverflowError, PrecisionLossError, \
    UnresolvedError
from curvosc.params import PhysParams


def load_schema():
    with resources.files("curvosc").joinpath("schemas/output.schema.json").open() as fh:
        return json.load(fh)


NO_SQUARE_MQ = "mprime_q = 1e+200 has no finite square (--mprime-q)"


def run_to_file(tmp_path: Path, name: str, args: list[str]) -> tuple[int, str]:
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestFormatting:
    def test_float_format(self):
        assert fmt_float(0.5) == "5.00000000000000000e-01"
        assert fmt_float(-1.0) == "-1.00000000000000000e+00"
        assert "e" in fmt_float(1e100) and "E" not in fmt_float(1e100)

    def test_json_roundtrips(self):
        doc = {"a": [1.5, None, True], "b": "x\"y", "c": 3}
        assert json.loads(serialize_json(doc)) == doc

    def test_csv_header_and_blank_none(self):
        text = serialize_csv(["a", "b"], [[1.0, None], [2.0, 3.0]])
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1].endswith(",")


class TestValidation:
    def test_spectrum_needs_model(self, capsys):
        assert main(["spectrum"]) == 1
        assert "model" in capsys.readouterr().err

    def test_qes1_needs_l(self, tmp_path, capsys):
        code, _ = run_to_file(tmp_path, "x.json",
                              ["potential", "--model", "qes1", "--mprime-q", "1"])
        assert code == 1
        assert "--l" in capsys.readouterr().err

    def test_l_only_for_qes1(self, tmp_path, capsys):
        code, _ = run_to_file(tmp_path, "x.json",
                              ["potential", "--model", "higgs", "--l", "2"])
        assert code == 1

    @pytest.mark.parametrize("args,message", [
        (["spectrum", "--model", "higgs", "--mprime-q", "1"],
         "--mprime-q does not apply to spectrum --model higgs"),
        (["potential", "--model", "higgs", "--mprime-q", "1"],
         "--mprime-q does not apply to potential --model higgs"),
        (["wavefunction", "--model", "higgs", "--mprime-q", "0"],
         "--mprime-q does not apply to wavefunction --model higgs"),
        (["spectrum", "--model", "crs", "--lambda", "0.1", "--mprime-q", "1"],
         "--mprime-q does not apply to spectrum --model crs"),
        (["wavefunction", "--model", "qes1", "--l", "3", "--mprime-q", "1", "--N", "1"],
         "--N does not apply to wavefunction --model qes1"),
        (["wavefunction", "--model", "qes1", "--l", "3", "--mprime-q", "1", "--mprime", "1"],
         "--mprime does not apply to wavefunction --model qes1"),
        (["wavefunction", "--model", "qes2", "--mprime-q", "1", "--N", "2"],
         "--N does not apply to wavefunction --model qes2"),
        (["wavefunction", "--model", "qes2", "--mprime-q", "1", "--mprime", "-1"],
         "--mprime does not apply to wavefunction --model qes2"),
        (["wavefunction", "--model", "crs", "--mprime-q", "0", "--mprime", "1"],
         "--mprime does not apply to wavefunction --model crs"),
        (["spectrum", "--model", "qes1", "--l", "3", "--mprime-q", "1", "--mprime-max", "0"],
         "--mprime-max does not apply to spectrum --model qes1"),
        (["spectrum", "--model", "qes2", "--mprime-q", "1", "--mprime-max", "2"],
         "--mprime-max does not apply to spectrum --model qes2"),
    ], ids=["spectrum-higgs", "potential-higgs", "wavefunction-higgs", "spectrum-crs",
            "qes1-N", "qes1-mprime", "qes2-N", "qes2-mprime", "crs-mprime",
            "qes1-mprime-max", "qes2-mprime-max"])
    def test_flag_the_model_ignores_is_one_error_line(self, args, message, tmp_path, capsys):
        # these flags were read by no formula, and the table printed as if
        # they were absent
        code, text = run_to_file(tmp_path, "x.json", args)
        assert code == 1 and text == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_explicit_default_n_and_mprime_are_accepted(self, tmp_path):
        # a zero --N or --mprime cannot be told apart from the default
        code, text = run_to_file(tmp_path, "x.json", [
            "wavefunction", "--model", "qes2", "--mprime-q", "1", "--N", "0", "--mprime", "0",
            "--grid-n", "3"])
        assert code == 0 and len(json.loads(text)["rows"]) == 3

    def test_crs_needs_channel(self, tmp_path, capsys):
        code, _ = run_to_file(tmp_path, "x.json", ["potential", "--model", "crs"])
        assert code == 1

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "no-such-suite"]) == 1

    @pytest.mark.parametrize("flags", [["--format", "csv"], ["--lambda", "0.5"]])
    def test_verify_rejects_flags_it_ignores(self, flags, capsys):
        # verify always writes JSON at fixed parameters
        with pytest.raises(SystemExit) as exc:
            main(["verify", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("args,flag", [
        (["spectrum", "--model", "higgs", "--n-max", "-1"], "--n-max"),
        (["spectrum", "--model", "higgs", "--mprime-max", "-2"], "--mprime-max"),
        (["potential", "--model", "higgs", "--grid-n", "0"], "--grid-n"),
        (["potential", "--model", "higgs", "--grid-n", "-3"], "--grid-n"),
        (["wavefunction", "--model", "higgs", "--grid-n", "0"], "--grid-n"),
        (["wavefunction", "--model", "higgs", "--N", "-1"], "--N"),
        (["transform-check", "--grid-n", "0"], "--grid-n"),
    ])
    def test_count_flag_out_of_range_is_one_error_line(self, args, flag, tmp_path, capsys):
        # a negative count or an empty grid is refused before any work,
        # with the flag named, instead of an empty table or a numpy message
        code, _ = run_to_file(tmp_path, "x.json", args)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be at least ") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["spectrum", "--model", "qes2", "--mprime-q", "-1"],
        ["spectrum", "--model", "qes1", "--l", "3", "--mprime-q", "-1"],
        ["wavefunction", "--model", "qes2", "--mprime-q", "nan"],
    ], ids=["qes2", "qes1", "nan"])
    def test_negative_qes_channel_is_one_error_line(self, args, tmp_path, capsys):
        # the QES channels are built from the signed m'_Q: a negative one
        # printed relative errors of 1e7-1e8 and exited 0
        code, text = run_to_file(tmp_path, "x.json", args)
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: --mprime-q must be at least 0 for model qes")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["potential", "wavefunction", "spectrum"])
    @pytest.mark.parametrize("l", ["-3", "0"])
    def test_nonpositive_l_is_one_error_line(self, command, l, tmp_path, capsys):
        # potential printed the l = 3 table for --l -3 and named a csc/sec
        # pole for --l 0; every command now names the flag
        args = [command, "--model", "qes1", "--l", l, "--mprime-q", "1"]
        code, text = run_to_file(tmp_path, "x.json", args + (
            [] if command == "spectrum" else ["--grid-n", "2"]))
        assert code == 1 and text == ""
        assert capsys.readouterr().err == f"error: l must be positive, got {float(l)} (--l)\n"

    @pytest.mark.parametrize("l", ["1", "2"])
    def test_l_without_a_branch_blames_l_alone(self, l, tmp_path, capsys):
        # the cos(l Theta) branch depends on l alone; the line blamed all six
        # inputs the QES solve reads, four of them flags the user never set
        code, text = run_to_file(tmp_path, "x.json",
                                 ["spectrum", "--model", "qes1", "--l", l, "--mprime-q", "1"])
        assert code == 1 and text == ""
        assert capsys.readouterr().err == (
            "error: X_Theta has no zero below the equator, so the channel has no finite "
            "branch (cos(l Theta) needs l > 2) (--l)\n")

    def test_vanishing_x_theta_blames_lambda(self, tmp_path, capsys):
        # X_Theta scales with the spec's powers of lam, so at a tiny lam the
        # potential is refused where --lambda 1 answers on the same grid;
        # the line named no flag
        argv = ["potential", "--model", "qes1", "--l", "3", "--mprime-q", "1",
                "--grid-n", "2", "--grid-max", "1"]
        assert run_to_file(tmp_path, "x.json", argv + ["--lambda", "1e-30"]) == (1, "")
        assert capsys.readouterr().err == \
            "error: |X_Theta| = 4.5e-16 at a requested point; potential singular (--lambda)\n"
        assert run_to_file(tmp_path, "y.json", argv + ["--lambda", "1"])[0] == 0

    def test_negative_crs_channel_is_accepted(self, tmp_path):
        # the crs potential depends on m'_Q only through m'_Q^2
        code, text = run_to_file(tmp_path, "x.json", [
            "potential", "--model", "crs", "--mprime-q", "-1", "--grid-n", "5"])
        assert code == 0 and len(json.loads(text)["rows"]) == 5

    def test_domain_error_is_exit_one(self, tmp_path, capsys):
        code, _ = run_to_file(tmp_path, "x.json", [
            "potential", "--model", "crs", "--mprime-q", "1", "--grid-min", "0"])
        assert code == 1
        assert "x = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("args,flag", [
        (["wavefunction", "--model", "qes1", "--l", "3", "--mprime-q", "1"],
         "--grid-max 5 (branch radius 1.73205)"),
        (["wavefunction", "--model", "qes2", "--mprime-q", "1", "--grid-min", "0"], "--grid-min 0"),
        (["wavefunction", "--model", "crs", "--mprime-q", "0", "--grid-min", "0"], "--grid-min 0"),
        (["potential", "--model", "crs", "--mprime-q", "1", "--grid-min", "0"], "--grid-min 0"),
        (["potential", "--model", "qes2", "--mprime-q", "1", "--grid-min", "0"], "--grid-min 0"),
        (["wavefunction", "--model", "higgs", "--grid-min", "-1"], "--grid-min -1"),
    ], ids=["qes1-wavefunction", "qes2-wavefunction", "crs-wavefunction", "crs-potential",
            "qes2-potential", "higgs-wavefunction"])
    def test_grid_outside_the_domain_names_its_flag(self, args, flag, tmp_path, capsys):
        # each ended in the formula's own message, which names no flag; the
        # qes1 default grid runs past tan(pi/3)/sqrt(lam), its branch radius
        code, _ = run_to_file(tmp_path, "x.json", args)
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and not (tmp_path / "x.json").exists()
        assert err.startswith(f"error: {flag} is outside the domain of {' '.join(args[:3])}: ")
        assert err.count("\n") == 1
        parsed = cli._parser().parse_args(args)
        runner = {"potential": cli.run_potential, "wavefunction": cli.run_wavefunction}[args[0]]
        with pytest.raises(CurvoscError):
            runner(parsed, cli._validate(parsed))

    @pytest.mark.parametrize("lam", ["1e200", "1e300"])
    @pytest.mark.parametrize("model", [["higgs"], ["crs"], ["qes2", "--mprime-q", "1"]],
                             ids=["higgs", "crs", "qes2"])
    def test_overflowing_curvature_is_exit_one(self, model, lam, tmp_path, capsys):
        # qes2 overflows in one error line; the higgs and crs spectra, solved
        # at nu = 2 m omega/(hbar lam), answer (they read "no finite square"
        # and "eigensolve failed" when solved in physical units)
        code, text = run_to_file(tmp_path, "x.json",
                                 ["spectrum", "--model", *model, "--lambda", lam])
        if model[0] == "qes2":
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code == 0
            rows = json.loads(text)["rows"]
            assert len(rows) == 9
            assert max(row[-1] for row in rows) <= 1e-9

    @pytest.mark.parametrize("model", ["higgs", "crs"])
    def test_nu_below_the_floats_answers(self, model, tmp_path):
        # nu = 2 m omega/(hbar lam) = 2e-330 rounds to 0, which no omega may
        # be; it is solved as the least positive float, which also acts as 0
        code, text = run_to_file(tmp_path, "x.json", ["spectrum", "--model", model,
                                                      "--lambda", "1e30", "--omega", "1e-300"])
        assert code == 0
        assert max(row[-1] for row in json.loads(text)["rows"]) <= 1e-9

    @pytest.mark.parametrize("model", [["higgs"], ["crs"], ["qes2", "--mprime-q", "1"]],
                             ids=["higgs", "crs", "qes2"])
    def test_failed_lapack_eigensolve_is_one_error_line(self, model, tmp_path, capsys,
                                                        monkeypatch):
        # finite but extreme entries made the LAPACK bisection fail: the user
        # sees one typed error, not LAPACK's message.  Every spectrum, solved
        # at nu, now answers at lam = 1e150 (qes2 failed there in physical
        # units), so the bisection is made to report info 1
        stebz = _lapack.dstebz
        monkeypatch.setattr(_lapack, "dstebz", lambda *args: (*stebz(*args)[:-1], 1))
        code, _ = run_to_file(tmp_path, "x.json",
                              ["spectrum", "--model", *model, "--lambda", "1e150"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "eigensolve failed" in err
        assert "LAPACK" not in err and "stebz" not in err

    @pytest.mark.parametrize("lam", ["1e100", "1e150"])
    def test_qes2_answers_at_extreme_curvature(self, lam, tmp_path):
        # lam = 1e100 ended in "eigensolve failed" with the r-frame closures,
        # and 1e150 so in physical units; the closed form is hbar w' n +
        # (lam/2) n^2 = 3 lam at n = 2
        code, text = run_to_file(tmp_path, "x.json", ["spectrum", "--model", "qes2",
                                                      "--mprime-q", "1", "--lambda", lam])
        assert code == 0
        assert json.loads(text)["rows"][0][3] == pytest.approx(3 * float(lam), rel=1e-6)

    @pytest.mark.parametrize("model,lam,tol", [
        (["qes1", "--l", "3"], "300", 1e-10),
        (["qes1", "--l", "4"], "1e100", 1e-10),
        (["qes1", "--l", "29"], "1", 1e-8),
        (["qes1", "--l", "1000"], "1", 1e-5),
        (["qes2"], "1e100", 1e-5),
        (["qes2"], "3e-3", 1e-9),
        (["qes1", "--l", "2.0000001"], "1", 1e-7),
        (["qes1", "--l", "2.0000001"], "0.5", 1e-7),
    ], ids=["l=3-lam=300", "l=4-lam=1e100", "l=29", "l=1000", "qes2-lam=1e100",
            "qes2-lam=3e-3", "l=2.0000001", "l=2.0000001-lam=0.5"])
    def test_qes_analytic_energy_follows_the_state(self, model, lam, tol, tmp_path):
        # the Rayleigh walls were fixed in r while the state shrinks like
        # 1/sqrt(lam) above lam = 1: l = 3 at lam = 300 and l = 29 ended in
        # "need finite a < b", qes2 at lam = 1e100 printed E_analytic =
        # -2.8e194.  Below lam = 1 the walls stay put: widened like
        # 1/sqrt(lam), they overflow the closed form at lam = 3e-3.  The
        # right wall is the nearer of 0.9 r_b and 25 s: at l = 2.0000001 a
        # wall at 0.9 r_b = 1.1e7 printed E_analytic = -2.5e7 (measured now:
        # 3.7e-9 and 4.6e-9 off)
        code, text = run_to_file(tmp_path, "x.json", ["spectrum", "--model", *model,
                                                      "--mprime-q", "1", "--lambda", lam])
        assert code == 0
        exact = crs.oscillator_energy((0, 1), PhysParams(lam=float(lam)))
        assert json.loads(text)["rows"][0][2] == pytest.approx(exact, rel=tol)

    @pytest.mark.parametrize("model", [["crs"], ["higgs"], ["qes2", "--mprime-q", "1"]],
                             ids=["crs", "higgs", "qes2"])
    def test_tiny_hbar_is_one_error_line_naming_hbar(self, model, tmp_path, capsys):
        # crs and higgs ended in "leading coefficient p must be positive at
        # faces", qes2 blamed lam ("lam = 1 overflows the origin series")
        code, text = run_to_file(tmp_path, "x.json",
                                 ["spectrum", "--model", *model, "--hbar", "1e-200"])
        assert code == 1 and text == ""
        assert capsys.readouterr().err == \
            "error: hbar = 1e-200 is too small: hbar^2/2m = 0 (--hbar, --mass)\n"

    @pytest.mark.parametrize("model", [["crs"], ["higgs"], ["qes2", "--mprime-q", "1"]],
                             ids=["crs", "higgs", "qes2"])
    def test_energy_unit_below_the_floats_is_one_error_line(self, model, tmp_path, capsys):
        # nu = 1, but lam hbar^2/2m = 5e-337 rounds to 0: higgs and crs ended
        # in "the table row at N = 0, mprime = 0 has non-finite entries", and
        # qes2, solved at nu, printed E_numeric = 0 with exit 0
        code, text = run_to_file(tmp_path, "x.json", [
            "spectrum", "--model", *model, "--lambda", "1e-102", "--hbar", "1e-83",
            "--mass", "1e68", "--omega", "5e-254"])
        assert code == 1 and text == ""
        assert capsys.readouterr().err == \
            "error: the energy unit lam hbar^2/2m = 0 is too small (--lambda, --hbar, --mass)\n"

    def test_qes_spectrum_depends_on_nu_alone(self, tmp_path):
        # nu = 2, as at the defaults: solved in physical units, N = 0 read
        # 5.74e-155 against 4.24e-160 with exit 0
        code, text = run_to_file(tmp_path, "x.json", [
            "spectrum", "--model", "qes2", "--mprime-q", "1", "--hbar", "1e-80",
            "--omega", "1e-80"])
        assert code == 0
        exact = crs.oscillator_energy((0, 1), PhysParams(hbar=1e-80, omega=1e-80))
        assert abs(json.loads(text)["rows"][0][3] / exact - 1) <= 1e-5

    @pytest.mark.parametrize("lam", ["10", "1e4", "1e8", "1e9", "1e145"])
    def test_crs_error_stays_flat_above_unit_curvature(self, lam, tmp_path):
        # the grid ends at the tan pole x* at every curvature, and the solve
        # sees only nu = 2/lam, so the error keeps its lam = 1 size: the worst
        # row reads 2.0e-11-5.0e-11 for m'_Q = 0, 1, 2 (the radial gauge
        # leaves m'_Q = 0 no h^2 log term), where a grid cut at x* -
        # 1e-4/sqrt(lam) read 2.2e-9-2.7e-9
        code, text = run_to_file(tmp_path, "x.json",
                                 ["spectrum", "--model", "crs", "--lambda", lam])
        assert code == 0
        rows = json.loads(text)["rows"]
        assert len(rows) == 9
        assert max(row[-1] for row in rows) <= 1e-10

    def test_overflowing_rayleigh_state_is_one_error_line(self, tmp_path, capsys):
        # at lam = 1e-3 the qes2 closed-form state is not finite on the
        # Rayleigh window: one typed error, no numpy warning before it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text = run_to_file(tmp_path, "x.json", ["spectrum", "--model", "qes2",
                                                          "--mprime-q", "1", "--lambda", "1e-3"])
        assert code == 1 and text == ""
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == (
            "error: psi is zero or not finite on the Rayleigh quotient's points at nu = "
            "2m omega/(hbar lam) = 2000 (--lambda, --omega, --mass, --hbar, --mprime-q)\n")

    def test_large_rayleigh_state_answers(self, tmp_path):
        # the state reaches 9.7e194 on the Rayleigh window: its square
        # overflowed the weight w psi^2, and the table was refused as "a flag
        # is too large for floating point"
        omega, lam = "1.3708728794381846", "0.002546955898564424"
        code, text = run_to_file(tmp_path, "x.json", ["spectrum", "--model", "qes2",
                                                      "--mprime-q", "10", "--lambda", lam,
                                                      "--omega", omega])
        assert code == 0
        exact = crs.oscillator_energy((0, 10), PhysParams(lam=float(lam), omega=float(omega)))
        assert json.loads(text)["rows"][0][2] == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("model,bound", [(["higgs", "--mprime-max", "0"], 999),
                                             (["crs", "--mprime-max", "0"], 999),
                                             (["qes1", "--l", "3", "--mprime-q", "1"], 499),
                                             (["qes2", "--mprime-q", "1"], 499)],
                             ids=["higgs", "crs", "qes1", "qes2"])
    def test_n_max_past_the_grid_names_n_max(self, model, bound, tmp_path, capsys):
        # k = n_max + 1 above n/4 of the grid was blamed on the nu flags; the
        # first refused value and one far past it both print the bound
        for n_max in sorted({bound + 1, 1000}):
            code, text = run_to_file(tmp_path, "x.json",
                                     ["spectrum", "--model", *model, "--n-max", str(n_max)])
            assert code == 1 and text == ""
            assert capsys.readouterr().err == (f"error: --n-max must be at most {bound} for "
                                               f"spectrum --model {model[0]}, got {n_max}\n")

    def test_small_lambda_qes1_answers(self, tmp_path):
        # the state as a logarithm stays finite where its factors overflowed
        code, text = run_to_file(tmp_path, "x.json", ["spectrum", "--model", "qes1", "--l", "3",
                                                      "--mprime-q", "1", "--lambda", "1e-3"])
        exact = crs.oscillator_energy((0, 1), PhysParams(lam=1e-3))
        assert code == 0 and abs(json.loads(text)["rows"][0][3] / exact - 1) <= 1e-10

    def test_nonfinite_system_is_one_error_line(self, tmp_path, capsys):
        # at lam = 1e-6 the corner quadrature overflows while the system is
        # assembled: one typed error, no numpy warning before it
        code, _ = run_to_file(tmp_path, "x.json",
                              ["spectrum", "--model", "higgs", "--lambda", "1e-6"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: assembled system has non-finite entries at nu = 2m omega/(hbar lam) = 2e+06 "
            "(--lambda, --omega, --mass, --hbar)\n")

    @pytest.mark.parametrize("args,error", [
        (["crs", "--lambda", "1e-200"], ParameterOverflowError),
        (["higgs", "--lambda", "1e-200"], ParameterOverflowError),
        (["higgs", "--lambda", "0.001", "--omega", "1.65"], UnresolvedError),
    ], ids=["crs-nu-overflows", "higgs-nu-overflows", "higgs-nonfinite-system"])
    def test_large_nu_names_its_flags(self, args, error, tmp_path, capsys):
        # nu = 2e+200 was reported as "omega = 2e+200 has no finite square",
        # and the non-finite system named no flag at all
        code, text = run_to_file(tmp_path, "x.json", ["spectrum", "--model", *args])
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nu = 2m omega/(hbar lam)" in err and "--lambda" in err
        parsed = cli._parser().parse_args(["spectrum", "--model", *args])
        with pytest.raises(error):
            cli.run_spectrum(parsed, cli._validate(parsed))

    @pytest.mark.parametrize("l", ["1e4", "1e6", "1e10"])
    def test_ground_level_in_roundoff_is_one_error_line(self, l, tmp_path, capsys):
        # unguarded, l = 1e10 gives E_numeric = -2.7e11 against the closed form 4.236
        code, text = run_to_file(tmp_path, "x.json",
                                 ["spectrum", "--model", "qes1", "--l", l, "--mprime-q", "1"])
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: lowest eigenvalue ") and err.count("\n") == 1
        assert "within the roundoff of the spectral edge" in err

    def test_large_l_above_the_roundoff_floor_answers(self, tmp_path):
        # l = 1000 reads E_0/edge = 5.2e-12, 23 times the floor
        code, text = run_to_file(tmp_path, "x.json",
                                 ["spectrum", "--model", "qes1", "--l", "1000", "--mprime-q", "1"])
        assert code == 0 and len(json.loads(text)["rows"]) == 3

    @pytest.mark.parametrize("model", [["higgs"], ["crs", "--mprime-q", "0"]],
                             ids=["higgs", "crs"])
    def test_n_above_the_series_cap_is_one_error_line(self, model, tmp_path, capsys):
        # the series summed 1e9 terms in a Python loop and did not return
        code, text = run_to_file(tmp_path, "x.json", ["wavefunction", "--model", *model,
                                                      "--N", "1000000000", "--grid-n", "2"])
        assert code == 1 and text == ""
        assert capsys.readouterr().err == \
            "error: N must be at most 1000 in a wavefunction, got 1000000000 (--N)\n"

    @pytest.mark.parametrize("flag,value,message", [
        ("--mass", "0", "mass must be positive, got 0.0"),
        ("--hbar", "-1", "hbar must be positive, got -1.0"),
        ("--omega", "nan", "omega must be positive, got nan"),
        ("--lambda", "0", "operation requires lam > 0, got 0.0"),
    ], ids=["mass", "hbar", "omega", "lambda"])
    def test_invalid_physics_flag_is_one_error_line(self, flag, value, message,
                                                    tmp_path, capsys):
        code, text = run_to_file(tmp_path, "x.json",
                                 ["spectrum", "--model", "higgs", flag, value])
        assert code == 1 and text == ""
        assert capsys.readouterr().err == f"error: {message} ({flag})\n"

    @pytest.mark.parametrize("args,flag", [
        (["potential", "--model", "crs", "--mprime-q", "1", "--grid-max", "nan"], "--grid-max"),
        (["potential", "--model", "qes1", "--l", "nan", "--mprime-q", "1"], "--l"),
        (["transform-check", "--mprime-q", "nan"], "--mprime-q"),
        (["potential", "--model", "higgs", "--grid-max", "inf"], "--grid-max"),
        (["spectrum", "--model", "higgs", "--lambda", "inf"], "--lambda"),
    ], ids=["crs-grid-max", "qes1-l", "transform-check", "higgs-grid-max", "lambda"])
    def test_nonfinite_float_flag_is_one_error_line(self, args, flag, tmp_path, capsys):
        # these printed tables of nan, or blamed r = 0, and exited 0 or 1
        code, _ = run_to_file(tmp_path, "x.json", args)
        assert code == 1 and not (tmp_path / "x.json").exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be finite, got ") and err.count("\n") == 1

    @pytest.mark.parametrize("args,line", [
        (["transform-check", "--mprime-q", "1e200"], NO_SQUARE_MQ),
        (["potential", "--model", "crs", "--mprime-q", "1e200", "--grid-n", "2"], NO_SQUARE_MQ),
        (["potential", "--model", "qes1", "--l", "3", "--mprime-q", "1e200", "--grid-n", "2"],
         NO_SQUARE_MQ),
        (["spectrum", "--model", "qes2", "--mprime-q", "1e200"], NO_SQUARE_MQ),
        (["potential", "--model", "qes2", "--mprime-q", "1e200", "--grid-n", "2"], NO_SQUARE_MQ),
        (["wavefunction", "--model", "crs", "--mprime-q", "1e200", "--grid-n", "2"],
         "the table row at coordinate = 5 has non-finite entries"),
        (["potential", "--model", "higgs", "--grid-max", "1e200", "--grid-n", "2"],
         "the table row at coordinate = 1e+200 has non-finite entries"),
    ], ids=["transform-check", "crs-potential", "qes1-potential", "qes2-spectrum",
            "qes2-potential", "crs-wavefunction", "higgs-potential"])
    def test_huge_finite_flag_is_one_error_line(self, args, line, tmp_path, capsys):
        # the first four raised a raw OverflowError, the last three printed
        # tables of nan or inf and exited 0; a table value that no formula
        # refuses names its row, not a flag
        code, _ = run_to_file(tmp_path, "x.json", args)
        assert code == 1 and not (tmp_path / "x.json").exists()
        assert capsys.readouterr() == ("", f"error: {line}\n")

    @pytest.mark.parametrize("args", [
        ["spectrum", "--model", "qes1", "--l", "3", "--mprime-q", "1"],
        ["potential", "--model", "higgs", "--grid-n", "2"],
        ["verify", "--suite", "flat-limit"],
    ], ids=["spectrum", "potential", "verify"])
    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unwritable_output_is_one_error_line(self, args, where, tmp_path, capsys):
        # these ended in a raw FileNotFoundError or IsADirectoryError traceback
        path = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        code = main(args + ["--output", str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def broken(args, params):
            raise RuntimeError("bug in a runner")

        monkeypatch.setattr(cli, "run_potential", broken)
        with pytest.raises(RuntimeError, match="bug in a runner"):
            run_to_file(tmp_path, "x.json", ["potential", "--model", "higgs"])


# CI's one-error-line commands, one a line, which its one-error-line step
# reads too, among them those that named no flag or blamed one the user did
# not set
ERROR_LINES = (Path(__file__).resolve().parent / "error_lines.txt").read_text().splitlines()


class TestErrorLines:
    @pytest.mark.parametrize("command", ERROR_LINES)
    def test_one_line_names_what_caused_it(self, command, capsys):
        # 16 of CI's 31 flag errors named none of the command's flags, and a
        # tiny --lambda was blamed as "a flag is too large for floating point":
        # each line names a flag the command sets, its table row or its output
        argv = command.split()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", err)) & set(argv)
        row = err.startswith("error: the table row at ")
        path = "--output" in argv and \
            err.startswith(f"error: cannot write {argv[argv.index('--output') + 1]}: ")
        assert named or row or path, err

    @pytest.mark.parametrize("name", ["mass", "hbar", "omega", "lam", "mprime_q", "l", "N",
                                      "mprime_max"])
    def test_each_input_is_written_as_its_flag(self, name):
        # an error's inputs are the parser's dests; cli._flag writes each as
        # the option that sets it
        sub, = (a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert (name, cli._flag(name)) in {(a.dest, option) for p in sub.choices.values()
                                           for a in p._actions for option in a.option_strings}

    def test_covers_the_ci_list(self):
        # the step loops over the lines of the file ERROR_LINES is read from,
        # so a blank line would run a bare command
        workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
        assert 'done < "$GITHUB_WORKSPACE/tests/error_lines.txt"' in workflow.read_text()
        assert ERROR_LINES and all(line.strip() == line != "" for line in ERROR_LINES)


class TestTables:
    def test_spectrum_schema_and_accuracy(self, tmp_path):
        code, text = run_to_file(tmp_path, "spec.json", [
            "spectrum", "--model", "higgs", "--lambda", "1", "--omega", "1",
            "--n-max", "2", "--mprime-max", "2"])
        assert code == 0
        doc = json.loads(text)
        jsonschema.validate(doc, load_schema())
        assert len(doc["rows"]) == 9
        assert all(row[4] < 1e-5 for row in doc["rows"])

    def test_spectrum_csv_header(self, tmp_path):
        code, text = run_to_file(tmp_path, "spec.csv", [
            "spectrum", "--model", "higgs", "--n-max", "0", "--mprime-max", "0",
            "--format", "csv"])
        assert code == 0
        assert text.splitlines()[0] == "N,mprime,E_analytic,E_numeric,relative_error"

    def test_qes1_l2_potential_is_oscillator(self, tmp_path):
        code, text = run_to_file(tmp_path, "pot.json", [
            "potential", "--model", "qes1", "--l", "2", "--mprime-q", "1",
            "--lambda", "1", "--grid-min", "0.2", "--grid-max", "3.0",
            "--grid-n", "40"])
        assert code == 0
        doc = json.loads(text)
        jsonschema.validate(doc, load_schema())
        diffs = [abs(v - 0.5 * r * r) for r, v in doc["rows"]]
        assert max(diffs) < 1e-10
        assert max(diffs) == pytest.approx(min(diffs), abs=1e-10)

    def test_wavefunction_table(self, tmp_path):
        code, text = run_to_file(tmp_path, "wf.json", [
            "wavefunction", "--model", "crs", "--mprime-q", "1", "--N", "1",
            "--grid-min", "0.2", "--grid-max", "2.0", "--grid-n", "10"])
        assert code == 0
        doc = json.loads(text)
        jsonschema.validate(doc, load_schema())
        assert doc["columns"] == ["coordinate", "value_real", "value_imag"]
        assert len(doc["rows"]) == 10

    def test_transform_check_constant_difference(self, tmp_path):
        code, text = run_to_file(tmp_path, "tc.json", [
            "transform-check", "--mprime-q", "0.5", "--grid-n", "20"])
        assert code == 0
        doc = json.loads(text)
        jsonschema.validate(doc, load_schema())
        assert all(abs(row[3]) < 1e-10 for row in doc["rows"])

    @pytest.mark.parametrize("mprime_q", ["0", "0.5", "1"])
    @pytest.mark.parametrize("lam", ["0.1", "1", "10", "100"])
    def test_transform_check_answers_where_it_holds_its_digits(self, lam, mprime_q, tmp_path):
        # the roundoff bound reads at most 9.5e-13 of m omega^2 r^2/2 here
        # (m'_Q = 1, lam = 100), and the difference stays under verify's
        # transform-closure gate
        code, text = run_to_file(tmp_path, "tc.json", [
            "transform-check", "--mprime-q", mprime_q, "--lambda", lam])
        assert code == 0
        assert max(abs(row[3]) / row[2] for row in json.loads(text)["rows"]) <= 1e-12

    @pytest.mark.parametrize("mprime_q", ["0", "0.5", "1"])
    @pytest.mark.parametrize("lam", ["1e3", "1e6", "1e10", "1e16"])
    def test_transform_check_refuses_a_lambda_past_its_digits(self, lam, mprime_q, tmp_path,
                                                              capsys):
        # the shift cancels the line potential down to m omega^2 r^2/2, and
        # at m'_Q = 0 the difference read 5.5e-13, 7.6e-10, 3.8e-6 and 1.0
        # of it here, with exit 0; the roundoff bound reads 2.8e-12 and up
        code, _ = run_to_file(tmp_path, "tc.json", [
            "transform-check", "--mprime-q", mprime_q, "--lambda", lam])
        assert code == 1 and not (tmp_path / "tc.json").exists()
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --lambda ") and err.count("\n") == 1

    def test_transform_check_answers_only_within_its_digits(self):
        # seeded draws over the envelope; at every radius the difference lies
        # within crs_potential_special_roundoff, and every table that answers
        # reads at most 1e-12 of m omega^2 r^2/2 (eps (|V_line| + |shift|)
        # let a table reading 1.19e-12 answer at m'_Q = 1, lam = 420)
        rng = np.random.default_rng(44)
        answered = 0
        for _ in range(400):
            mq, omega = float(rng.uniform(0, 3.5)), float(rng.choice([0.5, 1.0, 2.0]))
            lam, n = float(10 ** rng.uniform(-1, 16)), int(rng.choice([20, 100, 500]))
            args = cli._parser().parse_args([
                "transform-check", "--mprime-q", repr(mq), "--omega", repr(omega),
                "--lambda", repr(lam), "--grid-n", str(n)])
            params = cli._validate(args)
            rs = np.logspace(-0.5, 1.0, n)
            line = lambda x: crs.crs_potential_special(mq, params, x)
            difference = (transform.map_potential(mq, params, line, rs)
                          - higgs.oscillator_potential(params, rs))
            bound = crs.crs_potential_special_roundoff(mq, params, transform.x_of_r(params, rs))
            assert np.all(np.abs(difference) <= bound)
            try:
                _, rows = cli.run_transform_check(args, params)
            except PrecisionLossError:
                continue
            answered += 1
            assert max(abs(d) / t for _, _, t, d in rows) <= 1e-12
        assert answered >= 20


class TestExactBytes:
    # pure IEEE arithmetic at two grid points, so the bytes hold on every platform
    ARGS = ["potential", "--model", "higgs", "--grid-n", "2"]
    ONE = "1.00000000000000000e+00"

    def test_json(self, tmp_path):
        _, text = run_to_file(tmp_path, "pot.json", self.ARGS)
        params = "".join(f'    "{k}": {self.ONE}{sep}\n' for k, sep in
                         (("mass", ","), ("hbar", ","), ("omega", ","), ("lambda", "")))
        assert text == (
            '{\n  "command": "potential",\n  "model": "higgs",\n'
            '  "params": {\n' + params + '  },\n'
            '  "columns": [\n    "coordinate",\n    "V"\n  ],\n'
            '  "rows": [\n'
            '    [\n      5.00000000000000028e-02,\n      1.25000000000000024e-03\n    ],\n'
            '    [\n      5.00000000000000000e+00,\n      1.25000000000000000e+01\n    ]\n'
            '  ]\n}\n')

    def test_csv(self, tmp_path):
        _, text = run_to_file(tmp_path, "pot.csv", self.ARGS + ["--format", "csv"])
        assert text == ("coordinate,V\n"
                        "5.00000000000000028e-02,1.25000000000000024e-03\n"
                        "5.00000000000000000e+00,1.25000000000000000e+01\n")


class TestVerifyCommand:
    def test_exit_zero_and_schema(self, tmp_path):
        code, text = run_to_file(tmp_path, "rep.json", [
            "verify", "--suite", "flat-limit", "--suite", "special-functions"])
        assert code == 0
        doc = json.loads(text)
        jsonschema.validate(doc, load_schema())
        assert doc["passed"] is True

    @staticmethod
    def suites_run(text: str) -> list[str]:
        return [s["suite"] for s in json.loads(text)["suites"]]

    @pytest.mark.parametrize("order", [["all", "flat-limit"], ["flat-limit", "all"]])
    def test_all_anywhere_means_every_suite(self, order, tmp_path, monkeypatch):
        # stand-in for the full suite list, so the test stays cheap
        monkeypatch.setattr(verify, "ALL_SUITE_NAMES", ["special-functions", "flat-limit"])
        code, text = run_to_file(tmp_path, "rep.json",
                                 ["verify"] + [a for s in order for a in ("--suite", s)])
        assert code == 0
        assert self.suites_run(text) == ["special-functions", "flat-limit"]
        assert json.loads(text)["n_checks"] == 4

    def test_repeated_suite_runs_once(self, tmp_path):
        code, text = run_to_file(tmp_path, "rep.json", [
            "verify", "--suite", "flat-limit", "--suite", "special-functions",
            "--suite", "flat-limit"])
        assert code == 0
        assert self.suites_run(text) == ["flat-limit", "special-functions"]
        assert json.loads(text)["n_checks"] == 4

    def test_unknown_suite_beside_all_is_refused(self, capsys):
        assert main(["verify", "--suite", "all", "--suite", "no-such-suite"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: unknown suite(s) ['no-such-suite']; available: ")

    def test_verbose_lists_each_check_on_stderr(self, tmp_path, capsys):
        plain, verbose = tmp_path / "plain.json", tmp_path / "verbose.json"
        assert main(["verify", "--suite", "flat-limit", "--output", str(plain)]) == 0
        assert capsys.readouterr().err == ""
        assert main(["verify", "--suite", "flat-limit", "--verbose",
                     "--output", str(verbose)]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert verbose.read_bytes() == plain.read_bytes()
        names = [c["name"] for s in json.loads(plain.read_text())["suites"]
                 for c in s["checks"]]
        lines = err.splitlines()
        assert len(lines) == len(names) > 0
        for line, name in zip(lines, names):
            assert line.startswith(f"PASS flat-limit/{name}: ")

    @pytest.mark.parametrize("argv,lam,name", [
        (["--model", "higgs", "--lambda", "0.1"], 0.1, "higgs-spectrum/lam=0.1-mprime={}"),
        (["--model", "crs", "--lambda", "0.1"], 0.1, "crs-spectrum/natural-lam=0.1-mprimeq={}"),
        (["--model", "qes1", "--l", "3", "--mprime-q", "1", "--n-max", "0"], 1.0,
         "qes-certification/example1-ground-eigenvalue"),
        (["--model", "qes2", "--mprime-q", "1", "--n-max", "0"], 1.0,
         "qes-certification/example2-ground-eigenvalue")], ids=["higgs", "crs", "qes1", "qes2"])
    def test_spectrum_prints_what_verify_gates(self, argv, lam, name, tmp_path):
        # one protocol: in each channel m' the CLI prints, the largest relative
        # error over its levels N against oscillator_energy((N, m')) is, bit for
        # bit, the measured value of verify's row.  The QES rows solve the one
        # level N = 0 of the channel m' = m'_Q, as the certification does: the
        # polish of three levels starts from other guesses, and its qes1 N = 0
        # differs by 7.7e-14 relative
        code, text = run_to_file(tmp_path, "x.json", ["spectrum", *argv])
        assert code == 0
        rows = json.loads(text)["rows"]
        suite, check = name.split("/")
        measured = {c.name: c.measured for c in verify.run_suites([suite])}
        errors = {}
        for N, mp, _, E, _ in rows:
            exact = crs.oscillator_energy((N, mp), PhysParams(lam=lam))
            errors[mp] = max(errors.get(mp, 0.0), abs(E - exact) / exact)
        for mp, error in errors.items():
            assert error == measured[check.format(mp)]

    def test_determinism_byte_identical(self, tmp_path):
        args = ["verify", "--suite", "transform-closure", "--suite", "crs-model",
                "--suite", "numerics-oracle"]
        _, a = run_to_file(tmp_path, "a.json", args)
        _, b = run_to_file(tmp_path, "b.json", args)
        assert a == b
        assert len(a) > 0


class TestSharedParser:
    SEQUENCE = [
        ["spectrum", "--model", "higgs", "--mprime-max", "0"],
        ["verify", "--suite", "crs-model"],
        ["spectrum", "--model", "nope"],            # argparse error: SystemExit
        ["spectrum", "--model", "qes2", "--mprime-q", "1"],
        ["wavefunction", "--model", "higgs", "--N", "1", "--mprime", "1"],
    ]

    def run_sequence(self, tmp_path: Path, tag: str) -> list[bytes | None]:
        out = []
        for k, args in enumerate(self.SEQUENCE):
            path = tmp_path / f"{tag}-{k}.json"
            try:
                assert main(args + ["--output", str(path)]) == 0
            except SystemExit as exc:
                assert exc.code == 2
            out.append(path.read_bytes() if path.exists() else None)
        return out

    def test_reused_parser_leaks_no_state(self, tmp_path, monkeypatch, capsys):
        shared = self.run_sequence(tmp_path, "shared")
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)   # a new parser per call
        fresh = self.run_sequence(tmp_path, "fresh")
        assert shared == fresh
        assert [s is None for s in shared] == [False, False, True, False, False]

    @pytest.mark.parametrize("args", [SEQUENCE[0], SEQUENCE[1], SEQUENCE[3]],
                             ids=["spectrum", "verify", "qes2"])
    def test_repeated_call_leaves_no_cyclic_garbage(self, tmp_path, args):
        # a warm call leaves nothing for the cyclic collector, so a run of
        # calls sets off no collection of its own (an argparse parser is a cycle)
        out = str(tmp_path / "out.json")
        main(args + ["--output", out])
        gc.collect()
        gc.disable()
        try:
            main(args + ["--output", out])
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_parser_is_built_on_the_first_call(self, startup):
        # a fresh interpreter: importing the CLI builds no parser, and two
        # calls of main build one
        assert startup["parsers_at_import"] == 0
        assert startup["parsers_built"] == 1


class TestSteadyHeap:
    """cli.main fixes glibc's heap thresholds once per process."""

    @staticmethod
    def recorded_mallopt(monkeypatch) -> list:
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        for name in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES"):
            monkeypatch.delenv(name, raising=False)
        return calls

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap thresholds")
    def test_warm_verify_faults_in_no_pages(self, tmp_path):
        # with glibc's dynamic thresholds each system's arrays went back to
        # the kernel: a warm crs-spectrum pass took about 3,200 minor faults
        args = ["verify", "--suite", "crs-spectrum", "--output", str(tmp_path / "rep.json")]
        for _ in range(2):
            assert main(args) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(args) == 0
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 10

    def test_glibc_gets_both_thresholds(self, monkeypatch):
        calls = self.recorded_mallopt(monkeypatch)
        monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.rtld.optional_static_tls=2048")
        cli._steady_heap.__wrapped__()
        assert calls == [(-3, 1 << 20), (-1, 8 << 20)]     # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    @pytest.mark.parametrize("libc,env", [
        (("", ""), {}),
        (("glibc", "2.36"), {"MALLOC_TRIM_THRESHOLD_": "131072"}),
        (("glibc", "2.36"), {"MALLOC_MMAP_THRESHOLD_": "131072"}),
        (("glibc", "2.36"), {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}),
    ], ids=["other-libc", "trim-set", "mmap-set", "malloc-tunable-set"])
    def test_other_libcs_and_user_settings_keep_their_heap(self, libc, env, monkeypatch):
        calls = self.recorded_mallopt(monkeypatch)
        monkeypatch.setattr(platform, "libc_ver", lambda: libc)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        cli._steady_heap.__wrapped__()
        assert calls == []

    def test_import_sets_nothing_and_main_sets_once(self, startup):
        assert startup["heap_at_import"] == 0
        assert startup["heap_set"] == 1

    def test_readings_are_bit_identical_under_the_policy(self, fresh_python):
        out, _ = fresh_python(
            "from curvosc import cli, verify\n"
            "read = lambda: [c.measured.hex() for c in verify.run_suites(['crs-spectrum'])]\n"
            "before = read()\n"
            "cli._steady_heap()\n"
            "print(len(before), before == read())\n")
        count, same = out.split()
        assert int(count) > 0 and same == "True"


class TestOneBlasThread:
    """Importing the CLI caps OpenBLAS at one thread before numpy loads,
    unless the user set a count; the library leaves the environment alone.
    The test process has imported curvosc.cli, so its children hold the
    variable unless it is removed."""

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="Linux's task list")
    def test_cli_import_runs_one_thread(self, fresh_python):
        # numpy's and scipy's OpenBLAS each started a pool: 3 threads on 2 cores
        out, _ = fresh_python(
            "import os, curvosc.cli\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))\n",
            unset=["OPENBLAS_NUM_THREADS"])
        assert out.split() == ["1", "1"]

    def test_library_sets_nothing_and_a_user_setting_wins(self, fresh_python):
        out, _ = fresh_python(
            "import os, curvosc, curvosc.numerics, curvosc.problems, curvosc.verify, "
            "curvosc.crs, curvosc.higgs, curvosc.transform, curvosc.special_functions\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
            "import curvosc.cli\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n", unset=["OPENBLAS_NUM_THREADS"])
        assert out.split() == ["None", "2"]
