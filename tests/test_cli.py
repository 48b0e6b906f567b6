import gc
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from curvosc import cli
from curvosc.cli import fmt_float, main, serialize_csv, serialize_json


def load_schema():
    with resources.files("curvosc").joinpath("schemas/output.schema.json").open() as fh:
        return json.load(fh)


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

    @pytest.mark.parametrize("lam", ["1e200", "1e300"])
    @pytest.mark.parametrize("model", [["higgs"], ["crs"], ["qes2", "--mprime-q", "1"]],
                             ids=["higgs", "crs", "qes2"])
    def test_overflowing_curvature_is_exit_one(self, model, lam, tmp_path, capsys):
        code, _ = run_to_file(tmp_path, "x.json",
                              ["spectrum", "--model", *model, "--lambda", lam])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("model,lam", [(["higgs"], "1e150"),
                                           (["qes2", "--mprime-q", "1"], "1e100")],
                             ids=["higgs", "qes2"])
    def test_failed_lapack_eigensolve_is_one_error_line(self, model, lam, tmp_path, capsys):
        # finite but extreme entries make the LAPACK bisection fail; the
        # user sees one typed error, not LAPACK's message
        code, _ = run_to_file(tmp_path, "x.json",
                              ["spectrum", "--model", *model, "--lambda", lam])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "eigensolve failed" in err
        assert "LAPACK" not in err and "stebz" not in err

    @pytest.mark.parametrize("lam", ["10", "1e4", "1e8", "1e9"])
    def test_crs_error_stays_flat_above_unit_curvature(self, lam, tmp_path):
        # above lam = 1 the wall cutoff shrinks with x* = sinh(pi/2)/sqrt(lam),
        # so the wall keeps its share of the branch and the error its size
        code, text = run_to_file(tmp_path, "x.json",
                                 ["spectrum", "--model", "crs", "--lambda", lam])
        assert code == 0
        rows = json.loads(text)["rows"]
        assert len(rows) == 9
        assert max(row[-1] for row in rows) <= 1e-8

    def test_nonfinite_system_is_one_error_line(self, tmp_path, capsys):
        # at lam = 1e-6 the corner quadrature overflows while the system is
        # assembled: one typed error, no numpy warning before it
        code, _ = run_to_file(tmp_path, "x.json",
                              ["spectrum", "--model", "higgs", "--lambda", "1e-6"])
        assert code == 1
        assert capsys.readouterr().err == "error: assembled system has non-finite entries\n"

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def broken(config):
            raise RuntimeError("bug in a runner")

        monkeypatch.setattr(cli, "run_potential", broken)
        with pytest.raises(RuntimeError, match="bug in a runner"):
            run_to_file(tmp_path, "x.json", ["potential", "--model", "higgs"])


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


class TestVerifyCommand:
    def test_exit_zero_and_schema(self, tmp_path):
        code, text = run_to_file(tmp_path, "rep.json", [
            "verify", "--suite", "flat-limit", "--suite", "special-functions"])
        assert code == 0
        doc = json.loads(text)
        jsonschema.validate(doc, load_schema())
        assert doc["passed"] is True

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

    def test_parser_is_built_on_the_first_call(self):
        # a fresh interpreter: importing the CLI builds no parser
        code = ("import os, curvosc.cli as c; "
                "assert c._parser.cache_info().currsize == 0; "
                "c.main(['potential', '--model', 'higgs', '--output', os.devnull]); "
                "c.main(['potential', '--model', 'higgs', '--output', os.devnull]); "
                "assert c._parser.cache_info().misses == 1")
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
