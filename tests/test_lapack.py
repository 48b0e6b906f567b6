"""curvosc._lapack: the solver's three LAPACK routines and verify's dsterf
come from scipy's compiled module without importing scipy or scipy.linalg, its
eigh_tridiagonal returns what scipy.linalg.eigh_tridiagonal, the
reference here, returns, bit for bit, on the file-loaded module and on the
scipy.linalg.lapack fallback, and dsterf what
scipy.linalg.eigvalsh_tridiagonal returns through sterf; neither importing
the solver nor any command calls numpy.linalg."""

import sys
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal as scipy_eigh_tridiagonal, eigvalsh_tridiagonal

from curvosc import _lapack, cli, numerics, verify
from curvosc.crs import QesSpec
from curvosc.numerics import assemble, lowest_eigenpairs
from curvosc.params import PhysParams
from curvosc.problems import crs_natural_problem, crs_wide_problem, higgs_oscillator_problem, \
    qes_channel_problem

UNIT = PhysParams()


PROBLEMS = {
    "polar-k50": (lambda: higgs_oscillator_problem(0, UNIT, 8001), 50),
    "qes2-profile": (lambda: qes_channel_problem(1, QesSpec.example2(1, UNIT), UNIT, 8001), 3),
    "crs-wide": (lambda: crs_wide_problem(1, UNIT, 16000), 8),
}


@cache
def standard_form(case):
    make, k = PROBLEMS[case]
    d, e, _ = assemble(make())
    return d, e, k


def loose(d, e):
    """The loose bisection tolerance of the guess grids, sqrt(eps) ||T||."""
    return np.sqrt(np.finfo(float).eps) * numerics._gershgorin(d, e)[1]


def test_startup_leaves_scipy_linalg_unimported(startup):
    # the CLI and verify load neither scipy's package inits nor numpy's
    # random and polynomial packages, and take _flapack from its file
    assert [startup["imported"], startup["lapack_source"]] == [[], "extension file"]


def test_missing_scipy_is_one_import_error(monkeypatch):
    # without scipy the import system finds no package: the loader names
    # the declared dependency instead of reading a None spec's attributes
    monkeypatch.delitem(sys.modules, _lapack._NAME, raising=False)
    monkeypatch.setattr(_lapack, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match=r"scipy>=1\.13"):
        _lapack._load()


@pytest.mark.parametrize("locations", [None, []], ids=["none", "empty"])
def test_scipy_spec_without_locations_takes_the_fallback(monkeypatch, locations):
    # a spec that names no directory to look in loads scipy.linalg.lapack;
    # indexing its locations raised TypeError (None) or IndexError ([])
    monkeypatch.delitem(sys.modules, _lapack._NAME, raising=False)
    monkeypatch.setattr(_lapack, "find_spec",
                        lambda name: SimpleNamespace(submodule_search_locations=locations))
    module, source = _lapack._load()
    assert source == "scipy.linalg.lapack" and module.dstebz is not None


@pytest.mark.parametrize("loose_tol", [False, True], ids=["default-tol", "loose-tol"])
@pytest.mark.parametrize("case", PROBLEMS)
def test_values_match_scipy(case, loose_tol):
    d, e, k = standard_form(case)
    options = dict(eigvals_only=True, select_range=(0, k - 1),
                   tol=loose(d, e) if loose_tol else 0.0)
    ours = _lapack.eigh_tridiagonal(d, e, **options)
    assert ours.shape == (k,)
    assert np.array_equal(ours, scipy_eigh_tridiagonal(d, e, select="i", **options))


@pytest.mark.parametrize("case", PROBLEMS)
def test_vectors_match_scipy(case):
    d, e, k = standard_form(case)
    w, v = _lapack.eigh_tridiagonal(d, e, select_range=(0, k - 1))
    ref_w, ref_v = scipy_eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    assert v.shape == (d.size, k)
    assert np.array_equal(w, ref_w) and np.array_equal(v, ref_v)


def test_dsterf_matches_scipy():
    # the whole spectrum of verify's ql-eigensolve-agreement system
    d, e, _ = assemble(crs_natural_problem(1, PhysParams(lam=1.0), 300))
    vals, info = _lapack.dsterf(d, e)
    assert info == 0
    assert np.array_equal(vals, eigvalsh_tridiagonal(d, e, lapack_driver="sterf"))


def test_no_command_calls_numpy_linalg(tmp_path, fresh_python):
    # a dense numpy.linalg call pages in numpy's own OpenBLAS, whose worker
    # spins a core on after the call; the solver keeps to scipy's LAPACK
    # from its import on (the Gauss-Legendre tables are built at import),
    # and so do verify and the spectra
    out, _ = fresh_python(
        "import numpy as np\n"
        "def refused(*args, **kwargs):\n"
        "    raise AssertionError('numpy.linalg called')\n"
        "for name in ('eigvalsh', 'eigh', 'eig'):\n"
        "    setattr(np.linalg, name, refused)\n"
        "import curvosc.numerics, curvosc.cli as cli\n"
        "for args in (['verify', '--suite', 'numerics-oracle'], ['spectrum', '--model', 'higgs']):\n"
        f"    assert cli.main(args + ['--output', {str(tmp_path / 'x.json')!r}]) == 0, args\n"
        "print('ok')")
    assert out == "ok\n"


class Refused:
    """An extension loader that cannot load anything."""

    def __init__(self, name, path):
        raise ImportError(f"refused to load {name}")


def test_forced_fallback_gives_identical_results(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(_lapack, "ExtensionFileLoader", Refused)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    module, source = _lapack._load()
    assert source == "scipy.linalg.lapack"
    d, e, k = standard_form("polar-k50")
    prob = qes_channel_problem(1, QesSpec.example2(1, UNIT), UNIT, 8001)

    def results():
        w, v = _lapack.eigh_tridiagonal(d, e, select_range=(0, k - 1))
        return w, v, *lowest_eigenpairs(prob, 3), verify.dsterf(d[:200], e[:199])[0]

    before = results()
    for name in ("dgtsv", "dstebz", "dstein", "dsterf"):
        monkeypatch.setattr(_lapack, name, getattr(module, name))
        for user in (numerics, verify):
            if hasattr(user, name):
                monkeypatch.setattr(user, name, getattr(module, name))
    for a, b in zip(before, results()):
        assert np.array_equal(a, b)
    # a LAPACK failure (info 1) still ends in the typed error
    stebz = _lapack.dstebz
    monkeypatch.setattr(_lapack, "dstebz", lambda *args: (*stebz(*args)[:-1], 1))
    assert cli.main(["spectrum", "--model", "crs", "--lambda", "1e150",
                     "--output", str(tmp_path / "x.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tridiagonal eigensolve failed") and err.count("\n") == 1


def test_fallback_in_a_fresh_process_prints_the_same_spectrum(tmp_path, fresh_python):
    args = ["spectrum", "--model", "qes2", "--mprime-q", "1"]
    assert cli.main(args + ["--output", str(tmp_path / "x.json")]) == 0
    out, err = fresh_python(
        # importlib.abc registers the loader classes by name when imported
        "import importlib.abc, importlib.machinery as machinery\n"
        "class Refused:\n"
        "    def __init__(self, name, path):\n"
        "        raise ImportError(name)\n"
        "machinery.ExtensionFileLoader = Refused\n"
        "import sys, curvosc._lapack as L, curvosc.cli\n"
        "print(L.SOURCE, file=sys.stderr)\n"
        f"sys.exit(curvosc.cli.main({args!r}))")
    assert err == "scipy.linalg.lapack\n"
    assert out == (tmp_path / "x.json").read_text()
