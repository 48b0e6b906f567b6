"""The three LAPACK routines the solver calls (dgtsv, dstebz, dstein), and
dsterf, all eigenvalues of a symmetric tridiagonal by implicit QL, which
verify's numerics-oracle checks the solver against; all four are taken
from scipy's compiled f2py module without importing scipy or scipy.linalg.

The package init of scipy.linalg costs about 0.35 s per process (it pulls
in scipy's array-API shim, which imports numpy.f2py, numpy.testing and
numpy.ma), about half of a fresh `curvosc spectrum` run, and curvosc uses
nothing of it but these routines, nor of scipy's own package init (17-25
ms after numpy).  So this module imports no scipy package at all: it asks
the import system where the scipy package lies (importlib.util.find_spec,
which reads the path and executes nothing) and loads
scipy/linalg/_flapack<EXTENSION_SUFFIX> from its file.  A _flapack that is
already imported is reused; where the file cannot be found or loaded, the
routines come from the public scipy.linalg.lapack.  SOURCE names the path
taken.

eigh_tridiagonal selects by index only.  It is the stebz/stein path that
scipy.linalg.eigh_tridiagonal takes for select="i": the same calls with
the same arguments, so the results agree bit for bit.
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

import numpy as np

_NAME = "scipy.linalg._flapack"


def _load():
    """scipy's f2py LAPACK module and the path that gave it: "sys.modules",
    "extension file" or, where the file cannot be loaded, the fallback
    "scipy.linalg.lapack"."""
    if _NAME in sys.modules:
        return sys.modules[_NAME], "sys.modules"
    # where the scipy package lies, from the import system's finders;
    # scipy/__init__ does not run
    scipy = find_spec("scipy")
    if scipy is None:
        raise ImportError("curvosc needs scipy>=1.13 for its LAPACK routines, "
                          "and no scipy package was found")
    # the first location that holds the file; a spec without locations
    # (None or []) takes the fallback
    for location in scipy.submodule_search_locations or ():
        finder = FileFinder(str(Path(location) / "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        try:
            spec = finder.find_spec(_NAME)
            if spec is not None:
                module = module_from_spec(spec)
                spec.loader.exec_module(module)
                return module, "extension file"
        except (ImportError, OSError):
            pass
    from scipy.linalg import lapack
    return lapack, "scipy.linalg.lapack"


_flapack, SOURCE = _load()
dgtsv, dstebz, dstein = _flapack.dgtsv, _flapack.dstebz, _flapack.dstein
dsterf = _flapack.dsterf


def _check(info: int, driver: str) -> None:
    """scipy's treatment of a LAPACK info code: ValueError for an illegal
    argument, numpy's (and scipy's) LinAlgError for a failure."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {driver}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{driver} did not converge (LAPACK info={info})")


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray, *, select_range,
                     eigvals_only: bool = False, tol: float = 0.0):
    """Eigenvalues il..iu (0-based, inclusive: select_range) of the symmetric
    tridiagonal (d, e), ascending, by bisection (dstebz) to the absolute
    tolerance tol (0: LAPACK's default eps ||T||); with eigvals_only False
    also their unit eigenvectors as columns, by inverse iteration (dstein)."""
    il, iu = select_range
    # vectors need stebz's block order; they are put in matrix order below
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, il + 1, iu + 1, float(tol),
                                        "E" if eigvals_only else "B")
    _check(info, "stebz (eigh_tridiagonal)")
    w = w[:m]
    if eigvals_only:
        return w
    v, info = dstein(d, e, w, iblock, isplit)
    _check(info, "stein (eigh_tridiagonal)")
    order = np.argsort(w)
    return w[order], v[:, order]
