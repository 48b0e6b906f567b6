"""Import layering of the package, read from the source with ast.

Model modules sit at the bottom, the numerical oracle beside them, the
problem builders and check suites above, and the CLI on top.  The LAPACK
loader under the oracle imports no curvosc module, and neither does the
package root, so importing a model module loads no solver.  An import that
points upward fails this test.  The CLI reaches the solver only through
verify's spectrum protocol, so importing it loads no solver either, and it
alone writes the command-line flags that an error blames."""

import ast
import inspect
import re
from fnmatch import fnmatch
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "curvosc"
MODELS = {"special_functions", "params", "crs", "higgs", "transform"}
UPPER = {"numerics", "problems", "verify", "cli"}


def imported_modules(path: Path) -> set[str]:
    """curvosc modules that a source file imports, at any depth of the file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("curvosc"):
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:       # from . import a, b
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "curvosc" and len(parts) > 1:
                    found.add(parts[1])
    return found


def forbidden(module: str) -> set[str]:
    """The modules that `module` may not import."""
    banned = {"cli"}
    if module != "cli":
        banned.add("verify")
    if module in MODELS:
        banned |= UPPER
    if module == "numerics":
        banned |= MODELS
    if module in ("_lapack", "__init__"):
        banned |= {path.stem for path in SRC.glob("*.py")}
    return banned - {module}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_upward_import(path):
    upward = imported_modules(path) & forbidden(path.stem)
    assert not upward, f"{path.name} imports {sorted(upward)} from a layer above it"


def test_cli_imports_no_solver_name():
    # the CLI formats verify.spectrum's rows; the protocol itself, with the
    # builders and the oracle it calls, lives below the CLI
    solver = imported_modules(SRC / "cli.py") & {"numerics", "problems", "_lapack"}
    assert not solver, f"cli.py imports {sorted(solver)}"


def test_parser_sees_relative_and_late_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from . import crs, higgs\nfrom .numerics import assemble\n"
                      "def f():\n    from .verify import run_suites\n"
                      "import curvosc.cli\nimport numpy\n")
    assert imported_modules(sample) == {"crs", "higgs", "numerics", "verify", "cli"}


CLOSED_FORMS = ("*_energy", "*_wavefunction*", "*groundstate*")


def referenced_names(path: Path) -> set[str]:
    """Names a source file imports from curvosc or reads as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("curvosc")):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


# the closed forms each layer under the checks may read: problems.py closes
# the solvable QES channel at both ends with its ground state
ALLOWED_CLOSED_FORMS = {"numerics.py": set(), "problems.py": {"log_groundstate"}}


@pytest.mark.parametrize("name", sorted(ALLOWED_CLOSED_FORMS))
def test_oracle_reads_no_closed_form(name):
    # the spectrum, eigenfunctions and ground states are what the oracle
    # checks, so the oracle never evaluates one, and its problem builders
    # read only the log ground state that closes an end
    closed = {n for n in referenced_names(SRC / name)
              if any(fnmatch(n, pattern) for pattern in CLOSED_FORMS)}
    assert closed == ALLOWED_CLOSED_FORMS[name], f"{name} reads {sorted(closed)}"


def test_problems_read_the_ground_state_only_to_close_an_end():
    # every read of log_groundstate in problems.py lies in a function nested
    # in qes_channel_problem: the end profile it hands to EndpointRule
    tree = ast.parse((SRC / "problems.py").read_text())
    reads = lambda node: sum(isinstance(n, ast.Name) and n.id == "log_groundstate"
                             for n in ast.walk(node))
    builder, = (f for f in tree.body if getattr(f, "name", "") == "qes_channel_problem")
    nested = [f for f in ast.walk(builder) if isinstance(f, ast.FunctionDef) and f is not builder]
    assert reads(tree) == sum(map(reads, nested)) > 0


def flag_literals(path: Path) -> set[str]:
    """The string literals of a source file, f-string parts and docstrings
    included, that hold a command-line flag: "--" and a letter, not inside a word."""
    return {node.value for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.search(r"(?<![\w-])--[A-Za-z]", node.value)}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "cli.py"),
                         ids=lambda p: p.name)
def test_only_the_cli_names_a_flag(path):
    # an error below the CLI names its inputs by their library names
    # (CurvoscError.inputs), and cli.main alone writes them as flags
    assert not flag_literals(path), f"{path.name} holds a command-line flag"


def test_flag_literals_include_fstring_parts(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text('a = f"{x} from --lambda"\nb = "--mass"\nc = "x---omega"\n'
                      'd = "2 -- 1"\n')
    assert flag_literals(sample) == {" from --lambda", "--mass"}


def public_functions(module) -> set[str]:
    """The functions a module defines without a leading underscore."""
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


def test_closed_form_patterns_cover_the_model_api():
    from curvosc import crs, higgs
    api = public_functions(crs) | public_functions(higgs)
    assert {n for n in api if any(fnmatch(n, p) for p in CLOSED_FORMS)} >= {
        "oscillator_energy", "crs_wavefunction_special",
        "crs_wavefunction_special_real", "higgs_wavefunction", "qes_groundstate"}


def test_model_modules_load_without_the_solver(startup):
    # crs, higgs, transform, special_functions and params, imported first in
    # a fresh interpreter, load neither scipy nor the oracle
    assert startup["after_models"] == []


def test_cli_loads_without_the_solver(startup):
    # a fresh import of the CLI, after the model modules, loads neither
    # scipy nor the oracle; a spectrum or verify command loads the oracle
    # through verify
    assert startup["after_cli"] == []
