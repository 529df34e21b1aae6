import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import superjacobi

PACKAGE = Path(superjacobi.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_modules_compile_without_warnings():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


EXACT_MODULES = ("ratfunc", "series", "qseries", "numtheory", "labels",
                 "characters", "ramanujan", "superalgebra", "certificate")


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_modules_are_float_free(module):
    # the exact engine computes over Q only: no float or complex literal,
    # no float()/complex() and no cmath
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append((node.lineno, node.id))
        elif (isinstance(node, ast.Import)
              and any(a.name == "cmath" for a in node.names)
              or isinstance(node, ast.ImportFrom) and node.module == "cmath"):
            found.append((node.lineno, "cmath"))
    assert not found, f"{module}.py (line, what): {sorted(found)}"


def importers_of(wanted) -> set[str]:
    """The package modules with an import statement, lazy ones included,
    that names a module for which ``wanted`` is true; a relative import of
    module m names ``superjacobi.m``."""
    importers = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.ImportFrom):
                names = [f"superjacobi.{m}" for m in
                         ([node.module] if node.module
                          else [a.name for a in node.names])]
            else:
                continue
            if any(map(wanted, names)):
                importers.add(path.stem)
    return importers


def test_only_cli_imports_numpy():
    # the probe fits in plain Python; cli.py keeps numpy only for the
    # benchmark's import-time read (test_cli_import_reports_numpy)
    assert importers_of(lambda n: n.split(".")[0] == "numpy") == {"cli"}


def test_no_cli_path_imports_the_ratfunc_engine():
    # series is built on RatFunc and no module imports series, so the engine
    # is the tests' reference and no job loads it
    assert importers_of("superjacobi.ratfunc".__eq__) == {"series"}
    assert importers_of("superjacobi.series".__eq__) == set()


def test_traced_names_resolve():
    # the benchmark's tracer wraps these names by getattr; a renamed or
    # deleted one should fail here, not only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, path in tracer.SPANNED:
        obj = importlib.import_module(f"superjacobi.{module}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"{module}.{path}"
            obj = getattr(obj, attr)
        assert callable(obj), f"{module}.{path}"
    # install() rebinds superalgebra.bracket for its counters, outside SPANNED
    sa = importlib.import_module("superjacobi.superalgebra")
    assert callable(getattr(sa, "bracket", None)), "superalgebra.bracket"
    rf = importlib.import_module("superjacobi.ratfunc").RatFunc
    for op in tracer.RATFUNC_OPS:
        assert op in rf.__dict__, f"RatFunc.{op}"


def test_public_namespace_resolves():
    namespace = {}
    exec("from superjacobi import *", namespace)
    for name in superjacobi.__all__:
        assert name in namespace, name
        assert getattr(superjacobi, name) is namespace[name], name
        obj = namespace[name]
        assert obj.__module__.startswith("superjacobi."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(superjacobi.__all__) <= set(dir(superjacobi))
    # series binds ZPiSeries from qseries, its one definition
    from superjacobi import qseries, series
    assert superjacobi.ZPiSeries is series.ZPiSeries is qseries.ZPiSeries
    assert superjacobi.QSeries is qseries.QSeries
    with pytest.raises(AttributeError, match="'no_such_name'"):
        superjacobi.no_such_name


def test_reference_engine_is_not_exported():
    # RatFunc and QYSeries are the tests' reference engine: they resolve in
    # their own modules, not in the package namespace
    for module, name in (("ratfunc", "RatFunc"), ("series", "QYSeries")):
        assert name not in superjacobi.__all__
        with pytest.raises(AttributeError, match=f"'{name}'"):
            getattr(superjacobi, name)
        assert callable(getattr(
            importlib.import_module(f"superjacobi.{module}"), name))


# -- what a CLI job imports ----------------------------------------------------

# Runs the CLI on its arguments with the output discarded.
RUN_JOB = """
import os, sys
from superjacobi import cli
if cli.main(sys.argv[1:] + ["--out", os.devnull]):
    sys.exit("job failed")
"""
REPORT = """
import sys
print(*(m for m in sys.modules if m.startswith("superjacobi.")))
"""


def loaded_after(script: str, *argv: str) -> set[str]:
    """The package's modules left in sys.modules, without the package
    prefix, once a fresh interpreter has run ``script`` on ``argv``."""
    proc = subprocess.run([sys.executable, "-c", script + REPORT, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("superjacobi.") for m in proc.stdout.split()}


def test_import_loads_no_computation_module():
    assert loaded_after("import superjacobi") == set()
    assert loaded_after("import superjacobi.cli") == {"cli", "errors"}


BASE = {"cli", "errors"}
LABELS = BASE | {"labels"}
Y_FREE = BASE | {"qseries", "numtheory"}
ELLIPTIC = Y_FREE | {"elliptic"}
CHARACTERS = LABELS | {"characters"}
SUPERALGEBRA = BASE | {"superalgebra"}
CERTIFIED = SUPERALGEBRA | {"certificate"}


@pytest.mark.parametrize("argv, modules", [
    ("ramanujan --order 4 --max-k 1", ELLIPTIC | {"ramanujan"}),
    ("char --u 3 --j 1 --k 1 --order 4", CHARACTERS),
    ("spectrum --u 3", LABELS),
    ("flow --u 3 --order 6", CHARACTERS),
    ("eisenstein --k 2 --order 4", Y_FREE),
    ("wp-pde --z-order 4 --order 4", ELLIPTIC),
    ("xi-shift --order 4", ELLIPTIC),
    ("xi-zetabar --t-order 4 --order 4", ELLIPTIC),
    ("zetabar-table --points 1", ELLIPTIC),
    ("jacobi-test --u 2 --gen x10 --order 6", LABELS | {"jacobi"}),
    ("bracket L 2 L -1", SUPERALGEBRA),
    ("jacobi-identity --max 1", CERTIFIED),
    ("realization-check --max 1 --window 4", CERTIFIED),
    ("xi-shift --self-test", ELLIPTIC),
    ("xi-zetabar --self-test", ELLIPTIC),
])
def test_job_loads_only_its_modules(argv, modules):
    assert loaded_after(RUN_JOB, *argv.split()) == modules


def test_cli_import_reports_numpy():
    """``perfbench/run.py`` reads ``cli.import_s`` and ``cli.numpy_import_s``
    from the ``superjacobi.cli`` and ``numpy`` lines of ``python -X
    importtime -c "import superjacobi.cli"``, with no fallback, so a traced
    benchmark run fails with ``KeyError`` once importing the CLI stops loading
    numpy; two earlier changes that deferred it failed that way.  A
    benchmark change that makes ``cli.numpy_import_s`` optional should
    update this test along with it."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import superjacobi.cli"],
        capture_output=True, text=True, env=env, check=True)
    lines = [re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)", line)
             for line in proc.stderr.splitlines()]
    assert {"superjacobi.cli", "numpy"} <= {m.group(3) for m in lines if m}
