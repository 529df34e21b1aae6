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
    with pytest.raises(AttributeError, match="'no_such_name'"):
        superjacobi.no_such_name


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
SERIES = BASE | {"ratfunc", "series"}
ELLIPTIC = SERIES | {"numtheory", "elliptic"}
CHARACTERS = SERIES | {"characters"}
SUPERALGEBRA = BASE | {"superalgebra"}


@pytest.mark.parametrize("argv, modules", [
    ("ramanujan --order 4 --max-k 1", ELLIPTIC | {"ramanujan"}),
    ("char --u 3 --j 1 --k 1 --order 4", CHARACTERS),
    ("spectrum --u 3", CHARACTERS),
    ("flow --u 3 --order 6", CHARACTERS),
    ("eisenstein --k 2 --order 4", SERIES | {"numtheory"}),
    ("wp-pde --z-order 4 --order 4", ELLIPTIC),
    ("xi-shift --order 4", ELLIPTIC),
    ("xi-zetabar --t-order 4 --order 4", ELLIPTIC),
    ("zetabar-table --points 1", ELLIPTIC),
    ("jacobi-test --u 2 --gen x10 --order 6", CHARACTERS | {"jacobi"}),
    ("bracket L 2 L -1", SUPERALGEBRA),
    ("jacobi-identity --max 1", SUPERALGEBRA),
    ("realization-check --max 1 --window 4", SUPERALGEBRA),
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
