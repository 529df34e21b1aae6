import importlib
import importlib.util
import warnings
from pathlib import Path

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
