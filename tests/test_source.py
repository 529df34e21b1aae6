import warnings
from pathlib import Path

import superjacobi

PACKAGE = Path(superjacobi.__file__).parent


def test_modules_compile_without_warnings():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")
