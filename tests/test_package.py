import ast
import sys
from pathlib import Path

import pytest

import nccumulants

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_and_every_export_resolves():
    namespace = {}
    exec("from nccumulants import *", namespace)
    exported = set(nccumulants.__all__)
    assert len(exported) == len(nccumulants.__all__)
    for name in exported:
        assert getattr(nccumulants, name) is namespace[name]


def test_standard_library_only():
    # the library has no dependencies: every module imports only the
    # standard library and its own package, and the project declares none
    tomllib = pytest.importorskip("tomllib")
    modules = sorted((ROOT / "src" / "nccumulants").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "nccumulants", (path.name, name)
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
