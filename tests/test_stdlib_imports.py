"""The package imports only the standard library and itself, and every
name it exports exists."""

import ast
import importlib
import sys
from pathlib import Path

import weylalt


def test_every_import_is_stdlib_or_weylalt():
    sources = sorted(Path(weylalt.__file__).parent.glob("*.py"))
    roots = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots.update((path.name, a.name.split(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add((path.name, node.module.split(".")[0]))
    # The walk sees the package's own standard-library imports.
    assert ("kostant.py", "fractions") in roots and len(sources) >= 10
    outside = {
        (name, root)
        for name, root in roots
        if root != "weylalt" and root not in sys.stdlib_module_names
    }
    assert outside == set()


def test_every_exported_name_resolves():
    package = Path(weylalt.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    names = ["weylalt"] + [f"weylalt.{stem}" for stem in modules]
    exported = {}
    for name in names:
        module = importlib.import_module(name)
        exported[name] = getattr(module, "__all__", ())
        missing = [n for n in exported[name] if not hasattr(module, n)]
        assert missing == [], f"{name}.__all__ names {missing}"
    # The check reads real export lists.
    assert "compute" in exported["weylalt.altset"]
    assert "to_json" in exported["weylalt.bas"]
