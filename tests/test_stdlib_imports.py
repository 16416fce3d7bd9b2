"""The package imports only the standard library and itself."""

import ast
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
