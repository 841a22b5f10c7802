"""The runtime is stdlib-only: every import of ``src/gvc`` is relative, of
``gvc`` itself, or of a module of the standard library."""
import ast
import os
import sys

import gvc

SRC = os.path.dirname(gvc.__file__)


def _modules():
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def test_every_import_is_stdlib_or_gvc():
    paths = list(_modules())
    assert any(p.endswith("jets.py") for p in paths)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "gvc" or top in sys.stdlib_module_names, \
                    (path, node.lineno, name)
