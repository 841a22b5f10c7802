"""The runtime is stdlib-only: every import of ``src/gvc`` is relative, of
``gvc`` itself, or of a module of the standard library; and the modules of
``gvc`` import one another without a cycle."""
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


def _graph():
    """{module: the gvc modules it imports at its top level}, relative
    imports resolved, over every module of ``src/gvc``."""
    graph = {}
    for path in _modules():
        parts = ["gvc"] + os.path.relpath(path, SRC)[:-3].split(os.sep)
        package = parts[:-1]
        if parts[-1] == "__init__":
            parts = package
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        targets = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                targets.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                targets.add(node.module)
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(package[:len(package) + 1 - node.level])
                targets.update([base + "." + node.module] if node.module else
                               [base + "." + alias.name
                                for alias in node.names])
        graph[".".join(parts)] = {t for t in targets
                                  if t.startswith("gvc.")}
    return graph


def test_the_import_graph_of_the_package_is_acyclic():
    # the orbit code imports the ring alone, so every module that prunes
    # by symmetry can import it
    graph = _graph()
    assert graph["gvc.symmetry"] == {"gvc.algebra"}
    assert graph["gvc.jets"] >= {"gvc.symmetry"}
    assert set().union(*graph.values()) <= set(graph)
    order = []
    while len(order) < len(graph):
        ready = [m for m in sorted(graph)
                 if m not in order and graph[m] <= set(order)]
        assert ready, sorted(set(graph) - set(order))
        order += ready
