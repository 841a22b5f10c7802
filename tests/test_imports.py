"""The runtime is stdlib-only: every import of ``src/gvc`` is relative, of
``gvc`` itself, or of a module of the standard library; and the modules of
``gvc`` import one another without a cycle."""
import ast
import os
import sys
import tracemalloc

import pytest

import gvc

SRC = os.path.dirname(gvc.__file__)


def _modules():
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def _live(node):
    """The nodes under ``node`` that run on this interpreter: of an ``if``
    on ``sys.version_info``, only the branch its test takes here."""
    todo = [node]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, ast.If) and "sys.version_info" in ast.unparse(
                node.test):
            taken = eval(compile(ast.Expression(node.test), "<guard>", "eval"),
                         {"sys": sys})
            todo.extend(node.body if taken else node.orelse)
        else:
            todo.extend(ast.iter_child_nodes(node))


def _foreign_imports(source, path="<source>"):
    """(line, module) of each import in ``source`` that runs here and is
    neither relative, of ``gvc``, nor of the standard library."""
    out = []
    for node in _live(ast.parse(source, path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                continue
            names = [node.module]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name.split(".")[0] != "gvc" and
                name.split(".")[0] not in sys.stdlib_module_names]
    return out


def test_every_import_is_stdlib_or_gvc():
    paths = list(_modules())
    assert any(p.endswith("jets.py") for p in paths)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            assert _foreign_imports(fh.read(), path) == [], path


def test_a_version_guard_hides_only_the_branch_that_does_not_run():
    live, dead = ("sys.version_info >= (3,)", "sys.version_info < (3,)")
    source = """import sys
try:
    if %s:
        import not_stdlib_%d
    else:
        from json import loads
except ImportError:
    import hashlib
"""
    assert _foreign_imports(source % (dead, 1)) == []
    assert _foreign_imports(source % (live, 2)) == [(4, "not_stdlib_2")]
    # an import outside any guard, and one in a guard on anything else,
    # is always checked
    assert _foreign_imports("import sys\nif sys.platform:\n"
                            "    import not_stdlib_3\n") == [
        (3, "not_stdlib_3")]
    assert _foreign_imports("if True:\n    pass\nelse:\n"
                            "    import not_stdlib_4\n") == [
        (4, "not_stdlib_4")]


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
    # the theory parser in three layers: grammar, evaluator, builder
    assert graph["gvc.grammar"] == {"gvc.algebra"}
    assert graph["gvc.evaluator"] == {"gvc.algebra", "gvc.grammar",
                                      "gvc.symmetry"}
    assert graph["gvc.parser"] >= {"gvc.grammar", "gvc.evaluator"}
    assert set().union(*graph.values()) <= set(graph)
    order = []
    while len(order) < len(graph):
        ready = [m for m in sorted(graph)
                 if m not in order and graph[m] <= set(order)]
        assert ready, sorted(set(graph) - set(order))
        order += ready


def test_no_module_compiles_past_a_bounded_memory_peak():
    # a process that imports gvc from source peaks while it compiles the
    # largest module: each stays under 2.5 MB of that transient (on
    # CPython 3.11 the largest, gvc.evaluator, takes about 2.2 MB)
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    for path in _modules():
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        tracemalloc.start()
        try:
            compile(source, path, "exec")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20, (path, peak)
