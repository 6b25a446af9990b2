"""The package's modules import each other without a cycle, counting the
imports inside function bodies, which only run at call time."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gsdd"


def package_imports(sources: dict) -> dict:
    """Module name -> the set of package modules its source imports, at any
    level of its code; ``__init__`` stands for the package itself."""
    graph = {}
    for name, source in sources.items():
        deps = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                paths = [a.name.split(".") for a in node.names]
                deps.update(p[1] if len(p) > 1 else "__init__"
                            for p in paths if p[0] == "gsdd")
            elif isinstance(node, ast.ImportFrom):
                path = node.module.split(".") if node.module else []
                if node.level == 0 and path[:1] == ["gsdd"]:
                    path = path[1:]
                elif node.level != 1:
                    continue
                if path:
                    deps.add(path[0])
                else:
                    # ``from . import x``: x is a module or a package name
                    deps.update(a.name if a.name in sources else "__init__"
                                for a in node.names)
        graph[name] = deps
    return graph


def find_cycle(graph: dict):
    """One cycle of ``graph`` as a list of nodes, first repeated last, or
    None if it is acyclic."""
    state = {}

    def visit(node, path):
        state[node] = "open"
        for dep in sorted(graph.get(node, ())):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep, path + [dep])
                if cycle:
                    return cycle
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node, [node])
            if cycle:
                return cycle
    return None


def test_package_imports_are_acyclic():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    graph = package_imports(sources)
    assert {"core", "raster"} <= graph["gradients"]
    assert find_cycle(graph) is None


def test_function_level_and_absolute_imports_count():
    sources = {"a": "from .b import f\n",
               "b": "def g():\n    from .a import h\n",
               "c": "import gsdd.a\nfrom gsdd import b, version\n",
               "d": "from . import c\nimport numpy\nfrom .. import x\n"}
    graph = package_imports(sources)
    assert graph == {"a": {"b"}, "b": {"a"}, "c": {"a", "b", "__init__"},
                     "d": {"c"}}
    assert find_cycle(graph) == ["a", "b", "a"]
    assert find_cycle({"c": {"a"}, "a": set()}) is None
