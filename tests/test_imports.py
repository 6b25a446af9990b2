"""The package's modules import each other without a cycle, counting the
imports inside function bodies, which only run at call time; they share
private names only where the fit step needs raster's; and each renderer
entry is one function object wherever it is imported."""

import ast
from pathlib import Path

import gsdd
from gsdd import analysis, cli, gradients, optimize, raster

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
    assert {"core", "raster", "optimize"} <= graph["gradients"]
    assert find_cycle(graph) is None


def private_imports(sources: dict) -> set:
    """(importer, module, name) for every ``_``-prefixed name one package
    module imports from another, at any level of its code."""
    found = set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ImportFrom) or not node.module:
                continue
            path = node.module.split(".")
            if node.level == 0 and path[0] == "gsdd":
                path = path[1:]
            elif node.level != 1:
                continue
            found.update((name, path[0], a.name) for a in node.names
                         if path and a.name.startswith("_"))
    return found


def test_only_the_fit_step_takes_private_names():
    # the renderer's API is public; perfbench's wrappers and the gradient
    # checks rely on it, so the harness may not reach into raster
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert private_imports(sources) == {
        ("optimize", "raster", "_TileSchedule"),
        ("optimize", "raster", "_mse_upstream")}
    graph = package_imports(sources)
    assert "gradients" not in graph["optimize"] | graph["analysis"]


def test_private_imports_count_every_form():
    sources = {"a": "from .b import _f, g\n",
               "b": "def h():\n    from gsdd.c import _k\n",
               "c": "from numpy import _x\nfrom .. import _y\n"}
    assert private_imports(sources) == {("a", "b", "_f"), ("b", "c", "_k")}


def test_each_renderer_entry_is_one_object():
    # perfbench's checks call gradients' names and its tracer wraps
    # optimize's and cli's, so a local copy in one would slip past them
    for module in (gsdd, gradients, optimize):
        assert module.render_backward is raster.render_backward
    for module in (gradients, optimize, cli, analysis):
        assert module.render_batched is raster.render_batched


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
