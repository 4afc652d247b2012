"""One import direction through ``src/repro``.

Every module imports, at module level, only modules that never import it
back, and nothing but the CLI imports a ``repro`` module inside a
function.  The module graph is read from the source with :mod:`ast`:

* ``if TYPE_CHECKING:`` blocks are left out, since they never run;
* ``from repro.a.b import c`` depends on ``repro.a.b`` and on
  ``repro.a`` too, because that package's ``__init__`` runs first
  (the root ``repro`` package, which re-exports the library, and the
  importer's own enclosing packages are not counted that way);
* ``from repro.a import b`` depends on ``repro.a.b`` when ``b`` is a
  module.

The CLI imports per subcommand, so that a subcommand loads only the
layers it uses; it is the one module allowed to.  For the same reason
``import repro`` stops below the runtime: the library's root package
reaches no module of the runtime, the service, the policy tuner or the
CLI.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ROOT = "repro"
DEFERRED_OK = {"repro.cli"}
#: the layers above the library, which ``import repro`` must not load
UPPER_LAYERS = ("repro.runtime", "repro.service", "repro.policy.tune", "repro.cli")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _modules() -> dict[str, tuple[Path, bool]]:
    """Every module under ``src/repro``: name -> (path, is_package)."""
    return {
        _module_name(p): (p, p.name == "__init__.py")
        for p in sorted((SRC / ROOT).rglob("*.py"))
    }


MODULES = _modules()


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(tree: ast.Module):
    """Yield ``(node, in_function)`` for each import that can run."""

    def walk(node: ast.AST, in_function: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, in_function
            elif isinstance(child, ast.If) and _is_type_checking(child.test):
                for stmt in child.orelse:
                    yield from walk(ast.Module(body=[stmt], type_ignores=[]), in_function)
            else:
                inner = in_function or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                )
                yield from walk(child, inner)

    yield from walk(tree, False)


def _targets(module: str, is_package: bool, node: ast.AST) -> list[str]:
    """The ``repro`` modules an import statement names, most specific last."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == ROOT]
    assert isinstance(node, ast.ImportFrom)
    if node.level:
        package = module if is_package else module.rpartition(".")[0]
        for _ in range(node.level - 1):
            package = package.rpartition(".")[0]
        base = f"{package}.{node.module}" if node.module else package
    else:
        base = node.module or ""
    if base.split(".")[0] != ROOT:
        return []
    subs = [f"{base}.{a.name}" for a in node.names if f"{base}.{a.name}" in MODULES]
    return [base, *subs]


def _dependencies(module: str, target: str) -> set[str]:
    """``target`` plus the packages whose ``__init__`` importing it runs."""
    own = {module.rsplit(".", k)[0] for k in range(module.count(".") + 1)}
    deps = {target} if target != module else set()
    parts = target.split(".")
    for k in range(2, len(parts)):
        ancestor = ".".join(parts[:k])
        if ancestor not in own:
            deps.add(ancestor)
    return deps & MODULES.keys()


def import_graph() -> tuple[dict[str, set[str]], list[str]]:
    """The module-level import graph, and every deferred ``repro`` import."""
    graph: dict[str, set[str]] = {m: set() for m in MODULES}
    deferred: list[str] = []
    for module, (path, is_package) in MODULES.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, in_function in _imports(tree):
            targets = _targets(module, is_package, node)
            if not targets:
                continue
            if in_function:
                if module not in DEFERRED_OK:
                    rel = path.relative_to(SRC)
                    deferred.append(f"{rel}:{node.lineno} imports {targets[-1]}")
                continue
            for target in targets:
                graph[module] |= _dependencies(module, target)
    return graph, deferred


def strongly_connected(graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's strongly connected components with more than one module
    (or a module that imports itself), each sorted."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    out: list[list[str]] = []

    def visit(v: str) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in sorted(graph[v]):
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            if len(comp) > 1 or v in graph[v]:
                out.append(sorted(comp))

    for v in sorted(graph):
        if v not in index:
            visit(v)
    return out


def _one_cycle(graph: dict[str, set[str]], component: list[str]) -> list[str]:
    """A shortest import cycle through the component's first module."""
    members = set(component)
    start = component[0]
    paths = {start: [start]}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in sorted(graph[v] & members):
                if w == start:
                    return paths[v] + [start]
                if w not in paths:
                    paths[w] = paths[v] + [w]
                    nxt.append(w)
        frontier = nxt
    return component  # pragma: no cover - a component always has a cycle


def test_no_repro_import_inside_a_function():
    _, deferred = import_graph()
    assert deferred == [], "function-local imports of repro modules:\n" + "\n".join(
        deferred
    )


def test_module_graph_has_no_cycle():
    graph, _ = import_graph()
    cycles = [
        f"{len(c)} modules: " + " -> ".join(_one_cycle(graph, c))
        for c in strongly_connected(graph)
    ]
    assert cycles == [], "import cycles:\n" + "\n".join(cycles)


def reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    """The modules importing ``start`` loads, ``start`` included."""
    seen, todo = {start}, [start]
    while todo:
        for w in graph[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return seen


def test_import_repro_loads_no_upper_layer():
    graph, _ = import_graph()
    upper = sorted(
        m for m in reachable(graph, ROOT)
        if any(m == p or m.startswith(p + ".") for p in UPPER_LAYERS)
    )
    assert upper == [], "modules `import repro` loads above the library:\n" + "\n".join(
        upper
    )


def test_graph_reader_sees_a_planted_cycle():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
    assert strongly_connected(graph) == [["a", "b", "c"]]
    assert _one_cycle(graph, ["a", "b", "c"]) == ["a", "b", "c", "a"]
    assert reachable(graph, "d") == {"a", "b", "c", "d"}
    assert reachable(graph, "a") == {"a", "b", "c"}


def test_graph_reader_counts_enclosing_packages():
    # A dotted import runs each package's __init__ on the way down, but a
    # module's own enclosing packages are already importing it.
    assert _dependencies("repro.core.embedding", "repro.analysis.oracle") == {
        "repro.analysis",
        "repro.analysis.oracle",
    }
    assert _dependencies("repro.simulate.engine", "repro.simulate.faults") == {
        "repro.simulate.faults"
    }
