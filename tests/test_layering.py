"""The package's import layering, read from the source with ``ast``: every
module imports the package modules it needs at module level, and those
imports form no cycle.  Character tables are validated at one site: only
`_validated` runs `validate_table`, only `build_table` and `load_chartable`
reach `_validated`, and no table provider goes through `build_table`."""
import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "commcount"
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _package_modules(node) -> list[str]:
    """The package modules an import statement names, ``__init__`` for a
    name taken from the package itself."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("commcount.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0 and (node.module or "").split(".")[0] != "commcount":
        return []
    path = (node.module or "").split(".")[1 if node.level == 0 else 0:]
    if path and path[0]:
        return [path[0]]
    return [a.name if a.name in TREES else "__init__" for a in node.names]


def _in_functions(tree) -> list:
    """Every node inside a function, method or lambda of the tree."""
    functions = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    return [node for fn in functions for node in ast.walk(fn)]


def _function_local_imports(tree) -> list[str]:
    return [f"line {node.lineno}: {name}"
            for node in _in_functions(tree) for name in _package_modules(node)]


def _module_level_graph() -> dict[str, set[str]]:
    graph = {}
    for name, tree in TREES.items():
        local = set(map(id, _in_functions(tree)))
        graph[name] = {target for node in ast.walk(tree) if id(node) not in local
                       for target in _package_modules(node)}
    return graph


def _cycle(graph) -> list[str] | None:
    """One cycle of the graph as a path of modules, or None."""
    state = {}  # 1 on the current path, 2 finished

    def visit(node, path):
        state[node] = 1
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if nxt not in state and (found := visit(nxt, path + [nxt])):
                return found
        state[node] = 2
        return None

    for start in sorted(graph):
        if start not in state and (found := visit(start, [start])):
            return found
    return None


def _callers(name: str, trees=TREES) -> set[str]:
    """The top-level functions and methods whose code, nested functions and
    lambdas included, names `name` (a call or a reference), and "<module>"
    for module-level code that does."""
    def names(nodes):
        return any((isinstance(n, ast.Name) and n.id == name)
                   or (isinstance(n, ast.Attribute) and n.attr == name) for n in nodes)

    found = set()
    for tree in trees.values():
        functions = [n for top in tree.body
                     for n in (top.body if isinstance(top, ast.ClassDef) else [top])
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        found |= {fn.name for fn in functions if names(ast.walk(fn))}
        inside = {id(n) for fn in functions for n in ast.walk(fn)}
        if names(n for n in ast.walk(tree) if id(n) not in inside):
            found.add("<module>")
    return found


def test_the_guard_reads_every_import_form():
    forms = {
        "from . import perms": ["perms"],
        "from .chars import build_table": ["chars"],
        "from commcount.fileio import ClassRow": ["fileio"],
        "import commcount.cyclo": ["cyclo"],
        "from commcount import groups, make_group": ["groups", "__init__"],
        "from . import make_group": ["__init__"],
        "import json": [],
        "from dataclasses import dataclass": [],
    }
    for text, want in forms.items():
        assert _package_modules(ast.parse(text).body[0]) == want, text
    tree = ast.parse("def f():\n    from .fileio import _read_doc\nimport numpy\n")
    assert _function_local_imports(tree) == ["line 2: fileio"]
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_no_function_imports_a_package_module():
    found = {name: _function_local_imports(tree) for name, tree in TREES.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_module_imports_form_no_cycle():
    graph = _module_level_graph()
    assert graph["fileio"] <= {"cyclo"}
    assert _cycle(graph) is None


def test_the_validation_guard_reads_calls_references_and_methods():
    tree = ast.parse(
        "def f(G):\n    return G.cached('t', lambda G: g(h(G)))\n"
        "class C:\n    def m(self):\n        return x.g\n"
        "def h(G):\n    return G\ng()\n"
    )
    assert _callers("g", {"t": tree}) == {"f", "m", "<module>"}
    assert _callers("h", {"t": tree}) == {"f"}


def test_tables_are_validated_at_one_site():
    assert _callers("validate_table") == {"_validated"}
    assert _callers("_validated") == {"build_table", "load_chartable"}
    providers = {fn.name for fn in TREES["chars"].body if isinstance(fn, ast.FunctionDef)
                 and fn.name.startswith("_") and fn.name.endswith("_table")}
    assert providers >= {"_cyclic_table", "_dihedral_table", "_symmetric_table", "_tensor_table"}
    assert _callers("build_table") & (providers | {"_build_unvalidated"}) == set()
    assert "_tensor_table" in _callers("_build_unvalidated")
