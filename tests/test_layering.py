"""The package's import layering, read from the source with ``ast``: every
module imports the package modules it needs at module level, and those
imports form no cycle.  Character tables are validated at one site: only
`_validated` runs `validate_table`, only `build_table` and `load_chartable`
reach `_validated`, and no table provider goes through `build_table`.
Only `cli` dispatches on a method name, and the dihedral closed forms read
no character table.  Caches hold finished values: no ``functools.cache``
function returns a dict, list or set display or comprehension, which a
caller could change or a later call could resume."""
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


def _takes_parameter(tree, name: str) -> list[str]:
    """The functions, methods and lambdas of the tree with a parameter
    called `name`."""
    def names(args):
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        return {a.arg for a in every if a is not None}

    return [getattr(fn, "name", "<lambda>") for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            and name in names(fn.args)]


def _cached_mutable_returns(tree) -> list[str]:
    """The ``cache`` or ``lru_cache`` functions of the tree that return a
    dict, list or set display or comprehension, nested functions aside."""
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)

    def cached(fn):
        for d in fn.decorator_list:
            d = d.func if isinstance(d, ast.Call) else d
            if getattr(d, "id", getattr(d, "attr", None)) in ("cache", "lru_cache"):
                return True
        return False

    def returns(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Return) and isinstance(child.value, mutable):
                yield child
            yield from returns(child)

    return [fn.name for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and cached(fn) and any(returns(fn))]


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


def test_the_parameter_guard_reads_every_parameter_form():
    tree = ast.parse(
        "def f(method): pass\ndef g(*, method=1): pass\ndef h(a, /, method): pass\n"
        "class C:\n    def m(self, **method): pass\nk = lambda method: 0\n"
        "def n(a, methods=lambda: method): pass\ndef p(*method): pass\n"
    )
    assert _takes_parameter(tree, "method") == ["f", "g", "h", "p", "m", "<lambda>"]


def test_only_the_cli_dispatches_on_a_method_name():
    found = {name: _takes_parameter(tree, "method") for name, tree in TREES.items()
             if name != "cli"}
    assert {name: fns for name, fns in found.items() if fns} == {}


def test_the_dihedral_closed_forms_import_nothing_from_chars():
    imported = {m for node in ast.walk(TREES["dihedral"]) for m in _package_modules(node)}
    assert imported and "chars" not in imported


def test_the_cache_guard_reads_decorators_and_return_forms():
    tree = ast.parse(
        "@cache\ndef a(n):\n    return {'next': n}\n"
        "@functools.cache\ndef b(n):\n    if n:\n        return [n]\n    return ()\n"
        "@lru_cache(maxsize=None)\ndef c(n):\n    return {i for i in range(n)}\n"
        "@cache\ndef d(n):\n    return tuple([n])\n"
        "@cache\ndef e(n):\n    def inner():\n        return []\n    return inner\n"
        "def f(n):\n    return []\n"
    )
    assert _cached_mutable_returns(tree) == ["a", "b", "c"]


def test_caches_hold_finished_values():
    found = {name: _cached_mutable_returns(tree) for name, tree in TREES.items()}
    assert {name: fns for name, fns in found.items() if fns} == {}
