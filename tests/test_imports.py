"""Every import in a package module is used, and the package exports what it binds.

No linter is installed, so this walks each module's syntax tree.  A name
counts as used when it is loaded anywhere in the module, including inside
a string annotation.  An import statement whose first line carries
``# noqa: F401`` is exempt: ``lifted`` keeps ``integrate_fixed`` bound so
that a tracer can wrap it there.  ``__init__.py`` re-exports by design, so
its ``__all__`` must list exactly the public names it binds.  A private
(``_``-prefixed, not dunder) function or method must be referenced, by
name or attribute, somewhere in the package outside its own body and
outside other private functions that are themselves unreferenced.
Only ``expressions`` imports sympy, and no function body imports
anything, so the module boundary is the import list at each module's top.
Only ``expressions`` reads a field's symbolic payload: elsewhere
``F.sym`` is only tested against None.
"""

import ast
import types
from collections import Counter
from pathlib import Path

import tanlift

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tanlift"


def _annotation_names(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
    return sorted(name for name in imported if name not in used)


def _references(tree) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unreferenced_private_functions(sources: dict) -> list:
    """"module:name" of each private function or method that only dead code references.

    Dead code is the function's own body and the bodies of the private
    functions already found, so a helper whose only caller is itself
    unreferenced is found too.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = sum((_references(tree) for tree in trees.values()), Counter())
    private = [
        (module, node)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    dead = []
    while True:

        def only_dead_code_references(node):
            bodies = [other for _, other in dead if other is not node] + [node]
            return references[node.name] == sum(_references(body)[node.name] for body in bodies)

        found = [(module, node) for module, node in private if only_dead_code_references(node)]
        if len(found) == len(dead):
            return sorted(f"{module}:{node.name}" for module, node in dead)
        dead = found


def test_private_function_checker_sees_calls_methods_and_self_reference():
    sources = {
        "a.py": "def _used():\n    pass\ndef _recursive(n):\n    return _recursive(n - 1)\n",
        "b.py": (
            "from a import _used\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._method()\n"
            "        _used()\n"
            "    def _method(self):\n"
            "        pass\n"
            "    def _dead(self):\n"
            "        pass\n"
        ),
    }
    assert unreferenced_private_functions(sources) == ["a.py:_recursive", "b.py:_dead"]


def test_private_function_checker_follows_dead_callers():
    chain = "def _leaf():\n    pass\ndef _caller():\n    return _leaf()\n"
    assert unreferenced_private_functions({"a.py": chain}) == ["a.py:_caller", "a.py:_leaf"]
    assert unreferenced_private_functions({"a.py": chain, "b.py": "from a import _caller\n_caller()\n"}) == []


def test_package_has_no_unreferenced_private_functions():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []


def test_checker_sees_string_annotations_and_noqa():
    source = (
        "import os\n"
        "from typing import List  # noqa: F401\n"
        "from pathlib import Path, PurePath\n"
        "def f(x: 'Path') -> None:\n"
        "    return None\n"
    )
    assert unused_imports(source) == ["PurePath", "os"]


def test_package_modules_have_no_unused_imports():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = unused_imports(path.read_text())
        if unused:
            found[path.name] = unused
    assert found == {}


def test_all_lists_every_public_name_the_package_binds():
    bound = {
        name
        for name, value in vars(tanlift).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(tanlift.__all__) == sorted(set(tanlift.__all__))
    assert set(tanlift.__all__) == bound



def _imported_modules(tree) -> list:
    """The module each import statement in ``tree`` names, relative ones with their leading dots."""
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    return modules


def test_only_expressions_imports_sympy():
    importers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(module.split(".")[0] == "sympy" for module in _imported_modules(ast.parse(path.read_text())))
    ]
    assert importers == ["expressions.py"]


def test_no_function_body_imports():
    found = [
        f"{path.name}:{node.name} imports {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for module in _imported_modules(node)
    ]
    assert found == []


def payload_reads(source: str) -> list:
    """Line of each ``.sym`` attribute that is not the left side of ``is None`` or ``is not None``."""
    tree = ast.parse(source)
    tests = {
        id(node.left)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and len(node.ops) == 1
        and isinstance(node.ops[0], (ast.Is, ast.IsNot))
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value is None
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "sym" and id(node) not in tests
    )


def test_payload_checker_allows_only_none_tests():
    source = (
        "if X.sym is None or Y.sym is not None:\n"
        "    col, args, jac = X.sym\n"
        "ok = all(c == 0 for c in B.sym[0]) and X.sym == None\n"
        "None is X.sym\n"
    )
    assert payload_reads(source) == [2, 3, 3, 4]


def test_only_expressions_reads_symbolic_payloads():
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "expressions.py" and (lines := payload_reads(path.read_text()))
    }
    assert found == {}
