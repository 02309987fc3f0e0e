import ast
import inspect
from pathlib import Path

import boxball

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves_once():
    names = boxball.__all__
    assert len(names) == len(set(names)), "duplicate names in boxball.__all__"
    missing = [n for n in names if not hasattr(boxball, n)]
    assert missing == []


def called_names(tree):
    """Names called in a module, by bare name or as an attribute, outside
    the body of a function of that same name (a recursive call or a
    docstring example does not make a caller)."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and name not in inside:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_exported_function_has_a_caller_in_the_product():
    # a function only tests call belongs with the tests, not in the public API
    called = set()
    for path in sorted((ROOT / "src" / "boxball").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    ):
        called |= called_names(ast.parse(path.read_text(encoding="utf-8")))
    functions = [n for n in boxball.__all__ if inspect.isfunction(getattr(boxball, n))]
    assert functions
    assert [n for n in functions if n not in called] == []
