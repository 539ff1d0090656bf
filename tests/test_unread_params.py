"""Every parameter of a function or lambda in the package is read in its
body, so no caller's argument is silently ignored. `self`, `cls` and
names starting with `_` are exempt. Likewise every name that a module
of src/, tests/, tools/ or demos/ imports is read in that module, save
on an import marked `# noqa: F401` and in an `__init__.py`, which
re-exports."""

import ast
from pathlib import Path

import fourpoint

PACKAGE = Path(fourpoint.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def unread_parameters(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for arg in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg):
            if (arg and arg.arg not in read and arg.arg not in ("self", "cls")
                    and not arg.arg.startswith("_")):
                found.append(f"{getattr(node, 'name', 'lambda')}({arg.arg})")
    return found


def test_the_check_names_an_unread_parameter():
    assert unread_parameters("def f(a, b, _c, *d, e, **g):\n return a\n"
                             "h = lambda self, x: 0\n") \
        == ["f(b)", "f(d)", "f(e)", "f(g)", "lambda(x)"]


def test_every_package_parameter_is_read():
    unread = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if (names := unread_parameters(path.read_text(encoding="utf-8")))}
    assert unread == {}


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    found = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and name != "*":
                found.append(name)
    return found


def test_the_check_names_an_unread_import():
    assert unread_imports("import os, os.path as p, a.b\n"
                          "from x import (y,  # noqa: F401\n z)\n"
                          "from q import r as s, t\nfrom w import *\n"
                          "t(a)\n") \
        == ["os", "p", "s"]


def test_every_imported_name_is_read():
    unread = {str(path.relative_to(ROOT)): names
              for folder in ("src", "tests", "tools", "demos")
              for path in sorted((ROOT / folder).rglob("*.py"))
              if path.name != "__init__.py"
              and (names := unread_imports(path.read_text(encoding="utf-8")))}
    assert unread == {}
