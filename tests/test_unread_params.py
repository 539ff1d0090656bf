"""Every parameter of a function or lambda in the package is read in its
body, so no caller's argument is silently ignored. `self`, `cls` and
names starting with `_` are exempt."""

import ast
from pathlib import Path

import fourpoint

PACKAGE = Path(fourpoint.__file__).resolve().parent


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
