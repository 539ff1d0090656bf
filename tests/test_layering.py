"""`protocol` stays off the reference layer, and a `Session` is data.

The protocol path computes on raw ints. The reference layer
(`oscillator`, `genfunc`, `invariant`) types a `Session` by
`genfunc.reference_view`. These checks read `protocol.py` with the
stdlib `ast` module: the reference layer is imported only inside the
three names that the benchmark traces, `EvalPoint` is not imported at
all, and `Session`'s class body holds its fields and `__repr__` only.
The last two checks read the reprs of production views and their parts,
and the message of s_M at a toy point whose image is 0.
"""

import ast
import random
from pathlib import Path

import pytest

from fourpoint import protocol
from fourpoint.errors import NonInvertible
from fourpoint.genfunc import reference_view, s_M
from fourpoint.protocol import PRODUCTION, TOY

from conftest import fresh_session

REFERENCE_LAYER = {"oscillator", "genfunc", "invariant"}
TRACED_NAMES = {"s_M", "check_denominator", "recover_v"}


def protocol_tree() -> ast.Module:
    return ast.parse(Path(protocol.__file__).read_text(encoding="utf-8"))


def imported_modules(node) -> set:
    """The package modules an import statement names, without the
    package prefix; empty for any other node."""
    if isinstance(node, ast.Import):
        names = {alias.name for alias in node.names}
    elif isinstance(node, ast.ImportFrom):
        names = ({node.module} if node.module
                 else {alias.name for alias in node.names})
    else:
        return set()
    return {name.removeprefix("fourpoint.") for name in names}


def test_reference_layer_is_imported_only_by_the_traced_names():
    importers = set()
    for top in protocol_tree().body:
        for node in ast.walk(top):
            if imported_modules(node) & REFERENCE_LAYER:
                assert isinstance(top, ast.FunctionDef), ast.unparse(node)
                importers.add(top.name)
    assert importers <= TRACED_NAMES, sorted(importers - TRACED_NAMES)


def test_eval_point_is_not_imported():
    for node in ast.walk(protocol_tree()):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert "EvalPoint" not in {alias.name.rsplit(".", 1)[-1]
                                       for alias in node.names}


def test_session_holds_only_its_fields_and_repr():
    session, = (node for node in protocol_tree().body
                if isinstance(node, ast.ClassDef) and node.name == "Session")
    docstring, *body = session.body
    assert isinstance(docstring, ast.Expr)
    fields = [node.target.id for node in body
              if isinstance(node, ast.AnnAssign)]
    methods = [node.name for node in body
               if isinstance(node, ast.FunctionDef)]
    assert fields == list(protocol.Session._fields)
    assert methods == ["__repr__"]
    assert len(body) == len(fields) + len(methods)


def test_reference_view_repr_shows_nothing_derived_from_the_secret():
    rng = random.Random(26)
    for _ in range(5):
        sess = fresh_session(PRODUCTION, rng)
        ref = reference_view(sess)
        secrets = [str(sess.base), str(sess.n), *map(str, sess.q),
                   sess.S.hex(), ref.phi.key.hex(), ref.psi.key.hex(),
                   ref.anchor_key.hex()]
        for text in (repr(ref), str(ref), repr(ref.numer), repr(ref.denom),
                     repr(ref.t), repr(ref.t + 3)):
            assert not any(secret in text for secret in secrets), text


def test_singular_point_message_shows_nothing_derived_from_the_secret():
    rng = random.Random(27)
    for _ in range(5):
        sess = fresh_session(TOY, rng)
        ref = reference_view(sess)
        point = ref.t + (-ref.t.img.value % TOY.mod.M)  # image 0 mod M
        with pytest.raises(NonInvertible) as info:
            s_M(ref.numer, point)
        assert str(sess.n) not in str(info.value)
        assert str(point.n) not in str(info.value)
