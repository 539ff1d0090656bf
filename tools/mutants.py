#!/usr/bin/env python3
"""Mutation testing for chosen functions of the fourpoint package.

Run from the repository root:

    python3 tools/mutants.py protocol.derive_session harness.lemma1_exhaustive

Each target is module.function or module.Class.method under
src/fourpoint. The runner parses the module with the stdlib `ast`, makes
one mutant per site inside the target, and runs the test suite against
each mutant in a private copy of the repository, one mutant at a time.
A mutant is killed when the tests fail or time out; it
survives when they pass. Mutations:

- arithmetic: + and - swapped, * to +, // to *, ** to *, % dropped
  (a % b becomes a);
- comparisons: < and <=, > and >=, == and !=, is and is not, in and
  not in swapped;
- boolean: and and or swapped, `not x` becomes x, -x becomes x;
- constants: an int c becomes c + 1, True and False are swapped, a
  bytes constant gets its last byte changed.

Docstrings and f-strings are left alone. Mutants are written back with
ast.unparse, which drops comments, so the suite must first pass on the
target modules unparsed but unmutated. Survivors are listed at the end;
the exit code is 0 only when every mutant was killed.
"""

import argparse
import ast
import copy
import os
from pathlib import Path
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "fourpoint"
# README.md too: a test runs its library quick start; tools and
# BENCHMARK.json: a test loads tools/pairs.py and the benchmark's metrics
COPIED = ("src", "tests", "perfbench", "demos", "tools", "pyproject.toml",
          "README.md", "BENCHMARK.json")

DEFAULT_TARGETS = ("protocol.Profile.__new__", "protocol.derive_session",
                   "protocol._offsets", "protocol._kernel",
                   "protocol._generate", "protocol.bob_verify",
                   "harness.lemma1_exhaustive")

_BINOP_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add,
               ast.FloorDiv: ast.Mult, ast.Pow: ast.Mult}
_CMP_SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
             ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
             ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
             ast.NotIn: ast.In}


def find_target(tree: ast.Module, dotted: str) -> ast.AST:
    """The FunctionDef named by dotted (function or Class.method)."""
    node = tree
    for name in dotted.split("."):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.FunctionDef, ast.ClassDef))
                    and child.name == name):
                node = child
                break
        else:
            raise SystemExit(f"no {dotted} in the module")
    return node


def skipped(nodes: list) -> set:
    """Ids of the nodes no mutation may touch: those inside f-strings."""
    return {id(n) for node in nodes if isinstance(node, ast.JoinedStr)
            for n in ast.walk(node)}


def mutations(node: ast.AST) -> list:
    """(description, replacement) pairs for one node."""
    out = []
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        new = _BINOP_SWAP.get(type(node.op))
        if new is not None:
            m = copy.copy(node)
            m.op = new()
            out.append(m)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            out.append(node.left)
    elif isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            new = _CMP_SWAP.get(type(op))
            if new is not None:
                m = copy.copy(node)
                m.ops = node.ops[:k] + [new()] + node.ops[k + 1:]
                out.append(m)
    elif isinstance(node, ast.BoolOp):
        m = copy.copy(node)
        m.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        out.append(m)
    elif (isinstance(node, ast.UnaryOp)
          and isinstance(node.op, (ast.Not, ast.USub))):
        out.append(node.operand)
    elif isinstance(node, ast.Constant):
        v = node.value
        if isinstance(v, bool):
            out.append(ast.Constant(not v))
        elif isinstance(v, int):
            out.append(ast.Constant(v + 1))
        elif isinstance(v, bytes) and v:
            out.append(ast.Constant(v[:-1] + bytes([(v[-1] + 1) % 256])))
    return [(f"{_short(node)}  ->  {_short(m)}", m) for m in out]


def _short(node: ast.AST, width: int = 60) -> str:
    text = ast.unparse(node)
    return text if len(text) <= width else text[:width - 3] + "..."


class _Replace(ast.NodeTransformer):
    def __init__(self, target, replacement):
        self.target, self.replacement = target, replacement

    def visit(self, node):
        if node is self.target:
            return self.replacement
        return self.generic_visit(node)


def make_mutants(module: str, dotted: str) -> list:
    """(module, label, mutated source) for every site in the target."""
    path = ROOT / PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = list(ast.walk(find_target(tree, dotted)))
    skip = skipped(nodes)
    out = []
    for k, node in enumerate(nodes):
        if id(node) in skip:
            continue
        for n, (desc, _) in enumerate(mutations(node)):
            tree2 = copy.deepcopy(tree)
            node2 = list(ast.walk(find_target(tree2, dotted)))[k]
            replacement = mutations(node2)[n][1]
            mutated = ast.fix_missing_locations(
                _Replace(node2, replacement).visit(tree2))
            label = f"{module}.{dotted}:{getattr(node, 'lineno', '?')}: {desc}"
            out.append((module, label, ast.unparse(mutated) + "\n"))
    return out


def run_tests(workdir: Path, timeout: float) -> bool:
    """True when the tier-1 suite passes in workdir."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
           "no:cacheprovider", "tests"]
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, timeout=timeout,
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("targets", nargs="*", default=DEFAULT_TARGETS,
                    help="module.function (default: %(default)s)")
    args = ap.parse_args(argv)

    mutants = []
    for target in args.targets:
        module, dotted = target.split(".", 1)
        mutants += make_mutants(module, dotted)
    modules = {module for module, _, _ in mutants}

    with tempfile.TemporaryDirectory(prefix="fourpoint-mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=shutil.
                                ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, work / name)

        for module in modules:
            path = work / PACKAGE / f"{module}.py"
            path.write_text(ast.unparse(ast.parse(path.read_text(
                encoding="utf-8"))) + "\n", encoding="utf-8")
        t0 = perf_counter()
        if not run_tests(work, timeout=600):
            print("the suite fails on the unparsed, unmutated targets")
            return 2
        timeout = 3 * (perf_counter() - t0) + 10
        print(f"{len(mutants)} mutants; suite {perf_counter() - t0:.1f} s, "
              f"timeout {timeout:.0f} s", flush=True)

        results = []
        for module, label, source in mutants:
            target = work / PACKAGE / f"{module}.py"
            original = target.read_text(encoding="utf-8")
            target.write_text(source, encoding="utf-8")
            killed = not run_tests(work, timeout)
            target.write_text(original, encoding="utf-8")
            print(f"{'killed  ' if killed else 'SURVIVED'} {label}",
                  flush=True)
            results.append((label, killed))

    survivors = [label for label, killed in results if not killed]
    print(f"score: {len(results) - len(survivors)}/{len(results)} killed")
    for label in survivors:
        print(f"survivor: {label}")
    return 0 if not survivors else 1


if __name__ == "__main__":
    sys.exit(main())
