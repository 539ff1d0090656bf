"""`import fourpoint.cli` loads only what `send` and `recv` run.

A one-message CLI process pays for every module it imports. The record
types are NamedTuples rather than dataclasses, profile JSON is parsed by
a function-local `json` import, the forgery-game harness is imported by
`selftest` and `attack` only, and `fourpoint.selftest` (the suites and
the fixture generators) by `selftest` and `fixtures` only. The check
runs in a fresh interpreter and compares `sys.modules` before and after
the import, so modules that the interpreter's `site` start-up already
loaded do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import fourpoint

SRC = str(Path(fourpoint.__file__).resolve().parent.parent)

_CHILD = """\
import sys
before = set(sys.modules)
import fourpoint.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""

NOT_AT_START = {"dataclasses", "inspect", "json", "fourpoint.harness",
                "fourpoint.selftest"}


def test_cli_import_skips_heavy_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "fourpoint.cli" in added
    assert not added & NOT_AT_START, sorted(added & NOT_AT_START)
