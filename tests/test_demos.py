"""Each narrative script under demos/, and the README's library quick
start, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fourpoint

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = str(Path(fourpoint.__file__).resolve().parent.parent)


def run_python(args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_library_block_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start: library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python(["-c", block], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # one message sent, so one nonce claimed in the log under the cwd
    assert len(list((tmp_path / "fourpoint-nonces.log").iterdir())) == 1
