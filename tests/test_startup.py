"""`import fourpoint.cli` loads only what `send` and `recv` run.

A one-message CLI process pays for every module it imports. The record
types are NamedTuples rather than dataclasses, profile JSON is parsed by
a function-local `json` import, the forgery-game harness is imported by
`selftest` and `attack` only, and `fourpoint.selftest` (the suites and
the fixture generators) by `selftest` and `fixtures` only. Both parties
read their keyed values from `fourpoint.prf`, so the reference layers
(`oscillator`, `genfunc`, `invariant`) load only when imported for
`genfunc.reference_view` or when one of `protocol`'s three traced
reference names is called. The
check runs in a fresh interpreter started with `-S`, so that no `site`
start-up or `.pth` file loads modules before it, and compares
`sys.modules` before and after the import.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import fourpoint
from fourpoint import genfunc, invariant, protocol
from fourpoint.genfunc import reference_view
from fourpoint.errors import ProtocolAbort
from fourpoint.protocol import TOY, alice_generate, derive_session

SRC = str(Path(fourpoint.__file__).resolve().parent.parent)

_CHILD = """\
import sys
before = set(sys.modules)
import fourpoint.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""

NOT_AT_START = {"dataclasses", "inspect", "json", "random",
                "fourpoint.genfunc", "fourpoint.harness",
                "fourpoint.invariant", "fourpoint.oscillator",
                "fourpoint.selftest"}


def test_cli_import_skips_heavy_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-S", "-c", _CHILD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "fourpoint.cli" in added
    assert not added & NOT_AT_START, sorted(added & NOT_AT_START)


def test_traced_reference_names_return_the_reference_results():
    # protocol.s_M, check_denominator and recover_v load their layers
    # when called; each must still return what the reference returns
    rng = random.Random(5)
    checked = 0
    while checked < 20:
        S, z = rng.randbytes(32), rng.randbytes(32)
        u, v = rng.randrange(1, TOY.u_bound), rng.randrange(TOY.v_bound)
        try:
            sess = derive_session(S, z, TOY)
            msg = alice_generate(sess, u, v)
        except ProtocolAbort:
            continue
        ref = reference_view(sess)
        s0 = protocol.s_M(ref.numer, ref.t)
        s2 = protocol.s_M(ref.denom, ref.t + 2 * u)
        assert (s0, s2) == (genfunc.s_M(ref.numer, ref.t),
                            genfunc.s_M(ref.denom, ref.t + 2 * u))
        for s3, ok in ((msg.s3, True), (msg.s1 * ref.p ** (2 * u), False)):
            args = (msg.s1, s3, ref.p, u)
            assert protocol.check_denominator(*args) \
                == invariant.check_denominator(*args) is ok
        args = (s0, msg.s1, s2, msg.s3, ref.t.img, u, ref.p)
        assert protocol.recover_v(*args) == invariant.recover_v(*args)
        assert protocol.recover_v(*args).value == v
        checked += 1
