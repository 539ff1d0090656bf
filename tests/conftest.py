from collections import Counter
import builtins
import gc
import hashlib
import importlib
import pkgutil
import random
import sys

import pytest

import fourpoint
from fourpoint import montpow, prf
from fourpoint.errors import ProtocolAbort, VerificationError
from fourpoint.genfunc import s_M
from fourpoint.invariant import InvariantTuple
from fourpoint.protocol import _draw, derive_session


def fresh_session(profile, rng):
    """Draw (S, z) by protocol._draw until derivation succeeds."""
    return _draw(lambda _: derive_session(rng.randbytes(32),
                                          rng.randbytes(32), profile))


def honest_tuple(ref, u, v):
    """The reference s_M at t, t + 2v+1, t + 2u and t + 2u+2v+1 of a
    genfunc.reference_view, as an InvariantTuple."""
    t = ref.t
    return InvariantTuple(s_M(ref.numer, t),
                          s_M(ref.numer, t + (2 * v + 1)),
                          s_M(ref.denom, t + 2 * u),
                          s_M(ref.denom, t + (2 * u + 2 * v + 1)),
                          t, u, v)


@pytest.fixture
def session_factory():
    rng = random.Random(0xF0A4)
    return lambda profile: fresh_session(profile, rng)


def bindings(obj) -> list:
    """(module, name) for every fourpoint module attribute bound to obj."""
    modules = [importlib.import_module(f"fourpoint.{info.name}")
               for info in pkgutil.iter_modules(fourpoint.__path__)]
    return [(m, name) for m in modules for name, value in vars(m).items()
            if value is obj]


# (module, name, real, key): every package binding that work hooks,
# found once, before any test patches one
_HOOKS = [(module, name, real, key)
          for real, key in ((hashlib.sha3_256, "sha3"),
                            (prf._prf_value, "prf"),
                            (prf.anchor_value, "anchor"))
          for module, name in bindings(real)]


def pow_class(exp: int) -> str:
    if exp == -1:
        return "inverse"
    width = exp.bit_length()
    return "pow>65" if width > 65 else "pow34-65" if width > 33 else "pow<=33"


def _count_hashes_and_pows(fn, args, counts):
    real_pow = builtins.pow

    def counted_pow(real):
        def hook(base, exp, mod=None):
            counts[pow_class(exp)] += 1
            return real(base, exp, mod)
        return hook

    def counted(key, real):
        def hook(*args):
            counts[key] += 1
            return real(*args)
        return hook

    with pytest.MonkeyPatch.context() as patch:
        for module, name, real, key in _HOOKS:
            patch.setattr(module, name, counted(key, real))
        patch.setattr(builtins, "pow", counted_pow(real_pow))
        patch.setattr(montpow, "mont_pow", counted_pow(montpow.mont_pow))
        # a kernel that falls back to the built-in pow counts once
        patch.setattr(montpow, "pow", real_pow, raising=False)
        return fn(*args)


def _count_calls(fn, args, counts):
    def profiler(frame, event, arg):
        if event == "call":
            counts["calls"] += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        return fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
        counts["calls"] -= 1  # fn's own call


@pytest.fixture
def work():
    """work(fn, *args) -> (result, Counter) for one call fn(*args).

    The result is what fn returns, or the ProtocolAbort or
    VerificationError it raises. The Counter holds "sha3" (SHA3-256
    calls, at every package binding of sha3_256), "prf" and "anchor"
    (prf._prf_value and prf.anchor_value calls, at every binding), and
    the built-in pow and montpow.mont_pow calls together by exponent
    class: "pow>65", "pow34-65" and "pow<=33" bits, and "inverse". Zero
    counts are left out.

    work(fn, *args, calls=True) counts only "calls": the Python-level
    calls under fn, fn's own excluded; built-ins do not count. It runs
    with no other hook installed, as each hook would count as a call,
    and with the collector off, as a collection would run the
    gc.callbacks that hypothesis installs.
    """
    def measure(fn, *args, calls=False):
        counts = Counter()
        count = _count_calls if calls else _count_hashes_and_pows
        try:
            result = count(fn, args, counts)
        except (ProtocolAbort, VerificationError) as exc:
            result = exc
        return result, +counts
    return measure
