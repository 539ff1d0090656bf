"""montpow.mont_pow, libcrypto's Montgomery ladder, against the built-in pow.

The ladder must give pow(b, e, M) for every int b and e >= 0 at each
wide modulus, free every BIGNUM and BN_CTX it allocates, also when a
libcrypto call fails, and give the same results from four threads as
from one. With the loader forced off, every power falls back to the
built-in pow and the pinned sender digests and fixtures still match.
"""

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
import random
import sys
import time

from hypothesis import given, settings, strategies as st
import pytest

from fourpoint import montpow
from fourpoint.cli import main as cli_main
from fourpoint.errors import ProtocolAbort
from fourpoint.modmath import PRODUCTION_PRIME, is_probable_prime
from fourpoint.protocol import (MINI, PRODUCTION, TOY, alice_generate,
                                bob_verify, derive_session, deserialize,
                                serialize)

from test_sender_bytes import recorded, sender_digests

FIXTURE_DIR = Path(__file__).parent / "fixtures"
# the narrowest width the protocol runs on the ladder, a custom 128-bit
# and 255-bit prime, and production's
MODULI = [(1 << 65) - 49, (1 << 128) - 159, (1 << 255) - 19, PRODUCTION_PRIME]
WIDE_EXPONENT = (1 << 256) + 12345  # 257 bits, as B + 2v+1 can be


@pytest.mark.parametrize("M", MODULI, ids=lambda M: f"M{M.bit_length()}")
def test_moduli_are_prime(M):
    assert is_probable_prime(M)


@pytest.mark.parametrize("M", MODULI, ids=lambda M: f"M{M.bit_length()}")
def test_ladder_equals_pow_at_the_edges(M):
    bases = (0, 1, 2, M - 1, M, M + 1, 3 * M + 7, -1, -M - 2)
    exponents = (0, 1, 2, 33, M - 2, M - 1, M, WIDE_EXPONENT)
    for b in bases:
        for e in exponents:
            assert montpow.mont_pow(b, e, M) == pow(b, e, M), (b, e)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MODULI), st.integers(-(1 << 260), 1 << 260),
       st.integers(0, 1 << 257))
def test_ladder_equals_pow(M, b, e):
    assert montpow.mont_pow(b, e, M) == pow(b, e, M)


@pytest.mark.parametrize("M", [3, 5, 257, (1 << 61) - 1])
def test_ladder_takes_any_odd_modulus_from_3(M):
    for b in range(-2, 8):
        for e in (0, 1, 2, 5, M - 1, WIDE_EXPONENT):
            assert montpow.mont_pow(b, e, M) == pow(b, e, M), (b, e)


@pytest.mark.parametrize("b, e, M, message", [
    (3, -1, PRODUCTION_PRIME, "exponent must be nonnegative"),
    (3, 5, 1, "modulus must be odd"), (3, 5, 2, "modulus must be odd"),
    (3, 5, 1 << 256, "modulus must be odd")])
def test_refuses_what_the_ladder_cannot_compute(b, e, M, message):
    with pytest.raises(ValueError, match=message):
        montpow.mont_pow(b, e, M)


def test_the_ladder_serves_production_where_libcrypto_loads():
    # a loader that silently fell back would pass every other test here
    if montpow._load() is None:
        pytest.skip("this Python's _hashlib exposes no libcrypto BN_*")
    montpow.mont_pow(3, 5, PRODUCTION_PRIME)
    assert montpow._contexts[PRODUCTION_PRIME][0] is not None


def test_protocol_powers_take_the_ladder_at_production_width_only(
        monkeypatch):
    # production's p^B and p^2u go through mont_pow; toy and mini call
    # the built-in pow directly; no profile takes an inverse there
    calls = []

    def recording(b, e, M):
        calls.append(M)
        return pow(b, e, M)

    monkeypatch.setattr(montpow, "mont_pow", recording)
    for profile, want in ((PRODUCTION, 3), (TOY, 0), (MINI, 0)):
        S, z, u, v = next(draws(profile, 1, "ladder/routes"))
        calls.clear()
        blob = serialize(alice_generate(derive_session(S, z, profile), u, v))
        assert bob_verify(S, deserialize(blob, profile), profile) == v
        assert calls == [profile.mod.M] * want, profile.name


class Recording:
    """The BN_* functions of lib, recording what each call allocates and
    frees; the function named failing returns NULL or 0, as libcrypto
    does when it fails."""

    ALLOCATE = {"BN_new", "BN_bin2bn", "BN_CTX_new", "BN_MONT_CTX_new"}
    FREE = {"BN_clear_free", "BN_CTX_free", "BN_MONT_CTX_free"}

    def __init__(self, lib, failing=None):
        self.lib, self.failing, self.live = lib, failing, set()

    def __getattr__(self, name):
        real = getattr(self.lib, name)

        def call(*args):
            if name == self.failing:
                return None if name in self.ALLOCATE else 0
            result = real(*args)
            if name in self.ALLOCATE:
                self.live.add(result)
            elif name in self.FREE and args[0] is not None:
                self.live.remove(args[0])
            return result
        return call


def real_lib():
    lib = montpow._load()
    if lib is None:
        pytest.skip("this Python's _hashlib exposes no libcrypto BN_*")
    return lib


@pytest.mark.parametrize("failing", [
    None, "BN_CTX_new", "BN_new", "BN_bin2bn", "BN_mod_exp_mont_consttime",
    "BN_bn2binpad"])
def test_each_power_frees_what_it_allocates(failing, monkeypatch):
    M = PRODUCTION_PRIME
    recording = Recording(real_lib(), failing)
    _, modulus, mont, buffer = montpow._context(M)
    monkeypatch.setattr(montpow, "_contexts",
                        {M: (recording, modulus, mont, buffer)})
    if failing is None:
        assert montpow.mont_pow(5, WIDE_EXPONENT, M) \
            == pow(5, WIDE_EXPONENT, M)
    else:
        with pytest.raises(MemoryError, match="libcrypto"):
            montpow.mont_pow(5, WIDE_EXPONENT, M)
    assert recording.live == set()


@pytest.mark.parametrize("failing", [
    None, "BN_bin2bn", "BN_MONT_CTX_new", "BN_CTX_new", "BN_MONT_CTX_set"])
def test_a_context_keeps_only_the_modulus_and_its_montgomery_form(failing):
    M = PRODUCTION_PRIME
    recording = Recording(real_lib(), failing)
    if failing is not None:
        with pytest.raises(MemoryError, match="Montgomery context"):
            montpow._montgomery(recording, M)
        assert recording.live == set()
        return
    lib, modulus, mont, buffer = montpow._montgomery(recording, M)
    assert lib is recording and recording.live == {modulus, mont}
    assert buffer._length_ == 32
    recording.BN_clear_free(modulus)
    recording.BN_MONT_CTX_free(mont)
    assert recording.live == set()


def draws(profile, count, label):
    """count (S, z, u, v) from random.Random(label) whose send does not
    abort."""
    rng = random.Random(label)
    while count:
        S, z = rng.randbytes(32), rng.randbytes(32)
        u, v = rng.randrange(1, profile.u_bound), rng.randrange(profile.v_bound)
        try:
            alice_generate(derive_session(S, z, profile), u, v)
        except ProtocolAbort:
            continue
        yield S, z, u, v
        count -= 1


def test_pinned_outputs_match_with_the_ladder_forced_off(monkeypatch,
                                                         tmp_path):
    monkeypatch.setattr(montpow, "_load", lambda: None)
    monkeypatch.setattr(montpow, "_contexts", {})
    assert sender_digests(PRODUCTION) == recorded("production")
    assert montpow._contexts[PRODUCTION_PRIME][0] is None  # the fallback ran
    for S, z, u, v in draws(PRODUCTION, 5, "ladder/off"):
        blob = serialize(alice_generate(derive_session(S, z, PRODUCTION), u,
                                        v))
        assert bob_verify(S, deserialize(blob, PRODUCTION), PRODUCTION) == v
    assert cli_main(["fixtures", "--out", str(tmp_path)]) == 0
    for name in ("vectors.txt", "discrepancies.txt"):
        assert (tmp_path / name).read_bytes() \
            == (FIXTURE_DIR / name).read_bytes(), name


def test_four_threads_give_the_serial_results(monkeypatch):
    # every thread races to build production's context on its first
    # power; exactly one builds it, and each send and receive returns
    # what it returns alone
    work = list(draws(PRODUCTION, 6, "ladder/threads"))

    def send(S, z, u, v):
        return serialize(alice_generate(derive_session(S, z, PRODUCTION),
                                        u, v))

    def receive(S, blob):
        return bob_verify(S, deserialize(blob, PRODUCTION), PRODUCTION)

    serial = [(blob := send(*args), receive(args[0], blob))
              for args in work]
    built, real_montgomery = [], montpow._montgomery

    def slow_montgomery(lib, M):
        built.append(M)
        time.sleep(0.01)  # holds the lock while the other threads arrive
        return real_montgomery(lib, M)

    monkeypatch.setattr(montpow, "_contexts", {})
    monkeypatch.setattr(montpow, "_montgomery", slow_montgomery)

    def worker(k):
        rotated = work[k:] + work[:k]
        out = []
        for _ in range(3):
            for args in rotated:
                blob = send(*args)
                out.append((blob, receive(args[0], blob)))
        return k, out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(worker, k) for k in range(4)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert built == [PRODUCTION_PRIME]
    for k, out in results:
        assert out == (serial[k:] + serial[:k]) * 3, k
