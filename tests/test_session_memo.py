"""A send, a receive and a forgery game hash each session value once.

A send or a forgery game hashes two oscillator values and one anchor.
On the reference path PrfOscillator and exp_at keep no value: each read
hashes again, so these tests also check that a read always matches a
fresh hash and that sessions from one nonce share no oscillator. The
hashes are counted through a patched hook. Other tests count every SHA3
call, in every package module that binds sha3_256: of a send, whose
derive_session makes the nine derivation hashes and no more, of a
receive, which derives through derive_session too, of an exhaustive
sweep, whose one reference view hashes the two oscillator keys and the
anchor key, and whose s0 and s2 each hash two values and one anchor,
and of a draw that aborts, which stops after the two or three grid
hashes.
"""

from collections import Counter
import builtins
import hashlib
import importlib
import os
import pkgutil
import random

import pytest

import fourpoint
from fourpoint import genfunc, harness, oscillator, prf, protocol
from fourpoint.errors import (AbortSingular, AbortZeroIndex, ProtocolAbort,
                              RejectHash, RejectSession, VerificationError)
from fourpoint.genfunc import reference_view
from fourpoint.harness import lemma1_exhaustive, new_game
from fourpoint.modmath import FieldElem, Modulus
from fourpoint.oscillator import OscSeed, PrfOscillator, TableOscillator
from fourpoint.prf import _prf_value, anchor_value
from fourpoint.protocol import (MINI, PRODUCTION, TOY, Message, NonceLog,
                                _draw, alice_generate, bob_verify,
                                derive_session, send)

from oracles import naive_session


@pytest.fixture
def hashes(monkeypatch):
    """Counter of PRF-value hashes ("prf") and anchor hashes ("anchor"),
    patched at every binding through which the package calls them."""
    counts = Counter()
    prf_value, anchor_value = prf._prf_value, prf.anchor_value

    def counted_prf_value(*args):
        counts["prf"] += 1
        return prf_value(*args)

    def counted_anchor_value(*args):
        counts["anchor"] += 1
        return anchor_value(*args)

    for module in (prf, oscillator):  # session_values, PrfOscillator
        monkeypatch.setattr(module, "_prf_value", counted_prf_value)
    for module in (protocol, genfunc):  # the sender, exp_at
        monkeypatch.setattr(module, "anchor_value", counted_anchor_value)
    return counts


def hashing_modules() -> list:
    """Every fourpoint module that binds hashlib's sha3_256."""
    modules = [importlib.import_module(f"fourpoint.{info.name}")
               for info in pkgutil.iter_modules(fourpoint.__path__)]
    return [m for m in modules
            if getattr(m, "sha3_256", None) is hashlib.sha3_256]


def test_hashing_modules_are_found():
    names = {m.__name__ for m in hashing_modules()}
    assert {"fourpoint.protocol", "fourpoint.prf", "fourpoint.oscillator",
            "fourpoint.genfunc"} <= names


@pytest.fixture
def sha3_calls(monkeypatch):
    """Counter of every SHA3-256 call the package makes ("sha3")."""
    counts = Counter()

    def counted_sha3_256(*args):
        counts["sha3"] += 1
        return hashlib.sha3_256(*args)

    for module in hashing_modules():
        monkeypatch.setattr(module, "sha3_256", counted_sha3_256)
    return counts


def anchor_hash(key: bytes, i: int, K: int, M: int) -> int:
    digest = hashlib.sha3_256(key + i.to_bytes(48, "big")
                              + K.to_bytes(48, "big")).digest()
    return int.from_bytes(digest, "big") % (M - 1) + 1


def test_round_trip_hashes_two_values_and_one_anchor_per_sender(hashes):
    rng = random.Random(1)
    checked = 0
    while checked < 20:
        S, z = rng.randbytes(32), rng.randbytes(32)
        try:
            sess = derive_session(S, z, TOY)
            hashes.clear()
            msg = alice_generate(sess, rng.randrange(1, TOY.u_bound),
                                 rng.randrange(TOY.v_bound))
        except ProtocolAbort:
            continue
        assert hashes == {"prf": 2, "anchor": 1}
        hashes.clear()
        bob_verify(S, msg, TOY)
        assert hashes == {"prf": 2}
        checked += 1


@pytest.mark.parametrize("profile", [TOY, PRODUCTION], ids=lambda p: p.name)
def test_receive_to_the_check_hash_makes_14_sha3_calls(profile, sha3_calls):
    # nine derivation hashes, two oscillator keys, two PRF values and the
    # check hash; no anchor key, since X cancels out of recovery
    rng = random.Random(f"sha3/{profile.name}")
    checked = 0
    while checked < 10:
        S, z = rng.randbytes(32), rng.randbytes(32)
        v = rng.randrange(profile.v_bound)
        try:
            msg = alice_generate(derive_session(S, z, profile),
                                 rng.randrange(1, profile.u_bound), v)
        except ProtocolAbort:
            continue
        sha3_calls.clear()
        assert bob_verify(S, msg, profile) == v
        assert sha3_calls == {"sha3": 14}
        sha3_calls.clear()
        forged = msg._replace(h_check=bytes(32))
        with pytest.raises(RejectHash):
            bob_verify(S, forged, profile)
        assert sha3_calls == {"sha3": 14}
        checked += 1


@pytest.mark.parametrize("profile", [MINI, TOY, PRODUCTION],
                         ids=lambda p: p.name)
def test_send_makes_9_sha3_calls_to_derive_and_16_in_all(profile,
                                                         sha3_calls):
    # derive_session makes the nine derivation hashes only; alice_generate
    # adds two oscillator keys, two PRF values, the anchor key, the anchor
    # and the check hash
    rng = random.Random(f"sha3/send/{profile.name}")
    sent = 0
    while sent < 10:
        S, z = rng.randbytes(32), rng.randbytes(32)
        u, v = rng.randrange(1, profile.u_bound), rng.randrange(profile.v_bound)
        sha3_calls.clear()
        try:
            sess = derive_session(S, z, profile)
        except ProtocolAbort:
            continue
        assert sha3_calls == {"sha3": 9}
        try:
            msg = alice_generate(sess, u, v)
        except ProtocolAbort:
            continue
        assert sha3_calls == {"sha3": 16}
        assert bob_verify(S, msg, profile) == v
        sent += 1


@pytest.mark.parametrize("profile", [MINI, TOY], ids=lambda p: p.name)
def test_failed_derivation_stops_after_2_or_3_sha3_calls(profile, sha3_calls):
    # K and i decide i = 0 (2 hashes), n decides M | K, M | n and the
    # caller's points (3 hashes); p, C and q1..q4 come after every check.
    # The receiver rejects such a nonce after the same hashes.
    rng = random.Random(f"sha3/abort/{profile.name}")
    want = {AbortZeroIndex: 2, AbortSingular: 3}
    seen = set()
    for _ in range(3000):
        S, z = rng.randbytes(32), rng.randbytes(32)
        offsets = tuple(rng.randrange(1, 64) for _ in range(rng.randrange(4)))
        sha3_calls.clear()
        try:
            derive_session(S, z, profile, offsets)
        except ProtocolAbort as exc:
            assert sha3_calls == {"sha3": want[type(exc)]}, exc
            seen.add(str(exc))
            if offsets:
                continue
            sha3_calls.clear()
            one = FieldElem(1, profile.mod)
            with pytest.raises(RejectSession):
                bob_verify(S, Message(one, one, 1, z, bytes(32)), profile)
            assert sha3_calls == {"sha3": want[type(exc)]}
        else:
            assert sha3_calls == {"sha3": 9}
    assert seen >= {"grid denominator or base point t is 0 mod M",
                    "an evaluation point reduces to 0 mod M"}
    if profile is MINI:  # i = 0 has chance 1/K, so toy all but never draws it
        assert "fractional index i = 0" in seen


# the three points t + d the sender checks, d as a function of (u, v)
POINTS = pytest.mark.parametrize("offset", [
    lambda u, v: 2 * v + 1, lambda u, v: 2 * u,
    lambda u, v: 2 * u + 2 * v + 1], ids=["2v+1", "2u", "2u+2v+1"])


def singular_draw(profile, offset):
    """(seed, S, z, u, v): the first seed whose first new_game draw
    derives with i != 0 and a base point off 0 mod M, but puts
    t + offset(u, v) at 0 mod M. naive_session, not derive_session, finds
    it."""
    M = profile.mod.M
    for seed in range(100_000):
        rng = random.Random(seed)
        S, z = rng.randbytes(32), rng.randbytes(32)
        u = rng.randrange(1, profile.u_bound)
        v = rng.randrange(0, profile.v_bound)
        sess = naive_session(S, z, profile)
        if not isinstance(sess, str) and (sess["B"] * sess["K"] + sess["i"]
                                          + offset(u, v) * sess["K"]) % M == 0:
            return seed, S, z, u, v
    raise AssertionError("no such draw")


@POINTS
def test_singular_point_aborts_a_game_after_3_sha3_calls(offset, sha3_calls,
                                                         monkeypatch):
    seed, *_ = singular_draw(TOY, offset)
    monkeypatch.setattr(harness, "_draw", lambda attempt: attempt(0))
    sha3_calls.clear()
    with pytest.raises(AbortSingular, match="evaluation point"):
        new_game(TOY, random.Random(seed))
    assert sha3_calls == {"sha3": 3}


@POINTS
def test_singular_point_aborts_a_send_draw_after_3_sha3_calls(
        offset, sha3_calls, monkeypatch, tmp_path):
    _, S, z, u, v = singular_draw(TOY, offset)
    monkeypatch.setattr(protocol, "_draw", lambda attempt: attempt(0))
    monkeypatch.setattr(os, "urandom", lambda n: z)
    sha3_calls.clear()
    with pytest.raises(AbortSingular, match="evaluation point"):
        send(S, u, v, TOY, NonceLog(tmp_path / "nonces"))
    assert sha3_calls == {"sha3": 3}
    assert not (tmp_path / "nonces").exists()


def outcomes_past_derive(profile, rng):
    """{outcome: (S, msg)} for an honest message and each reject after
    derive_session that the profile can reach: a tampered hash,
    s1*p^2u = s3, a u that makes t + 2u singular (only where such a u is
    below u_bound), a v at or over 2^64 (only where M is wider) and a v
    at v_bound with a matching hash (only where v_bound is below both M
    and 2^64)."""
    M = profile.mod.M

    def attempt(_):
        S, z = rng.randbytes(32), rng.randbytes(32)
        u = rng.randrange(1, profile.u_bound)
        sess = derive_session(S, z, profile)
        return S, z, u, sess, alice_generate(sess, u,
                                             rng.randrange(profile.v_bound))
    S, z, u, sess, msg = _draw(attempt)
    denom = FieldElem(msg.s3.value * pow(sess.base, -2 * u, M), profile.mod)
    cases = {"accept": msg, "RejectHash": msg._replace(h_check=bytes(32)),
             "RejectDenominator": msg._replace(s1=denom)}
    singular_u = -sess.n * pow(2 * sess.K, -1, M) % M
    if 1 <= singular_u < profile.u_bound:
        cases["RejectSession"] = msg._replace(u=singular_u)
    if M > protocol.CHECK_V_BOUND:
        cases["RejectRange"] = msg._replace(s1=msg.s1 + 1)
    if profile.v_bound < min(M, protocol.CHECK_V_BOUND):
        wider = profile._replace(v_bits=profile.v_bits + 1)
        cases["RejectRange"] = alice_generate(
            derive_session(S, z, wider), u, profile.v_bound)
    return {name: (S, m) for name, m in cases.items()}


@pytest.mark.parametrize("profile, reached", [
    (MINI, {"accept", "RejectHash", "RejectDenominator", "RejectSession",
            "RejectRange"}),
    (TOY, {"accept", "RejectHash", "RejectDenominator", "RejectSession"}),
    (PRODUCTION, {"accept", "RejectHash", "RejectDenominator",
                  "RejectRange"})], ids=["mini", "toy", "production"])
def test_every_outcome_past_derive_does_equal_work(profile, reached,
                                                   sha3_calls, monkeypatch):
    # 14 SHA3 calls (nine derivation hashes, two oscillator keys, two
    # values, the check hash), p^2u and one inverse, no wider pow: the
    # reason a reject names is not told by the work it takes
    real_pow, exponents = builtins.pow, []

    def counted_pow(base, exp, mod=None):
        exponents.append(exp)
        return real_pow(base, exp, mod)

    for seed in range(5):
        cases = outcomes_past_derive(profile, random.Random(seed))
        assert set(cases) == reached
        for want, (S, msg) in cases.items():
            sha3_calls.clear()
            exponents.clear()
            monkeypatch.setattr(builtins, "pow", counted_pow)
            try:
                bob_verify(S, msg, profile)
                got = "accept"
            except VerificationError as exc:
                got = type(exc).__name__
            finally:
                monkeypatch.setattr(builtins, "pow", real_pow)
            assert got == want, seed
            assert sha3_calls == {"sha3": 14}, (want, seed)
            assert exponents.count(-1) == 1 and len(exponents) == 2, want
            assert max(e.bit_length() for e in exponents) <= 33, want


def test_game_hashes_two_values_and_one_anchor(hashes):
    clean = 0
    for seed in range(40):
        hashes.clear()
        game = new_game(TOY, random.Random(seed))
        if game.aborts == 0:
            assert hashes == {"prf": 2, "anchor": 1}, seed
            clean += 1
    assert clean >= 30


def test_sweep_makes_9_sha3_calls(sha3_calls):
    # the sweep's one reference view hashes the two oscillator keys and
    # the anchor key; s0 and s2 each hash two PRF values and one anchor
    for seed in range(20):
        game = new_game(TOY, random.Random(seed))
        sha3_calls.clear()
        assert lemma1_exhaustive(game) == (1, [game.transcript.s3.value])
        assert sha3_calls == {"sha3": 9}, seed


def test_interleaved_seed_reads_match_a_fresh_hash():
    rng = random.Random(2)
    mod = TOY.mod
    osc = PrfOscillator(rng.randbytes(32), 4, 8, mod)
    for m in [0, 0, 5, 5, 0, 31, 5] + [rng.randrange(32) for _ in range(200)]:
        assert osc.seed_value(m) == _prf_value(osc.key, m, mod.M)
    table = TableOscillator(
        OscSeed([osc.seed_value(m) for m in range(osc.P)], 4, 8), mod)
    assert table.table == tuple(_prf_value(osc.key, m, mod.M)
                                for m in range(osc.P))
    for m in (31, 0, 31):
        assert osc.seed_value(m) == _prf_value(osc.key, m, mod.M)


def test_interleaved_anchor_reads_match_a_fresh_hash():
    rng = random.Random(3)
    key = rng.randbytes(32)
    moduli = (Modulus(17), TOY.mod, PRODUCTION.mod)
    reads = [(1, 4, 0), (1, 4, 0), (1, 4, 1), (2, 4, 1), (2, 5, 1),
             (1, 4, 0), (1, 4, 2), (1, 4, 2)]
    reads += [(rng.randrange(1, 3), rng.randrange(3, 5), rng.randrange(3))
              for _ in range(200)]
    for i, K, which in reads:
        mod = moduli[which]
        assert anchor_value(key, i, K, mod.M) == anchor_hash(key, i, K, mod.M)


def test_sessions_from_one_nonce_share_no_memo(hashes):
    rng = random.Random(4)

    def attempt(_):
        sess = derive_session(rng.randbytes(32), rng.randbytes(32), TOY)
        alice_generate(sess, 3, 7)
        return sess
    sess = _draw(attempt)
    other = derive_session(sess.S, sess.z, TOY)
    ref, other_ref = reference_view(sess), reference_view(other)
    assert other_ref.anchor_key == ref.anchor_key
    assert other_ref.phi is not ref.phi and other_ref.psi is not ref.psi
    hashes.clear()
    alice_generate(other, 3, 7)
    assert hashes == {"prf": 2, "anchor": 1}
