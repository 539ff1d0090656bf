"""Exact work counts of each path on each profile, by conftest's work.

A count is a SHA3-256 call, a PRF-value or anchor hash, a built-in pow
or montpow ladder power by exponent class or a Python-level call. These do not drift with the
host as microseconds do, so a change to the hot path shows here first.

- A send makes derive_session's nine derivation hashes and seven more:
  two oscillator keys, two PRF values, the anchor key, the anchor and
  the check hash. Its pows are p^B, over 65 bits on production only,
  p^2u and one inverse; on production the two powers are montpow's.
- A receive past derive makes 14 SHA3 calls, whatever it decides: no
  anchor key, since X cancels out of recovery. Its pows are p^2u and
  one inverse.
- A game makes a send's work and adjudicates with one inverse. A
  failed draw stops after the two or three grid hashes.
- A send makes at most 13 Python-level calls, a receive at most 12, a
  toy round trip at most 25 and a toy game with its adversary at most 34.
  On production each power adds two, protocol._wide_pow and
  montpow.mont_pow: 17 per send and 14 per receive.
"""

from collections import Counter
import os
import random

import pytest

from fourpoint import harness, prf, protocol
from fourpoint.errors import (AbortSingular, AbortZeroIndex, ProtocolAbort,
                              RejectHash, RejectRange, RejectSession,
                              VerificationError)
from fourpoint.genfunc import reference_view
from fourpoint.harness import (Forgery, adjudicate, lemma1_exhaustive,
                               new_game, random_adversary)
from fourpoint.modmath import FieldElem
from fourpoint.protocol import (MINI, PRODUCTION, TOY, Message, NonceLog,
                                _draw, alice_generate, bob_verify,
                                derive_session, deserialize, send, serialize)

from conftest import bindings
from oracles import naive_session

PROFILES = pytest.mark.parametrize("profile", [MINI, TOY, PRODUCTION],
                                   ids=lambda p: p.name)

_NARROW_SEND = Counter({"sha3": 16, "prf": 2, "anchor": 1, "pow<=33": 2,
                        "inverse": 1})
SEND = {"mini": _NARROW_SEND, "toy": _NARROW_SEND,
        "production": Counter({"sha3": 16, "prf": 2, "anchor": 1,
                               "pow>65": 1, "pow<=33": 1, "inverse": 1})}
RECEIVE = Counter({"sha3": 14, "prf": 2, "pow<=33": 1, "inverse": 1})


@pytest.mark.parametrize("name, holders", [
    ("sha3_256", {"protocol", "prf", "oscillator", "genfunc"}),
    ("_prf_value", {"prf", "oscillator"}),
    ("anchor_value", {"prf", "protocol", "genfunc"})],
    ids=["sha3_256", "_prf_value", "anchor_value"])
def test_hooks_reach_every_binding(name, holders):
    real = getattr(prf, name)  # prf binds all three
    assert {m.__name__ for m, _ in bindings(real)} \
        >= {f"fourpoint.{h}" for h in holders}


def test_the_counter_classes_pows_and_counts_calls_alone(work):
    exponents = (1 << 65, (1 << 65) - 1, 1 << 33, (1 << 33) - 1, 0, -1)
    _, counts = work(lambda: [pow(3, e, 7) for e in exponents])
    assert counts == {"pow>65": 1, "pow34-65": 2, "pow<=33": 2,
                      "inverse": 1}

    def inner():
        return pow(3, -1, 7)

    assert work(lambda: inner() + inner(), calls=True) == (10, {"calls": 2})
    got, counts = work(bob_verify, bytes(32), Message(
        FieldElem(1, TOY.mod), FieldElem(1, TOY.mod), 0, bytes(32),
        bytes(32)), TOY)
    assert isinstance(got, RejectRange) and counts == {}


def sends(profile, label, count):
    """(S, z, u, v, blob) of count sends that do not abort, each blob
    from random.Random(label)'s (S, z, u, v)."""
    rng = random.Random(label)
    while count:
        S, z = rng.randbytes(32), rng.randbytes(32)
        u, v = rng.randrange(1, profile.u_bound), rng.randrange(profile.v_bound)
        try:
            blob = send_once(profile, S, z, u, v, None)
        except ProtocolAbort:
            continue
        yield S, z, u, v, blob
        count -= 1


def send_once(profile, S, z, u, v, blob):
    return serialize(alice_generate(derive_session(S, z, profile), u, v))


def receive_once(profile, S, z, u, v, blob):
    return bob_verify(S, deserialize(blob, profile), profile)


def round_trip(profile, S, z, u, v, blob):
    msg = alice_generate(derive_session(S, z, profile), u, v)
    return bob_verify(S, deserialize(serialize(msg), profile), profile)


@PROFILES
def test_send(profile, work):
    for S, z, u, v, blob in sends(profile, f"sha3/send/{profile.name}", 10):
        assert work(derive_session, S, z, profile)[1] == {"sha3": 9}
        assert work(send_once, profile, S, z, u, v, None) \
            == (blob, SEND[profile.name])
        assert receive_once(profile, S, z, u, v, blob) == v


@PROFILES
def test_receive(profile, work):
    # an honest message and one with a tampered check hash alike
    for S, z, u, v, blob in sends(profile, f"sha3/receive/{profile.name}", 10):
        msg = deserialize(blob, profile)
        assert work(bob_verify, S, msg, profile) == (v, RECEIVE)
        got, counts = work(bob_verify, S, msg._replace(h_check=bytes(32)),
                           profile)
        assert isinstance(got, RejectHash) and counts == RECEIVE


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
def test_every_outcome_past_derive_does_equal_work(profile, reached, work):
    # the reason a reject names is not told by the work it takes
    for seed in range(5):
        cases = outcomes_past_derive(profile, random.Random(seed))
        assert set(cases) == reached
        for want, (S, msg) in cases.items():
            got, counts = work(bob_verify, S, msg, profile)
            assert (type(got).__name__ if isinstance(got, VerificationError)
                    else "accept") == want, seed
            assert counts == RECEIVE, (want, seed)


@pytest.mark.parametrize("profile", [TOY, PRODUCTION], ids=lambda p: p.name)
def test_round_trip(profile, work):
    # a send's work and a receive's
    for S, z, u, v, _ in sends(profile, f"round-trip/{profile.name}", 10):
        assert work(round_trip, profile, S, z, u, v, None) \
            == (v, SEND[profile.name] + RECEIVE)


def game_once(profile, rng):
    """A game drawn by rng, its view and a random forgery adjudicated:
    the game's transcript and redraw count."""
    game = new_game(profile, rng)
    adjudicate(game, random_adversary(game.view(), rng))
    return game.transcript, game.aborts


@pytest.mark.parametrize("path, profile, ceiling", [
    (send_once, MINI, 13), (send_once, TOY, 13), (send_once, PRODUCTION, 17),
    (receive_once, MINI, 12), (receive_once, TOY, 12),
    (receive_once, PRODUCTION, 14), (round_trip, TOY, 25),
    (game_once, TOY, 34)],
    ids=["send-mini", "send-toy", "send-production", "receive-mini",
         "receive-toy", "receive-production", "round-trip-toy", "game-toy"])
def test_python_calls(path, profile, ceiling, work):
    # derive_session builds one tuple; alice_generate reads its raw ints,
    # builds no oscillator, anchor or typed session view, and its Message
    # in one tuple.__new__ call; deserialize and bob_verify build one
    # Session tuple and no oscillator or Message field check, and hash
    # without a helper call per value; every path reads the profile's
    # bounds as stored fields, not properties
    for S, z, u, v, blob in sends(profile, f"calls/{profile.name}", 5):
        args, want = (S, z, u, v, blob), blob if path is send_once else v
        if path is game_once:  # each of these five games draws once
            args, want = (random.Random(S),), game_once(profile,
                                                        random.Random(S))
            assert want[1] == 0
        got, counts = work(path, profile, *args, calls=True)
        assert got == want
        assert counts["calls"] <= ceiling


@pytest.mark.parametrize("profile", [MINI, TOY], ids=lambda p: p.name)
def test_failed_draw_stops_after_2_or_3_sha3_calls(profile, work):
    # K and i decide i = 0 (2 hashes), n decides M | K, M | n and the
    # caller's points (3 hashes); p, C and q1..q4 come after every check.
    # The receiver rejects such a nonce after the same hashes.
    rng = random.Random(f"sha3/abort/{profile.name}")
    want = {AbortZeroIndex: 2, AbortSingular: 3}
    seen = set()
    one = FieldElem(1, profile.mod)
    for _ in range(3000):
        S, z = rng.randbytes(32), rng.randbytes(32)
        offsets = tuple(rng.randrange(1, 64) for _ in range(rng.randrange(4)))
        sess, counts = work(derive_session, S, z, profile, offsets)
        if not isinstance(sess, ProtocolAbort):
            assert counts == {"sha3": 9}
            continue
        assert counts == {"sha3": want[type(sess)]}, sess
        seen.add(str(sess))
        if not offsets:
            got, counts = work(bob_verify, S, Message(one, one, 1, z,
                                                      bytes(32)), profile)
            assert isinstance(got, RejectSession)
            assert counts == {"sha3": want[type(sess)]}
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
@pytest.mark.parametrize("path", ["game", "send"])
def test_singular_point_aborts_after_3_sha3_calls(path, offset, work,
                                                  monkeypatch, tmp_path):
    # a game's draw and a send's draw alike; the send claims no nonce
    seed, S, z, u, v = singular_draw(TOY, offset)
    if path == "game":
        monkeypatch.setattr(harness, "_draw", lambda attempt: attempt(0))
        got, counts = work(new_game, TOY, random.Random(seed))
    else:
        monkeypatch.setattr(protocol, "_draw", lambda attempt: attempt(0))
        monkeypatch.setattr(os, "urandom", lambda n: z)
        got, counts = work(send, S, u, v, TOY, NonceLog(tmp_path / "nonces"))
        assert not (tmp_path / "nonces").exists()
    assert isinstance(got, AbortSingular)
    assert str(got) == "an evaluation point reduces to 0 mod M"
    assert counts == {"sha3": 3}


@pytest.mark.parametrize("profile, seeds", [(TOY, range(40)),
                                            (PRODUCTION, [45])],
                         ids=["toy", "production"])
def test_game(profile, seeds, work, monkeypatch):
    # a game makes a send's work and no reference work; adjudicate makes
    # one inverse and at most the check hash
    def unreachable(*args):
        raise AssertionError("s_M called")

    monkeypatch.setattr(harness, "s_M", unreachable)
    clean = 0
    for seed in seeds:
        game, counts = work(new_game, profile, random.Random(seed))
        if game.aborts:
            continue
        assert counts == SEND[profile.name], seed
        clean += 1
        view = game.view()
        for s_star, won in ((view.s3, True), ((view.s3 + 1) % view.M, False)):
            got, counts = work(adjudicate, game, Forgery(s_star, 2))
            assert got is won
            assert counts - Counter(sha3=1) == {"inverse": 1}, seed
    assert clean >= 3 * len(seeds) // 4


def test_sweep_makes_9_sha3_calls(work):
    # the sweep's one reference view hashes the two oscillator keys and
    # the anchor key; s0 and s2 each hash two PRF values and one anchor.
    # Each s_M takes p^B and two inverses, the map p^2u and one more.
    for seed in range(20):
        game = new_game(TOY, random.Random(seed))
        got, counts = work(lemma1_exhaustive, game)
        assert got == (1, [game.transcript.s3.value])
        assert counts == {"sha3": 9, "prf": 4, "anchor": 2, "pow<=33": 3,
                          "inverse": 5}, seed


def test_sessions_from_one_nonce_share_no_memo(work):
    # a second session from the same nonce hashes its values afresh
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
    _, counts = work(alice_generate, other, 3, 7)
    assert counts == SEND["toy"] - Counter(sha3=9)
