"""The fraction-free protocol path against the s_M / recover_v definition.

alice_generate computes s1 and s3 on raw ints from one full-width
exponentiation and one inverse. bob_verify recovers v from one inverse
and no full-width exponentiation: X = p^t cancels out of its recovery,
so it never evaluates p^B or the PRF mask. The reference below evaluates
the generating function at each point with s_M and solves for v with
recover_v, as the protocol did before. Both must give the same bytes,
the same typed reason and the same v on every input, including the
corners of the (u, v) envelope.
"""

import hmac
import random

import pytest

from fourpoint.errors import (AbortNonInvertible, AbortSingular, BadLength,
                              FieldOverflow, NonInvertible, ProtocolAbort,
                              RejectDenominator, RejectHash, RejectRange,
                              RejectSession, VerificationError)
from fourpoint import genfunc, oscillator, protocol
from fourpoint.genfunc import reference_view, s_M
from fourpoint.invariant import check_denominator, recover_v
from fourpoint.modmath import EvalPoint, FieldElem
from fourpoint.protocol import (CHECK_V_BOUND, MINI, PRODUCTION, TOY,
                                Message, _draw, alice_generate, bob_verify,
                                compute_check, derive_session, deserialize,
                                serialize)


def reference_generate(sess, u, v):
    ref = reference_view(sess)
    try:
        s_M(ref.numer, ref.t)
        s1 = s_M(ref.numer, ref.t + (2 * v + 1))
        s_M(ref.denom, ref.t + 2 * u)
        s3 = s_M(ref.denom, ref.t + (2 * u + 2 * v + 1))
    except NonInvertible as exc:
        raise AbortSingular(str(exc)) from None
    if not check_denominator(s1, s3, ref.p, u):
        raise AbortNonInvertible("recovery denominator not invertible")
    return Message(s1, s3, u, sess.z,
                   compute_check(sess.S, v, s1.value, s3.value, u, sess.z))


def reference_verify(S, msg, profile):
    if not 1 <= msg.u < profile.u_bound:
        raise RejectRange("u outside the envelope")
    try:
        ref = reference_view(derive_session(S, msg.z, profile))
    except ProtocolAbort:
        raise RejectSession("session recomputation aborted") from None
    try:
        s0 = s_M(ref.numer, ref.t)
        s2 = s_M(ref.denom, ref.t + 2 * msg.u)
    except NonInvertible:
        raise RejectSession("evaluation point singular") from None
    if not check_denominator(msg.s1, msg.s3, ref.p, msg.u):
        raise RejectDenominator("denominator check failed")
    try:
        v = recover_v(s0, msg.s1, s2, msg.s3, ref.t.img, msg.u,
                      ref.p).value
    except NonInvertible:
        raise RejectDenominator("singular") from None
    encodable = v < CHECK_V_BOUND
    matches = hmac.compare_digest(
        compute_check(S, v if encodable else 0, msg.s1.value, msg.s3.value,
                      msg.u, msg.z),
        msg.h_check)
    if not encodable:
        raise RejectRange("exceeds the check encoding")
    if not matches:
        raise RejectHash("check hash mismatch")
    if v >= profile.v_bound:
        raise RejectRange("out of range")
    return v


def outcome(fn, *args):
    """The value fn returns, or the class of the typed error it raises."""
    try:
        return fn(*args)
    except (ProtocolAbort, VerificationError) as exc:
        return type(exc)


def receive(verify, S, blob, profile):
    try:
        msg = deserialize(blob, profile)
    except (BadLength, FieldOverflow) as exc:
        return type(exc)
    return outcome(verify, S, msg, profile)


def flip(blob, bit):
    out = bytearray(blob)
    out[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(out)


def matches_the_reference(rng, S, sess, u, v):
    """Send (u, v) both ways, then receive the blob and three single-bit
    flips of it both ways; False when the send aborted (alike)."""
    profile = sess.profile
    got = outcome(alice_generate, sess, u, v)
    want = outcome(reference_generate, sess, u, v)
    if not isinstance(want, Message):
        assert got is want
        return False
    assert isinstance(got, Message) and serialize(got) == serialize(want)
    blob = serialize(want)
    blobs = [blob] + [flip(blob, rng.randrange(len(blob) * 8))
                      for _ in range(3)]
    for data in blobs:
        assert (receive(bob_verify, S, data, profile)
                == receive(reference_verify, S, data, profile))
    assert receive(bob_verify, S, blob, profile) == v
    return True


def fresh_session(rng, profile):
    """(S, session) on the first nonce that does not abort, by _draw."""
    def attempt(_):
        S = rng.randbytes(32)
        return S, derive_session(S, rng.randbytes(32), profile)
    return _draw(attempt)


PROFILES = pytest.mark.parametrize("profile", [MINI, TOY, PRODUCTION],
                                   ids=lambda p: p.name)


@pytest.mark.parametrize("profile, sessions", [
    (MINI, 1500), (TOY, 600), (PRODUCTION, 40)])
def test_same_bytes_reasons_and_v_as_the_reference(profile, sessions):
    rng = random.Random(f"fraction-free/{profile.name}")
    sent = aborted = 0
    for _ in range(sessions):
        S = rng.randbytes(32)
        try:
            sess = derive_session(S, rng.randbytes(32), profile)
        except ProtocolAbort:
            continue
        u = rng.randrange(1, profile.u_bound)
        v = rng.randrange(0, profile.v_bound)
        if matches_the_reference(rng, S, sess, u, v):
            sent += 1
        else:
            aborted += 1
    assert sent > sessions // 2
    if profile is MINI:
        assert aborted  # the abort paths were compared too


@PROFILES
def test_envelope_corners_match_the_reference(profile):
    # The sender's exponent B + 2v+1 and the receiver's 2u are largest at
    # the top corners of the envelope.
    rng = random.Random(f"corners/{profile.name}")
    sends = 3 if profile is PRODUCTION else 20
    for u in (1, profile.u_bound - 1):
        for v in (0, profile.v_bound - 1):
            sent = 0
            for _ in range(100 * sends):  # redraw the nonce on an abort
                S, sess = fresh_session(rng, profile)
                sent += matches_the_reference(rng, S, sess, u, v)
                if sent == sends:
                    break
            assert sent == sends, (u, v)


@PROFILES
def test_receiver_recovery_needs_neither_p_to_the_t_nor_the_mask(
        profile, monkeypatch):
    rng = random.Random(f"cancellation/{profile.name}")
    cases = []  # (S, blob, what bob_verify makes of it unpatched)
    for _ in range(10 if profile is PRODUCTION else 100):
        S, sess = fresh_session(rng, profile)
        v = rng.randrange(profile.v_bound)
        try:
            msg = alice_generate(sess, rng.randrange(1, profile.u_bound), v)
        except ProtocolAbort:
            continue
        blob = serialize(msg)
        cases.append((S, blob, v))
        cases += [(S, data, receive(bob_verify, S, data, profile))
                  for data in (flip(blob, rng.randrange(len(blob) * 8))
                               for _ in range(3))]
    assert len(cases) >= 20

    def unreachable(*args):
        raise AssertionError("the receiver evaluated the exponential term")

    monkeypatch.setattr(protocol, "anchor_value", unreachable)
    monkeypatch.setattr(genfunc, "anchor_value", unreachable)
    for S, data, want in cases:
        assert receive(bob_verify, S, data, profile) == want

    def unbuilt(*args):
        raise AssertionError("the receiver built a reference object")

    # nor does it build a grid point, an oscillator or a typed view: it
    # reads the Session's raw ints and Phi and Psi at t as raw ints
    monkeypatch.setattr(EvalPoint, "__init__", unbuilt)
    monkeypatch.setattr(genfunc, "reference_view", unbuilt)
    monkeypatch.setattr(oscillator.PrfOscillator, "__init__", unbuilt)
    for name in ("PrfOscillator", "generate"):
        monkeypatch.setattr(oscillator, name, unbuilt)
    for S, data, want in cases:
        assert receive(bob_verify, S, data, profile) == want


def test_discarded_s2_point_still_aborts():
    # Only t + 2u is 0 mod 17 here: s1 and s3 exist, but the receiver's
    # s2 does not, so the sender must abort as the reference does.
    S = bytes.fromhex("19a47e1e70bcc951")
    z = bytes.fromhex("5adfa480fc2f8bf33bd0068397c7aea5"
                      "90ff28dc4992f4f38468461acbac55e2")
    sess = derive_session(S, z, MINI)
    u, v = 1, 0
    K, n, M = sess.K, sess.n, MINI.mod.M
    assert (n + 2 * u * K) % M == 0
    assert (n + (2 * v + 1) * K) % M and (n + (2 * u + 2 * v + 1) * K) % M
    with pytest.raises(AbortSingular):
        alice_generate(sess, u, v)
    with pytest.raises(AbortSingular):
        reference_generate(sess, u, v)


def test_foreign_modulus_refused_like_the_reference():
    rng = random.Random(6)
    S = rng.randbytes(32)
    msg = alice_generate(derive_session(S, rng.randbytes(32), PRODUCTION), 3, 7)
    foreign = msg._replace(s1=FieldElem(msg.s1.value, TOY.mod),
                           s3=FieldElem(msg.s3.value, TOY.mod))
    for verify in (bob_verify, reference_verify):
        with pytest.raises(ValueError, match="mixed moduli"):
            verify(S, foreign, PRODUCTION)


def test_hash_bound_value_at_v_bound_rejected_as_out_of_range():
    # On mini v_bound is 16 and M is 17, so v = 16 is recoverable and
    # encodable: only the last range check can refuse it, after the hash
    # has matched.
    v = MINI.v_bound
    assert v < MINI.mod.M
    rng = random.Random(1)
    reached = 0
    for _ in range(200):
        S, sess = fresh_session(rng, MINI)
        try:
            msg = reference_generate(sess, rng.randrange(1, MINI.u_bound), v)
        except ProtocolAbort:
            continue
        with pytest.raises(RejectRange) as info:
            bob_verify(S, msg, MINI)
        # the text does not carry the recovered value: it is fixed, and
        # its one number is the public v_bound (which here equals v)
        assert str(info.value) == f"recovered value outside [0, {v})"
        with pytest.raises(RejectRange, match="out of range"):
            reference_verify(S, msg, MINI)
        reached += 1
    assert reached > 100
