"""The fraction-free protocol path against the s_M / recover_v definition.

alice_generate and bob_verify compute s1, s3 and the recovered v on raw
ints from one exponentiation and one inverse per party. The reference
below evaluates the generating function at each point with s_M and
solves for v with recover_v, as the protocol did before. Both must give
the same bytes, the same typed reason and the same v on every input.
"""

import builtins
import hmac
import random

import pytest

from fourpoint.errors import (AbortNonInvertible, AbortSingular, BadLength,
                              FieldOverflow, ProtocolAbort, RejectDenominator,
                              RejectHash, RejectRange, RejectSession,
                              SingularDenominator, SingularPoint,
                              VerificationError)
from fourpoint.genfunc import s_M
from fourpoint.invariant import check_denominator, recover_v
from fourpoint.modmath import FieldElem
from fourpoint.protocol import (CHECK_V_BOUND, MINI, PRODUCTION, TOY,
                                Message, alice_generate, bob_verify,
                                compute_check, derive_session, deserialize,
                                serialize)


def reference_generate(sess, u, v):
    try:
        s_M(sess.gen_numer, sess.t)
        s1 = s_M(sess.gen_numer, sess.t + (2 * v + 1))
        s_M(sess.gen_denom, sess.t + 2 * u)
        s3 = s_M(sess.gen_denom, sess.t + (2 * u + 2 * v + 1))
    except SingularPoint as exc:
        raise AbortSingular(str(exc)) from None
    if not check_denominator(s1, s3, sess.p, u):
        raise AbortNonInvertible("recovery denominator not invertible")
    return Message(s1, s3, u, sess.z,
                   compute_check(sess.S, v, s1, s3, u, sess.z))


def reference_verify(S, msg, profile):
    if not 1 <= msg.u < profile.u_bound:
        raise RejectRange("u outside the envelope")
    try:
        sess = derive_session(S, msg.z, profile)
    except ProtocolAbort:
        raise RejectSession("session recomputation aborted") from None
    try:
        s0 = s_M(sess.gen_numer, sess.t)
        s2 = s_M(sess.gen_denom, sess.t + 2 * msg.u)
    except SingularPoint:
        raise RejectSession("evaluation point singular") from None
    if not check_denominator(msg.s1, msg.s3, sess.p, msg.u):
        raise RejectDenominator("denominator check failed")
    try:
        v = recover_v(s0, msg.s1, s2, msg.s3, sess.t.img, msg.u,
                      sess.p).value
    except SingularDenominator:
        raise RejectDenominator("singular") from None
    encodable = v < CHECK_V_BOUND
    matches = hmac.compare_digest(
        compute_check(S, v if encodable else 0, msg.s1, msg.s3, msg.u, msg.z),
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
        got = outcome(alice_generate, sess, u, v)
        want = outcome(reference_generate, sess, u, v)
        if isinstance(want, Message):
            assert isinstance(got, Message) and serialize(got) == serialize(want)
        else:
            assert got is want
            aborted += 1
            continue
        sent += 1
        blob = serialize(want)
        blobs = [blob] + [flip(blob, rng.randrange(len(blob) * 8))
                          for _ in range(3)]
        for data in blobs:
            assert (receive(bob_verify, S, data, profile)
                    == receive(reference_verify, S, data, profile))
        assert receive(bob_verify, S, blob, profile) == v
    assert sent > sessions // 2
    if profile is MINI:
        assert aborted  # the abort paths were compared too


def test_discarded_s2_point_still_aborts():
    # Only t + 2u is 0 mod 17 here: s1 and s3 exist, but the receiver's
    # s2 does not, so the sender must abort as the reference does.
    S = bytes.fromhex("19a47e1e70bcc951")
    z = bytes.fromhex("5adfa480fc2f8bf33bd0068397c7aea5"
                      "90ff28dc4992f4f38468461acbac55e2")
    sess = derive_session(S, z, MINI)
    u, v = 1, 0
    K, n, M = sess.t.K, sess.t.n, MINI.mod.M
    assert (n + 2 * u * K) % M == 0
    assert (n + (2 * v + 1) * K) % M and (n + (2 * u + 2 * v + 1) * K) % M
    with pytest.raises(AbortSingular):
        alice_generate(sess, u, v)
    with pytest.raises(AbortSingular):
        reference_generate(sess, u, v)


def test_one_full_width_pow_and_one_inverse_per_party(monkeypatch):
    rng = random.Random(5)
    S, z = rng.randbytes(32), rng.randbytes(32)
    u, v = rng.randrange(1, PRODUCTION.u_bound), rng.randrange(1 << 64)
    calls = []
    real_pow = builtins.pow

    def counting_pow(base, exp, mod=None):
        calls.append(exp)
        return real_pow(base, exp, mod)

    def budget(fn, *args):
        calls.clear()
        monkeypatch.setattr(builtins, "pow", counting_pow)
        try:
            result = fn(*args)
        finally:
            monkeypatch.setattr(builtins, "pow", real_pow)
        return (result, sum(e.bit_length() > 65 for e in calls),
                calls.count(-1))

    msg, wide, inverses = budget(
        lambda: alice_generate(derive_session(S, z, PRODUCTION), u, v))
    assert (wide, inverses) == (1, 1)
    got, wide, inverses = budget(bob_verify, S, msg, PRODUCTION)
    assert got == v
    assert (wide, inverses) == (1, 1)


def test_foreign_modulus_refused_like_the_reference():
    rng = random.Random(6)
    S = rng.randbytes(32)
    msg = alice_generate(derive_session(S, rng.randbytes(32), PRODUCTION), 3, 7)
    foreign = msg._replace(s1=FieldElem(msg.s1.value, TOY.mod),
                           s3=FieldElem(msg.s3.value, TOY.mod))
    for verify in (bob_verify, reference_verify):
        with pytest.raises(ValueError, match="mixed moduli"):
            verify(S, foreign, PRODUCTION)
