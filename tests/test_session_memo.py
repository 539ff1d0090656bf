"""Each oscillator and anchor hashes a session value once.

A send or a forgery game hashes two oscillator values and one anchor. On
the reference path a session reads each oscillator at one seed index
(t + d sits at C*n + d*P) and every point shares one anchor (i, K), so
PrfOscillator and PrfMasked remember their last value. These tests count
the hashes through a patched hook, check that the memo never returns a
stale value, and check that the memo belongs to one object only. Three
tests count every SHA3 call: of a send, whose derive_session makes the
nine derivation hashes and no more, of a receive, which builds no
session at all, and of an exhaustive sweep, whose s0 and s2 share one
set of oscillators and one anchor.
"""

from collections import Counter
import hashlib
import random

import pytest

from fourpoint import genfunc, oscillator, prf, protocol
from fourpoint.errors import ProtocolAbort, RejectHash
from fourpoint.genfunc import PrfMasked
from fourpoint.harness import lemma1_exhaustive, new_game
from fourpoint.modmath import Modulus
from fourpoint.oscillator import PrfOscillator
from fourpoint.prf import _prf_value
from fourpoint.protocol import (MINI, PRODUCTION, TOY, alice_generate,
                                bob_verify, derive_session)


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
    for module in (protocol, genfunc):  # the sender, PrfMasked.anchor
        monkeypatch.setattr(module, "anchor_value", counted_anchor_value)
    return counts


@pytest.fixture
def sha3_calls(monkeypatch):
    """Counter of every SHA3-256 call the package makes ("sha3")."""
    counts = Counter()

    def counted_sha3_256(*args):
        counts["sha3"] += 1
        return hashlib.sha3_256(*args)

    for module in (protocol, prf, oscillator):
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


def test_game_hashes_two_values_and_one_anchor(hashes):
    clean = 0
    for seed in range(40):
        hashes.clear()
        game = new_game(TOY, random.Random(seed))
        if game.aborts == 0:
            assert hashes == {"prf": 2, "anchor": 1}, seed
            clean += 1
    assert clean >= 30


def test_sweep_makes_6_sha3_calls(sha3_calls):
    # one Session.gen_pair hashes the two oscillator keys and the anchor
    # key; s0 hashes two PRF values and one anchor, which s2 reuses, as
    # t + 2u reads t's seed index and anchor (i, K)
    for seed in range(20):
        game = new_game(TOY, random.Random(seed))
        sha3_calls.clear()
        assert lemma1_exhaustive(game) == (1, [game.transcript.s3.value])
        assert sha3_calls == {"sha3": 6}, seed


def test_interleaved_seed_reads_match_a_fresh_hash():
    rng = random.Random(2)
    mod = TOY.mod
    osc = PrfOscillator(rng.randbytes(32), 4, 8, mod)
    for m in [0, 0, 5, 5, 0, 31, 5] + [rng.randrange(32) for _ in range(200)]:
        assert osc.seed_value(m) == _prf_value(osc.key, m, mod)
    assert osc.as_table().table == tuple(_prf_value(osc.key, m, mod)
                                         for m in range(osc.P))
    for m in (31, 0, 31):
        assert osc.seed_value(m) == _prf_value(osc.key, m, mod)


def test_interleaved_anchor_reads_match_a_fresh_hash():
    rng = random.Random(3)
    key = rng.randbytes(32)
    conv = PrfMasked(key)
    moduli = (Modulus(17), TOY.mod, PRODUCTION.mod)
    reads = [(1, 4, 0), (1, 4, 0), (1, 4, 1), (2, 4, 1), (2, 5, 1),
             (1, 4, 0), (1, 4, 2), (1, 4, 2)]
    reads += [(rng.randrange(1, 3), rng.randrange(3, 5), rng.randrange(3))
              for _ in range(200)]
    for i, K, which in reads:
        mod = moduli[which]
        assert conv.anchor(i, K, mod) == anchor_hash(key, i, K, mod.M)


def test_prf_masked_is_equal_and_hashed_by_key():
    a, b = PrfMasked(b"\x01" * 32), PrfMasked(b"\x01" * 32)
    a.anchor(1, 4, TOY.mod)
    assert a == b and hash(a) == hash(b)
    assert a != PrfMasked(b"\x02" * 32)


def test_sessions_from_one_nonce_share_no_memo(hashes):
    rng = random.Random(4)
    while True:
        S, z = rng.randbytes(32), rng.randbytes(32)
        try:
            sess = derive_session(S, z, TOY)
            alice_generate(sess, 3, 7)
            break
        except ProtocolAbort:
            continue
    other = derive_session(S, sess.z, TOY)
    assert other.conv == sess.conv and other.conv is not sess.conv
    assert other.phi is not sess.phi and other.psi is not sess.psi
    hashes.clear()
    alice_generate(other, 3, 7)
    assert hashes == {"prf": 2, "anchor": 1}
