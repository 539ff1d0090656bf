import copy
import inspect
import os
import pickle
import random
import time
import tracemalloc
from hashlib import sha3_256

import pytest
from hypothesis import given, settings, strategies as st

from fourpoint.errors import (AbortNonInvertible, AbortSingular,
                              AbortZeroIndex, BadLength, FieldOverflow,
                              NonInvertible, ProtocolAbort,
                              RejectDenominator, RejectHash, RejectRange,
                              RejectSession, VerificationError)
from fourpoint.genfunc import GenParams, reference_view, s_M
from fourpoint.harness import new_game
from fourpoint.invariant import check_denominator, recover_v
from fourpoint.modmath import FieldElem, Modulus, mod_pow
from fourpoint.oscillator import eval_at, index_value
import fourpoint
from fourpoint import modmath, protocol
from fourpoint.protocol import (MESSAGE_LEN, MINI, NONCE_TRIES, PRODUCTION,
                                PRODUCTION_PRIME, TOY, Message, NonceLog,
                                Profile, _draw, _offsets, alice_generate,
                                bob_verify, compute_check, derive_session,
                                deserialize,
                                dump_profile, get_profile, load_profile,
                                profile_from_dict, profile_to_dict, receive,
                                send, serialize)

from conftest import fresh_session
from oracles import naive_session

PROFILES = pytest.mark.parametrize("profile", [MINI, TOY, PRODUCTION],
                                   ids=lambda p: p.name)
# primes of 2 to 256 bits, built once: a 64-bit M is the min_secret_len edge
MODULI = [Modulus(M) for M in (3, 17, 257, 65537, (1 << 31) - 1,
                               (1 << 61) - 1, (1 << 63) - 25, (1 << 64) - 59,
                               (1 << 89) - 1, (1 << 127) - 1,
                               PRODUCTION_PRIME)]


def bounds(profile):
    return (profile.u_bound, profile.v_bound, profile.min_secret_len,
            profile.ladder)


def closed_forms(profile):
    """(2^u_bits, min(2^v_bits, M), 32 if M >= 2^63 else 8, M >= 2^64),
    computed without bit_length; v_bits is small enough to shift here."""
    M = profile.mod.M
    return (2 ** profile.u_bits, min(2 ** profile.v_bits, M),
            32 if M >= 2 ** 63 else 8, M >= 2 ** 64)


class TestProfiles:
    def test_builtin_parameters(self):
        assert TOY.mod.M == 257 and TOY.v_bound == 257
        assert MINI.mod.M == 17 and MINI.v_bound == 16
        assert PRODUCTION.mod.M == PRODUCTION_PRIME
        assert PRODUCTION.v_bound == 1 << 64
        assert TOY.u_bound == 1 << 16
        assert TOY.min_secret_len == 8
        assert PRODUCTION.min_secret_len == 32

    @pytest.mark.parametrize("profile", [
        TOY, MINI, PRODUCTION,
        # the min_secret_len edge: a 63-bit and a 64-bit M
        Profile("63", Modulus((1 << 63) - 25), 2, 4, 2, 4, 8, 70),
        Profile("64", Modulus((1 << 64) - 59), 2, 4, 2, 4, 8, 70)],
        ids=["toy", "mini", "production", "M63", "M64"])
    def test_stored_bounds_are_the_closed_forms(self, profile):
        assert bounds(profile) == closed_forms(profile)
        assert profile.min_secret_len == (32 if profile.name in
                                          ("production", "64") else 8)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(MODULI), st.integers(2, 1 << 40),
           st.integers(0, 1 << 40), st.integers(2, 1 << 40),
           st.integers(0, 1 << 40), st.integers(1, 32), st.integers(0, 80))
    def test_stored_bounds_of_any_valid_profile(self, mod, K_min, K_span,
                                                C_min, C_span, u_bits,
                                                v_bits):
        if mod.M > protocol.CHECK_V_BOUND:
            v_bits = min(v_bits, 64)
        if K_span == 0 and K_min % mod.M == 0:
            K_span = 1
        profile = Profile("p", mod, K_min, K_min + K_span, C_min,
                          C_min + C_span, u_bits, v_bits)
        assert bounds(profile) == closed_forms(profile)

    def test_every_rebuild_derives_the_bounds_afresh(self):
        # a record whose stored bounds are wrong, built past __new__:
        # each way of copying or rebuilding it derives them again
        stale = tuple.__new__(Profile, TOY[:8] + (5, 5, 5, True))
        for rebuilt in (Profile._make(stale), stale._replace(name="toy"),
                        pickle.loads(pickle.dumps(stale)), copy.copy(stale),
                        copy.deepcopy(stale),
                        profile_from_dict(profile_to_dict(stale))):
            assert type(rebuilt) is Profile
            assert rebuilt == TOY and bounds(rebuilt) == closed_forms(TOY)
        narrow = stale._replace(u_bits=8)
        assert bounds(narrow) == (1 << 8, 257, 8, False) \
            == closed_forms(narrow)

    def test_a_derived_value_is_never_taken_from_the_caller(self):
        # the constructor and _replace refuse one as an unknown argument;
        # _make drops the last four of a whole record
        for field in ("u_bound", "v_bound", "min_secret_len", "ladder"):
            with pytest.raises(TypeError, match=field):
                Profile(*TOY[:8], **{field: 5})
            with pytest.raises(TypeError, match=field):
                TOY._replace(**{field: 5})
        with pytest.raises(TypeError):
            Profile(*TOY[:8], 5)
        assert bounds(Profile._make(TOY[:8] + (5, 5, 5, True))) == bounds(TOY)
        assert Profile._make(TOY[:8]) == TOY

    def test_files_hold_only_the_given_fields(self, tmp_path):
        assert list(profile_to_dict(TOY)) == [
            "name", "K_min", "K_max", "C_min", "C_max", "u_bits", "v_bits",
            "M", "hash"]
        dump_profile(TOY, tmp_path / "toy.json")
        assert (tmp_path / "toy.json").read_text() == (
            '{\n  "C_max": 1024,\n  "C_min": 2,\n  "K_max": 65536,\n'
            '  "K_min": 2,\n  "M": "257",\n  "hash": "sha3-256",\n'
            '  "name": "toy",\n  "u_bits": 16,\n  "v_bits": 16\n}\n')

    @pytest.mark.parametrize("field, value", [
        ("name", 7), ("name", None), ("mod", 257), ("mod", None),
        ("K_min", 2.0), ("K_max", True), ("C_min", "2"), ("C_max", None),
        ("u_bits", 8.0), ("u_bits", True), ("v_bits", False)])
    def test_wrongly_typed_field_refused(self, field, value):
        # each is refused by name before any check reads it; a bool is
        # no width, as in profile files
        fields = dict(zip(Profile._fields[:8], TOY))
        with pytest.raises(ValueError, match=f"^profile field {field!r} has "
                                             f"a {type(value).__name__} "):
            Profile(**{**fields, field: value})
        with pytest.raises(ValueError, match=repr(field)):
            TOY._replace(**{field: value})

    def test_get_profile(self):
        assert get_profile("toy") is TOY
        with pytest.raises(ValueError):
            get_profile("nope")

    def test_dict_roundtrip(self):
        for p in (TOY, MINI, PRODUCTION):
            d = profile_to_dict(p)
            assert isinstance(d["M"], str)  # decimal string survives JSON
            assert profile_from_dict(d) == p

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "prod.json"
        dump_profile(PRODUCTION, path)
        assert load_profile(path) == PRODUCTION

    def test_file_over_the_size_cap_refused(self, tmp_path):
        # a valid profile padded with JSON whitespace: up to 4096 bytes it
        # loads, one byte more and it is refused before parsing
        path = tmp_path / "padded.json"
        dump_profile(PRODUCTION, path)
        text = path.read_text()
        path.write_text(text.ljust(4096))
        assert load_profile(path) == PRODUCTION
        path.write_text(text.ljust(4097))
        with pytest.raises(ValueError, match="over 4096 bytes"):
            load_profile(path)
        with open(path, "wb") as fh:
            fh.truncate(64 << 20)  # sparse: 64 MB of zeros, no disk used
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over 4096 bytes"):
                load_profile(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_size_cap_counts_bytes_not_decoded_characters(self, tmp_path):
        # CRLF padding: 4097 bytes on disk, fewer characters once a text
        # read has turned each "\r\n" into "\n"
        path = tmp_path / "crlf.json"
        dump_profile(TOY, path)
        body = path.read_bytes()
        pad = 4097 - len(body)
        path.write_bytes(body + b"\r\n" * (pad // 2) + b" " * (pad % 2))
        assert os.path.getsize(path) == 4097 and len(path.read_text()) < 4096
        with pytest.raises(ValueError, match="over 4096 bytes"):
            load_profile(path)

    def test_bad_hash_rejected(self):
        d = profile_to_dict(TOY)
        assert d["hash"] == "sha3-256"
        d["hash"] = "md5"
        with pytest.raises(ValueError):
            profile_from_dict(d)

    @pytest.mark.parametrize("key, value", [
        ("u_bits", None), ("u_bits", True), ("u_bits", 8.0), ("u_bits", "8"),
        ("K_min", [2]), ("M", None), ("M", 257.0), ("name", 7),
        ("name", None), ("C_max", "1024"), ("K_max", {}), ("v_bits", "16"),
        ("v_bits", 16.0), ("M", [257]), ("M", True)])
    def test_wrongly_typed_value_rejected(self, key, value):
        # a file's value gets the record's own text; only M, which a file
        # spells its own way, has a file text
        text = "profile key" if key == "M" else "profile field"
        with pytest.raises(ValueError, match=f"^{text} {key!r} has a "
                                             f"{type(value).__name__} value$"):
            profile_from_dict({**profile_to_dict(TOY), key: value})

    @pytest.mark.parametrize("key, value", [
        ("u_bits", 0), ("u_bits", -1), ("v_bits", -1)])
    def test_bit_width_out_of_range_rejected(self, key, value):
        # u_bits 0 leaves no u in [1, 2^u_bits) to send; a negative width
        # is no width at all
        with pytest.raises(ValueError, match=key):
            profile_from_dict({**profile_to_dict(TOY), key: value})

    def test_k_range_of_multiples_of_m_refused(self):
        # every draw on it would abort: M divides its only K; a two-value
        # range always holds a K that M does not divide
        with pytest.raises(ValueError, match=r"^K range \[514, 514\] holds "
                                             "only multiples of M"):
            profile_from_dict({**profile_to_dict(TOY),
                               "K_min": 514, "K_max": 514})
        for K_min, K_max in ((513, 514), (514, 515), (515, 515)):
            assert profile_from_dict({**profile_to_dict(TOY), "K_min": K_min,
                                      "K_max": K_max}).K_max == K_max

    def test_smallest_bit_widths_accepted(self):
        narrow = profile_from_dict({**profile_to_dict(TOY),
                                    "u_bits": 1, "v_bits": 0})
        assert (narrow.u_bound, narrow.v_bound) == (2, 1)

    def test_integer_modulus_accepted(self):
        assert profile_from_dict({**profile_to_dict(TOY), "M": 257}) == TOY

    @pytest.mark.parametrize("M", [" 257 ", "2_57", "+257", "0257", "257\n",
                                   "\uff12\uff15\uff17"])  # fullwidth 257
    def test_modulus_string_only_as_profile_to_dict_writes_it(self, M):
        # int() reads each of these as 257, so each would load as toy's
        # modulus under a second spelling
        assert int(M) == 257
        with pytest.raises(ValueError, match="'M' is not a plain decimal"):
            profile_from_dict({**profile_to_dict(TOY), "M": M})

    def test_too_wide_modulus_refused_before_the_primality_test(
            self, monkeypatch):
        # a 4000-digit M fits a profile file, and one Miller-Rabin round
        # on it takes seconds: the width is checked first
        def unreachable(*args):
            raise AssertionError("primality test ran")
        monkeypatch.setattr(modmath, "is_probable_prime", unreachable)
        for M in (str(10 ** 3999 + 1), 1 << 256):
            with pytest.raises(ValueError, match="^modulus too wide for the "
                                                 "32-byte wire fields$"):
                profile_from_dict({**profile_to_dict(TOY), "M": M})
        monkeypatch.undo()
        widest = (1 << 256) - 189  # the largest 256-bit prime
        assert profile_from_dict({**profile_to_dict(TOY),
                                  "M": widest}).mod.M == widest

    def test_records_are_immutable(self, session_factory):
        sess = session_factory(TOY)
        ref = reference_view(sess)
        for record, field in ((TOY, "u_bits"), (sess, "base"), (ref, "p"),
                              (ref.numer, "q_i")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                setattr(record, "extra", None)

    def test_envelope_must_fit_the_wire(self):
        # u rides in 4 bytes, v in the 8-byte check encoding
        with pytest.raises(ValueError):
            Profile("x", Modulus(257), 2, 4, 2, 4, 33, 8)
        with pytest.raises(ValueError):
            Profile("x", Modulus(PRODUCTION_PRIME), 2, 4, 2, 4, 8, 65)
        # the limits themselves are allowed, as production shows
        Profile("x", Modulus(PRODUCTION_PRIME), 2, 4, 2, 4, 32, 64)
        assert PRODUCTION.u_bound == 1 << 32
        assert PRODUCTION.v_bound == protocol.CHECK_V_BOUND
        # v_bound is capped by M, so wide v_bits are fine on a small modulus
        assert Profile("x", Modulus(257), 2, 4, 2, 4, 8, 70).v_bound == 257
        # every grid index K*C must fit the 48-byte PRF index
        with pytest.raises(ValueError):
            Profile("x", Modulus(257), 2, 1 << 384, 2, 4, 8, 8)
        with pytest.raises(ValueError):
            Profile("x", Modulus(257), 2, (1 << 382) + 1, 2, 4, 8, 8)
        Profile("x", Modulus(257), 2, 1 << 382, 2, 4, 8, 8)

    def test_huge_bit_widths_checked_before_any_shift(self):
        # no 1 << width is built from a width in the file: u_bits is
        # compared as a number, and v_bits past the modulus's width leaves
        # v_bound at M
        start = time.perf_counter()
        with pytest.raises(ValueError, match="u_bits"):
            Profile("x", Modulus(257), 2, 4, 2, 4, 10 ** 11, 8)
        wide_v = Profile("x", Modulus(257), 2, 4, 2, 4, 8, 10 ** 11)
        assert wide_v.v_bound == 257
        with pytest.raises(ValueError, match="v_bits"):
            Profile("x", Modulus(PRODUCTION_PRIME), 2, 4, 2, 4, 8, 10 ** 11)
        assert time.perf_counter() - start < 0.5
        # every width at or below M's keeps its 2^v_bits cap
        for v_bits in range(12):
            assert TOY._replace(v_bits=v_bits).v_bound \
                == min(1 << v_bits, 257)

    def test_make_and_replace_validate(self):
        # the NamedTuple constructors that bypass __new__ run its checks too
        with pytest.raises(ValueError):
            TOY._replace(u_bits=40)
        mod = Modulus(257)
        with pytest.raises(ValueError):
            Message._make((FieldElem(1, mod), FieldElem(2, mod), 1,
                           bytes(31), bytes(32)))
        assert TOY._replace(u_bits=8).u_bound == 1 << 8
        assert Profile._make(TOY) == TOY
        msg = Message(FieldElem(1, mod), FieldElem(2, mod), 1, bytes(32),
                      bytes(32))
        for bad in ({"u": -1}, {"u": 1 << 32}, {"z": bytes(33)},
                    {"h_check": bytes(31)}):
            with pytest.raises(ValueError):
                msg._replace(**bad)
        assert msg._replace(u=(1 << 32) - 1).u == (1 << 32) - 1
        assert Message._make(msg) == msg
        gp = reference_view(derive_session(bytes(8), bytes(32), TOY)).numer
        with pytest.raises(NonInvertible):
            gp._replace(p=FieldElem(0, mod))
        with pytest.raises(NonInvertible):
            GenParams._make((FieldElem(257, mod),) + gp[1:])
        assert GenParams._make(gp) == gp
        assert gp._replace(q_i=FieldElem(0, mod)).q_i == 0

    def test_wide_modulus_rejected(self):
        for wide in ((1 << 260) + 45, (1 << 256) + 297):  # primes > 256 bits
            with pytest.raises(ValueError):
                Profile("x", Modulus(wide), 2, 4, 2, 4, 8, 8)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            Profile("x", Modulus(257), 1, 4, 2, 4, 8, 8)
        with pytest.raises(ValueError):
            Profile("x", Modulus(257), 2, 4, 8, 4, 8, 8)
        Profile("x", Modulus(257), 4, 4, 3, 3, 8, 8)  # one-point ranges


class TestDeriveSession:
    def test_deterministic(self):
        S, z = b"a shared secret!", b"\x05" * 32
        a = derive_session(S, z, TOY)
        b = derive_session(S, z, TOY)
        assert a == b
        ra, rb = reference_view(a), reference_view(b)
        assert ra.p == rb.p
        assert ra.t == rb.t
        assert ra.anchor_key == rb.anchor_key
        assert ra.numer.phi.C == rb.numer.phi.C
        assert (ra.numer.q_i, ra.numer.q_j) == (rb.numer.q_i, rb.numer.q_j)
        assert (ra.denom.q_i, ra.denom.q_j) == (rb.denom.q_i, rb.denom.q_j)

    def test_nonce_separates_sessions(self):
        S = b"a shared secret!"
        a = derive_session(S, b"\x00" * 32, TOY)
        b = derive_session(S, b"\x01" * 32, TOY)
        assert (a.base, a.K, a.n) != (b.base, b.K, b.n)

    def test_parameters_in_range(self, session_factory):
        for profile in (TOY, MINI):
            for _ in range(20):
                s = session_factory(profile)
                assert 2 <= s.base <= profile.mod.M - 1
                assert profile.K_min <= s.K <= profile.K_max
                assert profile.C_min <= s.C <= profile.C_max
                assert 1 <= s.n % s.K < s.K
                assert reference_view(s).t.img.value != 0

    def test_repr_hides_the_secret(self):
        S = b"SECRETSECRET"
        sess = derive_session(S, bytes(32), TOY)
        game = new_game(TOY, random.Random(1))
        for s in (sess, game.hidden.session):
            secrets = [repr(s.S), s.S.hex()]
            ref = reference_view(s)
            for key in (ref.phi.key, ref.psi.key, ref.anchor_key):
                secrets += [repr(key), key.hex()]
            for text in (repr(sess), str(sess), repr(game), str(game)):
                assert not any(secret in text for secret in secrets)
        assert repr(sess) == f"Session(z={'00' * 32}, profile=toy)"

    def test_secret_length_enforced(self):
        with pytest.raises(ValueError):
            derive_session(b"short", b"\x00" * 32, TOY)
        with pytest.raises(ValueError):
            derive_session(b"x" * 31, b"\x00" * 32, PRODUCTION)

    def test_nonce_length_exact(self):
        for bad in (b"", b"\x00" * 31, b"\x00" * 33):
            with pytest.raises(ValueError):
                derive_session(b"a shared secret!", bad, TOY)

    @PROFILES
    def test_fields_match_the_hashlib_oracle(self, profile):
        # raw fields and the typed reference view, value by value
        rng = random.Random(f"derive/{profile.name}")
        aborts = set()
        for _ in range(200):
            S, z = rng.randbytes(32), rng.randbytes(32)
            want = naive_session(S, z, profile)
            if isinstance(want, str):
                with pytest.raises(ProtocolAbort) as info:
                    derive_session(S, z, profile)
                assert type(info.value).__name__ == want
                aborts.add(want)
                continue
            sess = derive_session(S, z, profile)
            ref = reference_view(sess)
            K, C = want["K"], want["C"]
            assert {"p": ref.p.value, "K": ref.t.K, "C": ref.phi.C,
                    "i": ref.t.n % ref.t.K, "B": ref.t.n // ref.t.K,
                    "q": list(sess.q), "phi_key": ref.phi.key,
                    "psi_key": ref.psi.key,
                    "anchor_key": ref.anchor_key} == want
            gn, gd = ref.numer, ref.denom
            assert [gn.q_i.value, gn.q_j.value,
                    gd.q_i.value, gd.q_j.value] == want["q"]
            for gp in (gn, gd):
                assert gp.p == ref.p
                assert (gp.phi.key, gp.psi.key, gp.anchor_key) \
                    == (want["phi_key"], want["psi_key"], want["anchor_key"])
                assert (gp.phi.K, gp.phi.C, gp.psi.K, gp.psi.C) == (K, C, K, C)
        if profile is MINI:
            assert aborts == {"AbortZeroIndex", "AbortSingular"}

    @PROFILES
    def test_kernel_is_q_times_eval_at(self, profile):
        # the odd blocks flip the oscillator sign: both parities of B
        # must occur, or a wrong sign rule in the kernel would pass
        rng = random.Random(f"kernel/{profile.name}")
        parities = set()
        for _ in range(200):
            sess = fresh_session(profile, rng)
            ref = reference_view(sess)
            t = ref.t
            A1, A3 = protocol._kernel(index_value(ref.phi, sess.C * t.n),
                                      index_value(ref.psi, sess.C * t.n),
                                      sess.q)
            for A, gp in ((A1, ref.numer), (A3, ref.denom)):
                want = (gp.q_i * eval_at(gp.phi, t)
                        + gp.q_j * eval_at(gp.psi, t))
                assert A % profile.mod.M == want.value
            parities.add(t.n // t.K % 2)
        assert parities == {0, 1}

    def test_derive_abort_paths_reachable(self):
        # mini scale makes both derivation aborts likely enough to hunt
        rng = random.Random(99)
        seen = set()
        for _ in range(5000):
            try:
                derive_session(rng.randbytes(8), rng.randbytes(32), MINI)
            except ProtocolAbort as exc:
                seen.add(type(exc))
            if seen == {AbortZeroIndex, AbortSingular}:
                break
        assert seen == {AbortZeroIndex, AbortSingular}

    def test_alice_abort_paths_reachable(self, session_factory):
        # shifted points can go singular; the recovery denominator can
        # block; both are Alice-side aborts, redrawn by callers
        rng = random.Random(98)
        seen = set()
        for _ in range(400):
            sess = session_factory(MINI)
            try:
                alice_generate(sess, rng.randrange(1, MINI.u_bound),
                               rng.randrange(0, MINI.v_bound))
            except ProtocolAbort as exc:
                seen.add(type(exc))
            if {AbortSingular, AbortNonInvertible} <= seen:
                break
        assert {AbortSingular, AbortNonInvertible} <= seen


class TestCheckHash:
    def kwargs(self):
        return dict(S=b"a shared secret!", v=7,
                    s1=5, s3=9, u=3, z=b"\x00" * 32)

    def test_every_input_matters(self):
        base = compute_check(**self.kwargs())
        assert len(base) == 32
        for field, other in (("S", b"b shared secret!"), ("v", 8),
                             ("s1", 6), ("s3", 10),
                             ("u", 4), ("z", b"\x01" + b"\x00" * 31)):
            kw = self.kwargs()
            kw[field] = other
            assert compute_check(**kw) != base, field


class TestRoundTrip:
    def test_toy(self, session_factory):
        rng = random.Random(31)
        done = 0
        while done < 40:
            sess = session_factory(TOY)
            u = rng.randrange(1, TOY.u_bound)
            v = rng.randrange(0, TOY.v_bound)
            try:
                msg = alice_generate(sess, u, v)
            except ProtocolAbort:
                continue
            assert bob_verify(sess.S, msg, TOY) == v
            done += 1

    def test_production(self, session_factory):
        rng = random.Random(32)
        done = 0
        while done < 5:
            sess = session_factory(PRODUCTION)
            u = rng.randrange(1, PRODUCTION.u_bound)
            v = rng.randrange(0, PRODUCTION.v_bound)
            try:
                msg = alice_generate(sess, u, v)
            except ProtocolAbort:
                continue
            assert bob_verify(sess.S, msg, PRODUCTION) == v
            done += 1

    def test_bounds_on_u_and_v(self, session_factory):
        sess = session_factory(TOY)
        for u, v in ((0, 1), (TOY.u_bound, 1), (-1, 1),
                     (1, -1), (1, TOY.v_bound)):
            with pytest.raises(ValueError):
                alice_generate(sess, u, v)

    def test_message_carries_session_nonce(self, session_factory):
        sess = session_factory(TOY)
        msg = alice_generate(sess, 1, 0)
        assert msg.z == sess.z
        assert msg.u == 1


def valid_pair(profile, seed=7):
    """One non-aborting (session, message) pair for tamper tests."""
    rng = random.Random(seed)

    def attempt(_):
        sess = fresh_session(profile, rng)
        return sess, alice_generate(sess, 5, min(17, profile.v_bound - 1))
    return _draw(attempt)


class TestRejectionTaxonomy:
    def test_reject_hash(self):
        sess, msg = valid_pair(TOY)
        bad = Message(msg.s1, msg.s3, msg.u,
                      msg.z, bytes(32))
        with pytest.raises(RejectHash):
            bob_verify(sess.S, bad, TOY)

    def test_reject_denominator(self):
        sess, msg = valid_pair(TOY)
        # force s1*p^2u == s3, the blocked-recovery configuration
        forced = msg.s3 * mod_pow(reference_view(sess).p, 2 * msg.u) ** -1
        bad = Message(forced, msg.s3, msg.u, msg.z, msg.h_check)
        with pytest.raises(RejectDenominator):
            bob_verify(sess.S, bad, TOY)

    def test_reject_range_on_production(self):
        # an s1 nudge lands v* in the huge middle of Z_M: out of range
        # for the 64-bit check encoding
        sess, msg = valid_pair(PRODUCTION)
        bad = Message(msg.s1 + 1, msg.s3, msg.u, msg.z, msg.h_check)
        with pytest.raises((RejectRange, RejectDenominator)):
            bob_verify(sess.S, bad, PRODUCTION)

    def test_reject_range_does_the_digest_work(self, monkeypatch):
        # v* >= 2^64 cannot enter the check hash; the receiver still hashes
        # once, over the stand-in 0, so this path costs what a mismatch does
        sess, msg = valid_pair(PRODUCTION)
        bad = Message(msg.s1 + 1, msg.s3, msg.u, msg.z, msg.h_check)
        ref = reference_view(sess)
        v_star = recover_v(s_M(ref.numer, ref.t), bad.s1,
                           s_M(ref.denom, ref.t + 2 * msg.u), bad.s3,
                           ref.t.img, msg.u, ref.p)
        assert v_star.value >= protocol.CHECK_V_BOUND
        calls = []
        real = protocol.compute_check

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(protocol, "compute_check", counting)
        with pytest.raises(RejectRange):
            bob_verify(sess.S, bad, PRODUCTION)
        assert len(calls) == 1
        assert calls[0][1] == 0

    def test_reject_range_at_the_check_encoding_bound(self):
        # s1 and s3 built for v = 2^64, the first value the 8-byte check
        # encoding cannot hold: recovery yields exactly 2^64, which must be
        # a range rejection, not an OverflowError from the encoding
        sess = fresh_session(PRODUCTION, random.Random(5))
        u, v = 7, protocol.CHECK_V_BOUND
        ref = reference_view(sess)
        s1 = s_M(ref.numer, ref.t + (2 * v + 1))
        s3 = s_M(ref.denom, ref.t + (2 * u + 2 * v + 1))
        with pytest.raises(RejectRange, match="exceeds the check") as info:
            bob_verify(sess.S, Message(s1, s3, u, sess.z, bytes(32)),
                       PRODUCTION)
        assert str(v) not in str(info.value)  # the text keeps v hidden

    def test_reject_range_text_hides_the_recovered_value(self):
        # v*(s) is a Moebius map of the attacker's s3: three v* read from
        # rejection texts would solve it, and it gives the hidden v at the
        # honest s3. No text may carry v*.
        rng = random.Random(12)
        for _ in range(3):
            sess = fresh_session(PRODUCTION, rng)
            msg = alice_generate(sess, rng.randrange(1, PRODUCTION.u_bound),
                                 rng.randrange(PRODUCTION.v_bound))
            ref = reference_view(sess)
            s0 = s_M(ref.numer, ref.t)
            s2 = s_M(ref.denom, ref.t + 2 * msg.u)
            for _ in range(3):
                s3 = FieldElem(rng.randrange(PRODUCTION.mod.M),
                               PRODUCTION.mod)
                v_star = recover_v(s0, msg.s1, s2, s3, ref.t.img, msg.u,
                                   ref.p).value
                with pytest.raises(RejectRange) as info:
                    bob_verify(sess.S, msg._replace(s3=s3), PRODUCTION)
                assert str(v_star) not in str(info.value)

    @pytest.mark.parametrize("u", [0, TOY.u_bound, (1 << 32) - 1])
    def test_reject_u_outside_envelope(self, u):
        # a message the sender could never emit, with a consistent hash:
        # s1, s3 and h_check are built for this u exactly as Alice would
        rng = random.Random(11)
        v = 17
        while True:
            sess = fresh_session(TOY, rng)
            ref = reference_view(sess)
            try:
                s1 = s_M(ref.numer, ref.t + (2 * v + 1))
                s3 = s_M(ref.denom, ref.t + (2 * u + 2 * v + 1))
            except NonInvertible:
                continue
            if check_denominator(s1, s3, ref.p, u):
                break
        h = compute_check(sess.S, v, s1.value, s3.value, u, sess.z)
        with pytest.raises(RejectRange):
            bob_verify(sess.S, Message(s1, s3, u, sess.z, h), TOY)

    def test_reject_session_on_aborting_nonce(self):
        # find a nonce whose derivation aborts, then present it to Bob
        rng = random.Random(4)
        S = None
        while S is None:
            cand = rng.randbytes(8)
            z = rng.randbytes(32)
            try:
                derive_session(cand, z, MINI)
            except ProtocolAbort:
                S = cand
        msg = Message(FieldElem(1, MINI.mod), FieldElem(2, MINI.mod),
                      1, z, bytes(32))
        with pytest.raises(RejectSession):
            bob_verify(S, msg, MINI)

    def test_wrong_secret_rejected(self):
        sess, msg = valid_pair(TOY)
        with pytest.raises(VerificationError):
            bob_verify(b"b" * len(sess.S), msg, TOY)

    @pytest.mark.parametrize("field", ["s1", "s3"])
    def test_one_foreign_modulus_refused(self, field):
        sess, msg = valid_pair(PRODUCTION)
        foreign = msg._replace(**{field: FieldElem(1, TOY.mod)})
        with pytest.raises(ValueError, match="mixed moduli"):
            bob_verify(sess.S, foreign, PRODUCTION)


class TestWireFormat:
    def test_exact_length_and_layout(self):
        mod = Modulus(257)
        msg = Message(FieldElem(217, mod), FieldElem(23, mod), 5,
                      bytes(range(32)), bytes(reversed(range(32))))
        blob = serialize(msg)
        assert len(blob) == MESSAGE_LEN == 132
        want = ((217).to_bytes(32, "big") + (23).to_bytes(32, "big")
                + (5).to_bytes(4, "big") + bytes(range(32))
                + bytes(reversed(range(32))))
        assert blob == want

    def test_roundtrip(self, session_factory):
        rng = random.Random(44)
        for _ in range(25):
            sess = session_factory(TOY)
            try:
                msg = alice_generate(sess, rng.randrange(1, 100),
                                     rng.randrange(0, 100))
            except ProtocolAbort:
                continue
            assert deserialize(serialize(msg), TOY) == msg

    def test_bad_length(self):
        for n in (0, 131, 133, 264):
            with pytest.raises(BadLength):
                deserialize(b"\x00" * n, TOY)

    def test_field_overflow(self):
        M = TOY.mod.M.to_bytes(32, "big")
        tail = (1).to_bytes(4, "big") + bytes(64)
        # all ones, then s1 = M and s3 = M: the first value out of range
        for fields in (b"\xff" * 64, M + bytes(32), bytes(32) + M):
            with pytest.raises(FieldOverflow):
                deserialize(fields + tail, TOY)

    def test_cross_profile_overflow(self, session_factory):
        # production field values exceed the toy modulus
        sess = session_factory(PRODUCTION)
        msg = alice_generate(sess, 1, 0)
        with pytest.raises(FieldOverflow):
            deserialize(serialize(msg), TOY)

    @given(s1=st.integers(min_value=0, max_value=256),
           s3=st.integers(min_value=0, max_value=256),
           u=st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=60)
    def test_any_valid_fields_roundtrip(self, s1, s3, u):
        mod = Modulus(257)
        msg = Message(FieldElem(s1, mod), FieldElem(s3, mod), u,
                      b"\x09" * 32, b"\x0a" * 32)
        assert deserialize(serialize(msg), TOY) == msg

    def test_message_validation(self):
        mod = Modulus(257)
        ok = dict(s1=FieldElem(1, mod), s3=FieldElem(2, mod), u=1,
                  z=bytes(32), h_check=bytes(32))
        Message(**ok)
        Message(**dict(ok, z=bytearray(32), h_check=bytearray(32)))
        for field, bad in (("s1", 5), ("s3", 7), ("s1", None),
                           ("s3", b"7"), ("u", 1 << 32), ("u", -1), ("u", 3.0),
                           ("u", "1"), ("u", None),
                           ("z", bytes(31)), ("z", "z" * 32),
                           ("z", list(bytes(32))),
                           ("h_check", bytes(33)), ("h_check", "h" * 32),
                           ("h_check", memoryview(bytes(32)))):
            kw = dict(ok)
            kw[field] = bad
            with pytest.raises(ValueError):
                Message(**kw)


def wire_blobs(profile):
    """132-byte blobs: uniform bytes, or each field below or above its bound.

    Uniform bytes almost always overflow the field on small moduli and
    almost never on production, so the second form reaches both the
    wire checks and bob_verify's checks on every profile.
    """
    def field(width, bound):
        top = (1 << (8 * width)) - 1
        values = [st.integers(0, min(bound - 1, top))]
        if bound <= top:
            values.append(st.integers(bound, top))
        return st.one_of(values).map(lambda x: x.to_bytes(width, "big"))
    fields = st.tuples(field(32, profile.mod.M), field(32, profile.mod.M),
                       field(4, profile.u_bound),
                       st.binary(min_size=32, max_size=32),
                       st.binary(min_size=32, max_size=32))
    return st.one_of(st.binary(min_size=MESSAGE_LEN, max_size=MESSAGE_LEN),
                     fields.map(b"".join))


class TestReceiverOnAnyBlob:
    """Whatever 132 bytes arrive, the receiver raises only typed errors."""

    SECRET = b"a shared secret of 32 bytes, ok!"

    def receive(self, blob, profile):
        assert len(blob) == MESSAGE_LEN
        try:
            bob_verify(self.SECRET, deserialize(blob, profile), profile)
        except (BadLength, FieldOverflow, VerificationError):
            pass

    @given(blob=wire_blobs(TOY))
    @settings(max_examples=200)
    def test_toy(self, blob):
        self.receive(blob, TOY)

    @given(blob=wire_blobs(PRODUCTION))
    @settings(max_examples=50)
    def test_production(self, blob):
        self.receive(blob, PRODUCTION)


class TestDraw:
    """protocol._draw, the one redraw rule that send, the forgery games,
    the splice experiment and the fixture generator share."""

    def test_returns_the_first_success_with_its_index(self):
        calls = []

        def attempt(k):
            calls.append(k)
            if k < 3:
                raise AbortSingular(f"draw {k}")
            return f"made at {k}"
        assert protocol._draw(attempt) == "made at 3"
        assert calls == [0, 1, 2, 3]

    def test_gives_up_after_tries_with_the_last_abort(self):
        calls, raised = [], []

        def attempt(k):
            calls.append(k)
            raised.append((AbortZeroIndex if k % 2 else AbortSingular)(
                f"draw {k}"))
            raise raised[-1]
        with pytest.raises(ProtocolAbort) as info:
            protocol._draw(attempt, tries=7)
        assert calls == list(range(7))
        assert info.value is raised[-1]
        assert (type(info.value), str(info.value)) \
            == (AbortSingular, "draw 6")
        calls.clear()
        with pytest.raises(AbortZeroIndex,
                           match=f"^draw {NONCE_TRIES - 1}$"):
            protocol._draw(attempt)  # NONCE_TRIES draws by default
        assert calls == list(range(NONCE_TRIES))

    @pytest.mark.parametrize("error", [ValueError("bad u"),
                                       RejectHash("not an abort"),
                                       KeyboardInterrupt()])
    def test_other_exceptions_pass_at_once(self, error):
        calls = []

        def attempt(k):
            calls.append(k)
            raise error
        with pytest.raises(type(error)) as info:
            protocol._draw(attempt)
        assert info.value is error
        assert calls == [0]


def nonces(S, u, v, profile, usable, count):
    """The first `count` nonces 0, 1, 2, ... whose session for (S, u, v)
    aborts (usable False) or sends (usable True), with their outcomes."""
    found = []
    for k in range(10_000):
        z = k.to_bytes(32, "big")
        try:
            outcome = alice_generate(derive_session(S, z, profile), u, v)
        except ProtocolAbort as exc:
            outcome = exc
        if isinstance(outcome, Message) is usable:
            found.append((z, outcome))
            if len(found) == count:
                return found
    raise AssertionError("too few nonces of the asked kind")


def draws_of(monkeypatch, zs):
    """Patch os.urandom to return zs in turn; returns the list of draws
    made, and fails past the end instead of looping."""
    made = []

    def urandom(n):
        assert n == 32 and len(made) < len(zs), "drew past the script"
        made.append(zs[len(made)])
        return made[-1]
    monkeypatch.setattr(os, "urandom", urandom)
    return made


class TestSendReceive:
    S = b"a shared secret of 32 bytes, ok!"

    def test_takes_no_options(self):
        params = inspect.signature(send).parameters.values()
        assert [p.name for p in params] == ["S", "u", "v", "profile", "log"]
        assert all(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD
                   for p in params)

    def test_package_root_offers_no_caller_chosen_nonce(self):
        # derive_session and alice_generate let a caller pick z, and a
        # reused z discloses v; the package root offers send only
        for name in ("derive_session", "alice_generate"):
            assert not hasattr(fourpoint, name)
            assert hasattr(protocol, name)

    @PROFILES
    def test_round_trip(self, profile, tmp_path):
        log = NonceLog(tmp_path / "nonces")
        v = profile.v_bound - 1
        blob = send(self.S, 5, v, profile, log)
        assert len(blob) == MESSAGE_LEN
        assert receive(self.S, blob, profile) == v
        z = blob[68:100]
        entry = f"{sha3_256(self.S).hexdigest()[:32]}-{z.hex()}"
        assert [f.name for f in (tmp_path / "nonces").iterdir()] == [entry]
        assert blob == serialize(alice_generate(
            derive_session(self.S, z, profile), 5, v))

    def test_skips_a_nonce_already_in_the_log(self, tmp_path, monkeypatch):
        (taken, _), (fresh, msg) = nonces(self.S, 5, 17, TOY, True, 2)
        [(aborting, _)] = nonces(self.S, 5, 17, TOY, False, 1)
        log = NonceLog(tmp_path / "nonces")
        assert log.claim(self.S, taken)
        made = draws_of(monkeypatch, [taken, aborting, fresh])
        assert send(self.S, 5, 17, TOY, log) == serialize(msg)
        assert made == [taken, aborting, fresh]
        assert not log.claim(self.S, fresh)
        assert len(list((tmp_path / "nonces").iterdir())) == 2

    @pytest.mark.parametrize("u, v", [(0, 17), (TOY.u_bound, 17),
                                      (5, -1), (5, TOY.v_bound)])
    def test_bad_u_or_v_refused_before_a_nonce_is_drawn(self, tmp_path,
                                                        monkeypatch, u, v):
        [(z, _)] = nonces(self.S, 5, 17, TOY, True, 1)

        def urandom(n):
            raise AssertionError("send drew a nonce")
        monkeypatch.setattr(os, "urandom", urandom)
        with pytest.raises(ValueError, match="must be in") as sent:
            send(self.S, u, v, TOY, NonceLog(tmp_path / "nonces"))
        # alice_generate refuses the same (u, v) with the same text
        with pytest.raises(ValueError) as generated:
            alice_generate(derive_session(self.S, z, TOY), u, v)
        assert str(generated.value) == str(sent.value)

    @pytest.mark.parametrize("u, v", [(9, 5.0), (9, "9"), (9, None),
                                      (5.0, 9), ("9", 9), (None, 9)])
    def test_u_or_v_not_an_int_refused_before_a_nonce_is_drawn(
            self, tmp_path, monkeypatch, u, v):
        # 5.0 would pass the range checks and die in a draw's pow, "9"
        # and None in the comparison, each with a TypeError
        [(z, _)] = nonces(self.S, 9, 9, TOY, True, 1)
        sess = derive_session(self.S, z, TOY)

        def urandom(n):
            raise AssertionError("send drew a nonce")
        monkeypatch.setattr(os, "urandom", urandom)
        log = tmp_path / "nonces"
        for refused in (lambda: _offsets(TOY, u, v),
                        lambda: alice_generate(sess, u, v),
                        lambda: send(self.S, u, v, TOY, NonceLog(log))):
            with pytest.raises(ValueError, match="^u and v must be ints$"):
                refused()
        assert not log.exists() or not any(log.iterdir())

    @pytest.mark.parametrize("S, data, named", [
        (S.hex(), bytes(MESSAGE_LEN), "S"), (None, bytes(MESSAGE_LEN), "S"),
        (memoryview(S), bytes(MESSAGE_LEN), "S"), (S, None, "data"),
        (S, list(bytes(MESSAGE_LEN)), "data"),
        (S, bytes(MESSAGE_LEN).hex(), "data")],
        ids=["str-S", "None-S", "memoryview-S", "None-data", "list-data",
             "str-data"])
    def test_secret_or_data_of_another_type_refused_before_any_work(
            self, tmp_path, monkeypatch, S, data, named):
        # a str S died concatenating, None in len(), a memoryview S in
        # derive_session, and a list of 132 ints passed deserialize's
        # length check; each is refused by name before a draw or a hash
        def unreachable(*args):
            raise AssertionError("a nonce was drawn or a hash ran")
        monkeypatch.setattr(os, "urandom", unreachable)
        monkeypatch.setattr(protocol, "sha3_256", unreachable)
        log = tmp_path / "nonces"
        refused = [lambda: receive(S, data, TOY)]
        if named == "S":
            refused.append(lambda: send(S, 9, 5, TOY, NonceLog(log)))
        for attempt in refused:
            with pytest.raises(ValueError, match=f"^{named} must be bytes"):
                attempt()
        assert not log.exists()

    def test_bytearray_secret_and_memoryview_data_accepted(self, tmp_path):
        blob = send(bytearray(self.S), 9, 5, TOY, NonceLog(tmp_path / "n"))
        assert receive(self.S, memoryview(blob), TOY) == 5
        assert receive(bytearray(self.S), bytearray(blob), TOY) == 5

    def test_bool_u_and_v_are_ints(self):
        # as Message takes a bool u, the envelope takes True and False
        assert _offsets(TOY, True, False) == _offsets(TOY, 1, 0) == (1, 2, 3)

    @pytest.mark.parametrize("u, v", [(1, 0),
                                      (TOY.u_bound - 1, TOY.v_bound - 1)])
    def test_envelope_edges_are_sent(self, tmp_path, u, v):
        blob = send(self.S, u, v, TOY, NonceLog(tmp_path / "nonces"))
        assert receive(self.S, blob, TOY) == v

    def test_every_draw_aborting_raises_the_last_abort(self, tmp_path,
                                                       monkeypatch):
        found = nonces(self.S, 5, 17, TOY, False, 40)
        first = found[0][1]
        z_last, last = next((z, exc) for z, exc in found
                            if (type(exc), str(exc))
                            != (type(first), str(first)))
        zs = [found[0][0]] * (NONCE_TRIES - 1) + [z_last, found[0][0]]
        made = draws_of(monkeypatch, zs)
        with pytest.raises(ProtocolAbort) as info:
            send(self.S, 5, 17, TOY, NonceLog(tmp_path / "nonces"))
        assert (type(info.value), str(info.value)) == (type(last), str(last))
        assert len(made) == NONCE_TRIES
        assert not any((tmp_path / "nonces").glob("*"))

    def test_receive_derives_through_derive_session(self, tmp_path,
                                                    monkeypatch):
        # one derivation serves both parties: each receive past the u
        # check calls derive_session once, accepted or not, and a u
        # outside [1, u_bound) is rejected before it
        blob = send(self.S, 5, 17, TOY, NonceLog(tmp_path / "n"))
        calls = []
        real = protocol.derive_session

        def counting(*args):
            calls.append(args[1])
            return real(*args)
        monkeypatch.setattr(protocol, "derive_session", counting)
        z = blob[68:100]
        assert receive(self.S, blob, TOY) == 17
        assert calls == [z]
        with pytest.raises(RejectHash):
            receive(self.S, blob[:100] + bytes(32), TOY)
        assert calls == [z, z]
        for u in (0, TOY.u_bound):
            with pytest.raises(RejectRange):
                receive(self.S, blob[:64] + u.to_bytes(4, "big") + blob[68:],
                        TOY)
        assert calls == [z, z]

    @pytest.mark.parametrize("tamper, kind", [
        (lambda b: b[:-1], BadLength),
        (lambda b: b + b"\x00", BadLength),
        (lambda b: b"\xff" * 32 + b[32:], FieldOverflow),
        (lambda b: b[:100] + bytes(32), RejectHash),
        (lambda b: b[:64] + (1 << 16).to_bytes(4, "big") + b[68:],
         RejectRange),
    ])
    def test_receive_raises_as_deserialize_and_bob_verify(self, tmp_path,
                                                          tamper, kind):
        blob = tamper(send(self.S, 5, 17, TOY, NonceLog(tmp_path / "n")))
        with pytest.raises(kind) as got:
            receive(self.S, blob, TOY)
        with pytest.raises(kind) as want:
            bob_verify(self.S, deserialize(blob, TOY), TOY)
        assert (type(got.value), str(got.value)) \
            == (type(want.value), str(want.value))
