"""The symmetric protocol: session derivation, generation, verification.

Both parties share a secret S. For each message the sender picks a fresh
32-byte nonce z; every session parameter (base p, grid K, oscillator
period C, fractional index i, integer offset B, amplitudes q1..q4, both
oscillator keys, the exponent-mask key) is derived from (S, z) by SHA3-256
under fixed ASCII domain-separation tags, so the receiver reconstructs the
whole session from the nonce alone.

The sender transmits (s1, s3, u, z, h_check): 132 bytes on the wire. The
receiver recomputes s0 and s2, solves the invariant identity for v, and
accepts only if the check hash over (S, v, s1, s3, u, z) matches.

Both work fraction-free on raw ints. The points t + d, d = 0, 2v+1, 2u,
2u+2v+1, share t = n/K, n = B*K + i, so s_d = K*N_d / (n + d*K) with
N_d = X*p^d + (-1)^d * (q*Phi + q'*Psi), X = p^B * anchor(i, K). A
Session holds the raw (p, K, C, n, q); derive_session makes it for both
parties, and both read Phi and Psi at t through prf.session_values,
building no oscillator object.
The sender's one full-width pow is X*p^(2v+1) = exp_at(t + 2v+1), and
one inverse serves s1 and s3. X cancels out of the receiver's recovery,
so v costs one inverse and no full-width pow. The recovery formula lives
in _recovery_map and _recover, which the forgery games in harness run
too. genfunc.s_M and invariant.recover_v are the reference; they read a
Session through genfunc.reference_view, and this module loads them only
inside the three traced names at its end.

Recovery is arithmetic mod M, so v round-trips exactly only when v < M;
profiles cap v at min(2^v_bits, M) for that reason.
"""

import hmac
import os
from hashlib import sha3_256
from pathlib import Path
from typing import NamedTuple

from .errors import (AbortNonInvertible, AbortSingular, AbortZeroIndex,
                     BadLength, FieldOverflow, ProtocolAbort,
                     RejectDenominator, RejectHash, RejectRange, RejectSession)
from .modmath import MODULUS_BITS, PRODUCTION_PRIME, FieldElem, Modulus
from .prf import _INDEX_WIDTH, _TAG_PRF, anchor_value, session_values

TAG_P = b"IBC.p"
TAG_K = b"IBC.K"
TAG_C = b"IBC.C"
TAG_T = b"IBC.t"
TAG_B = b"IBC.B"
TAG_Q = b"IBC.q"
TAG_CHECK = b"IBC.check"

NONCE_LEN = 32
NONCE_TRIES = 64  # draws before _draw gives up on a profile
_FIELD_WIDTH = MODULUS_BITS // 8  # bytes per serialized field element
MESSAGE_LEN = 2 * _FIELD_WIDTH + 4 + NONCE_LEN + 32  # s1, s3, u, z, h_check
_CHECK_V_WIDTH = 8  # bytes for v inside the check hash
CHECK_V_BOUND = 1 << (8 * _CHECK_V_WIDTH)  # v at or above cannot be hashed
_U_BITS = 32  # u travels in a 4-byte wire field
_U_BOUND = 1 << _U_BITS
_FILE_CAP = 4096  # bytes; a longer secret or profile file is refused unread
_HASH_NAME = "sha3-256"  # the one hash; profile files name it
# Widest M whose powers stay with the built-in pow: at 64 bits and below
# it beats the ladder on a 33-bit exponent, from 65 bits on it loses
_NARROW_BITS = 64


# The eight fields a caller gives a Profile, with their types, in order
_GIVEN = {"name": str, "mod": Modulus, "K_min": int, "K_max": int,
          "C_min": int, "C_max": int, "u_bits": int, "v_bits": int}
_bind = NamedTuple("Profile", _GIVEN.items())  # a caller's arguments, by name
_FILE_KEYS = [key for key in _GIVEN if key != "mod"]  # file keys, and "M"


class Profile(NamedTuple("Profile", [
        *_GIVEN.items(), ("u_bound", int), ("v_bound", int),
        ("min_secret_len", int), ("ladder", bool)])):
    """Parameter envelope: modulus, grid/period ranges, u/v bounds.

    A caller gives the fields of _GIVEN; __new__ checks them and derives
    the last four once, so the hot path reads stored values:
    - u_bound = 2^u_bits, the exclusive cap on u;
    - v_bound = min(2^v_bits, M), the exclusive cap on v: both the
      profile width and exact recovery;
    - min_secret_len, 32 bytes at production scale (M of 64 bits or
      more), 8 at desk scale;
    - ladder, whether the protocol path takes its powers from _wide_pow:
      for an M wider than _NARROW_BITS; else from the built-in pow.
    No caller gives a derived value: __new__ and _replace refuse one with
    TypeError, as for any unknown argument, _make drops the last four of
    a whole Profile, and pickle and copy pass only the given fields, so
    each rebuild checks them and derives the four afresh.

    The envelope must fit the wire: M by Modulus's own check, u below 2^32
    and v below the 8-byte check encoding, so every in-envelope message
    can be sent. The grid must fit the PRF index, K_max * C_max <= 2^384,
    and hold a K not 0 mod M, which only a one-value range can fail.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*tuple(it)[:len(_GIVEN)]))
    __getnewargs__ = lambda self: self[:len(_GIVEN)]  # for pickle and copy

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(_GIVEN, self)), **changes})

    def __new__(cls, *args, **kwargs):
        given = _bind(*args, **kwargs)
        for (field, kind), value in zip(_GIVEN.items(), given):
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"profile field {field!r} has a "
                                 f"{type(value).__name__} value")
        M, u_bits, v_bits = given.mod.M, given.u_bits, given.v_bits
        if u_bits < 1:  # the sender draws u from [1, 2^u_bits)
            raise ValueError(f"u_bits must be >= 1, got {u_bits}")
        if v_bits < 0:
            raise ValueError(f"v_bits must be >= 0, got {v_bits}")
        if u_bits > _U_BITS:
            raise ValueError("u_bits too wide for the 4-byte wire field")
        if v_bits > 8 * _CHECK_V_WIDTH and M > CHECK_V_BOUND:
            raise ValueError("v_bits too wide for the 8-byte check encoding")
        if not (2 <= given.K_min <= given.K_max):
            raise ValueError("bad K range")
        if given.K_min == given.K_max and given.K_min % M == 0:
            raise ValueError(f"K range [{given.K_min}, {given.K_max}] holds "
                             f"only multiples of M, so every draw aborts")
        if not (2 <= given.C_min <= given.C_max):
            raise ValueError("bad C range")
        if given.K_max * given.C_max > 1 << 8 * _INDEX_WIDTH:
            raise ValueError("K_max * C_max too wide for the PRF index")
        width = M.bit_length()
        return tuple.__new__(cls, given + (
            1 << u_bits, min(1 << min(v_bits, width), M),
            32 if width >= 64 else 8,
            width > _NARROW_BITS))


def _wide_pow(b: int, e: int, M: int) -> int:
    """pow(b, e, M) for e >= 0 by montpow, on libcrypto's constant-time
    Montgomery ladder where the process has it; the first call loads
    montpow and ctypes."""
    # absolute: a relative import makes a Python-level call on each use
    from fourpoint.montpow import mont_pow
    return mont_pow(b, e, M)


TOY = Profile("toy", Modulus(257), 2, 1 << 16, 2, 1 << 10,
              u_bits=16, v_bits=16)
MINI = Profile("mini", Modulus(17), 2, 1 << 8, 2, 1 << 6,
               u_bits=8, v_bits=4)
PRODUCTION = Profile("production", Modulus(PRODUCTION_PRIME),
                     1 << 160, 1 << 256, 1 << 24, 1 << 32,
                     u_bits=32, v_bits=64)

_BUILTIN_PROFILES = {p.name: p for p in (TOY, MINI, PRODUCTION)}


def get_profile(name: str) -> Profile:
    try:
        return _BUILTIN_PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; "
                         f"choose from {sorted(_BUILTIN_PROFILES)}") from None


def profile_to_dict(profile: Profile) -> dict:
    d = {key: getattr(profile, key) for key in _FILE_KEYS}
    return {**d, "M": str(profile.mod.M), "hash": _HASH_NAME}


def profile_from_dict(d: dict) -> Profile:
    """Inverse of profile_to_dict; ValueError on malformed input. Beside
    Profile's checks, d must be a dict with every key and the one hash, "M"
    an int or the decimal string profile_to_dict writes."""
    if not isinstance(d, dict):
        raise ValueError("profile must be a JSON object")
    if d.get("hash", _HASH_NAME) != _HASH_NAME:  # no repr: it may recurse
        raise ValueError(f"profile hash not supported; only {_HASH_NAME}")
    for key in [*_FILE_KEYS, "M"]:
        if key not in d:
            raise ValueError(f"profile is missing key {key!r}")
    if not isinstance(d["M"], (str, int)) or isinstance(d["M"], bool):
        raise ValueError(f"profile key 'M' has a "
                         f"{type(d['M']).__name__} value")
    M = int(d["M"])  # int() also takes "+", spaces, "_" and non-ASCII digits
    if isinstance(d["M"], str) and str(M) != d["M"]:
        raise ValueError("profile key 'M' is not a plain decimal string")
    return Profile(mod=Modulus(M), **{key: d[key] for key in _FILE_KEYS})


def read_capped(path, what: str) -> bytes:
    """The bytes of a `what` file; ValueError, unread, for a longer file
    than _FILE_CAP."""
    with open(path, "rb") as fh:
        data = fh.read(_FILE_CAP + 1)  # one byte over tells a long file
    if len(data) > _FILE_CAP:
        raise ValueError(f"{what} file {path} is over {_FILE_CAP} bytes")
    return data


def load_profile(path) -> Profile:
    """profile_from_dict of a JSON file; ValueError also for a file over
    _FILE_CAP bytes, not ASCII or nested past the parser's depth."""
    import json  # here, so that runs on builtin profiles start without it
    text = read_capped(path, "profile").decode("ascii")
    try:
        return profile_from_dict(json.loads(text))
    except RecursionError:
        raise ValueError(f"profile file {path} is nested too deep") from None


def dump_profile(profile: Profile, path) -> None:
    import json
    with open(path, "w", encoding="ascii") as fh:
        json.dump(profile_to_dict(profile), fh, indent=2, sort_keys=True)
        fh.write("\n")


class Session(NamedTuple):
    """Everything derived from (S, z) under one profile, as the raw ints
    derive_session gives both parties. The reference layer types it by
    genfunc.reference_view; the protocol path and games read the ints."""

    S: bytes
    z: bytes
    profile: Profile
    base: int  # p in [2, M)
    K: int  # grid denominator
    C: int  # oscillator period
    n: int  # t = n/K = B + i/K: B = n // K, i = n % K
    q: tuple  # amplitudes (q1, q2, q3, q4) as ints in [0, M)

    def __repr__(self):  # public parts only: S and all derived from it stay out
        return f"Session(z={self.z.hex()}, profile={self.profile.name})"


def derive_session(S: bytes, z: bytes, profile: Profile,
                   offsets: tuple = ()) -> Session:
    """Deterministically expand (S, z) into a Session: the nine derivation
    hashes and their checks, the one derivation of both parties.

    The grid comes first, so that a draw that must abort stops early: K
    and i (2 hashes) decide AbortZeroIndex on i = 0, then n (3 hashes)
    AbortSingular when M divides K or the base point t = n/K is 0 mod M,
    or when a point t + d, d in offsets, is. Only then come p, C and
    q1..q4. Callers redraw the nonce and retry.
    """
    if len(S) < profile.min_secret_len:
        raise ValueError(f"secret must be >= {profile.min_secret_len} bytes")
    if len(z) != NONCE_LEN:
        raise ValueError(f"nonce must be exactly {NONCE_LEN} bytes")
    M, Sz = profile.mod.M, S + z
    as_int = int.from_bytes  # each value reads SHA3(tag || S || z) big-endian

    K = (as_int(sha3_256(TAG_K + Sz).digest(), "big")
         % (profile.K_max - profile.K_min + 1) + profile.K_min)
    i = as_int(sha3_256(TAG_T + Sz).digest(), "big") % K
    if i == 0:
        raise AbortZeroIndex("fractional index i = 0")
    n = as_int(sha3_256(TAG_B + Sz).digest(), "big") % M * K + i
    if K % M == 0 or n % M == 0:
        raise AbortSingular("grid denominator or base point t is 0 mod M")
    for d in offsets:
        if (n + d * K) % M == 0:
            raise AbortSingular("an evaluation point reduces to 0 mod M")

    p = as_int(sha3_256(TAG_P + Sz).digest(), "big") % (M - 2) + 2
    C = (as_int(sha3_256(TAG_C + Sz).digest(), "big")
         % (profile.C_max - profile.C_min + 1) + profile.C_min)
    qSz = TAG_Q + Sz
    q = (as_int(sha3_256(qSz + b"\x01").digest(), "big") % M,
         as_int(sha3_256(qSz + b"\x02").digest(), "big") % M,
         as_int(sha3_256(qSz + b"\x03").digest(), "big") % M,
         as_int(sha3_256(qSz + b"\x04").digest(), "big") % M)
    return tuple.__new__(Session, (S, z, profile, p, K, C, n, q))


def _offsets(profile: Profile, u: int, v: int) -> tuple:
    """(2v+1, 2u, 2u+2v+1), the offsets of s1, s2 and s3 from t; ValueError
    for a u or v that is not an int (a bool is one, as in Message), u
    outside [1, u_bound) or v outside [0, v_bound), the envelope."""
    if not (isinstance(u, int) and isinstance(v, int)):
        raise ValueError("u and v must be ints")
    if not 1 <= u < profile.u_bound:
        raise ValueError(f"u must be in [1, {profile.u_bound})")
    if not 0 <= v < profile.v_bound:
        raise ValueError(f"v must be in [0, {profile.v_bound})")
    return 2 * v + 1, 2 * u, 2 * u + 2 * v + 1


class Message(NamedTuple("Message", [
        ("s1", FieldElem), ("s3", FieldElem), ("u", int), ("z", bytes),
        ("h_check", bytes)])):
    """The transmitted tuple; serializes to exactly 132 bytes."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # validates _replace too

    def __new__(cls, s1: FieldElem, s3: FieldElem, u: int, z: bytes,
                h_check: bytes):
        if not (isinstance(s1, FieldElem) and isinstance(s3, FieldElem)):
            raise ValueError(f"s1 and s3 must be FieldElem, not "
                             f"{type(s1).__name__}/{type(s3).__name__}")
        if not isinstance(u, int):
            raise ValueError("u must be an int")
        if not 0 <= u < _U_BOUND:
            raise ValueError("u out of 32-bit range")
        if not isinstance(z, (bytes, bytearray)) or len(z) != NONCE_LEN:
            raise ValueError("nonce must be 32 bytes")
        if not isinstance(h_check, (bytes, bytearray)) or len(h_check) != 32:
            raise ValueError("check hash must be 32 bytes")
        return tuple.__new__(cls, (s1, s3, u, z, h_check))


def compute_check(S: bytes, v: int, s1: int, s3: int, u: int,
                  z: bytes) -> bytes:
    """Binding hash over (S, v, s1, s3, u, z) at fixed widths, on ints."""
    return sha3_256(b"".join((TAG_CHECK, S,
                              v.to_bytes(_CHECK_V_WIDTH, "big"),
                              s1.to_bytes(_FIELD_WIDTH, "big"),
                              s3.to_bytes(_FIELD_WIDTH, "big"),
                              u.to_bytes(4, "big"), z))).digest()


def _kernel(phi: int, psi: int, q: tuple) -> tuple[int, int]:
    """A1 = q1*Phi + q2*Psi and A3 = q3*Phi + q4*Psi from the raw
    oscillator values Phi, Psi at t, unreduced."""
    q1, q2, q3, q4 = q
    return q1 * phi + q2 * psi, q3 * phi + q4 * psi


def _recovery_map(A1: int, A3: int, p2u: int, e: int, n: int, K: int,
                  u: int) -> tuple[int, int, int]:
    """The receiver's recovery (K*a, K*c, e), K*a and K*c unreduced.

    Mod M these are invariant.recovery_map's (a, c, e) with a and c times
    K, so v(s3) = (K*a + K*c*s3) / (2K*(e - s3)). X cancels from
    -p^2u*N0 + N2, so only the kernel terms A1, A3, e = s1*p^2u and the
    grid enter.
    """
    return K * (A3 - A1 * p2u) - e * (n + K), n + (2 * u + 1) * K, e


def _recover(rmap: tuple[int, int, int], s3: int, K: int, M: int) -> int:
    """v(s3) from a _recovery_map with one inverse; the caller has
    checked that s3 is not the singular e."""
    Ka, Kc, e = rmap
    return (Ka + Kc * s3) % M * pow(2 * K * (e - s3), -1, M) % M


def _generate(sess: Session, u: int, v: int) -> tuple:
    """alice_generate's Message with the p^2u, A1 and A3 it computed, from
    which harness.new_game builds the receiver's recovery map. The
    caller has checked u and v by _offsets and the points t + d, d in its
    offsets, against 0 mod M (or derived sess with those offsets).
    """
    S, z, profile, p, K, C, n, q = sess
    mod, power = profile.mod, _wide_pow if profile.ladder else pow
    M = mod.M
    n1, n3 = n + (2 * v + 1) * K, n + (2 * u + 2 * v + 1) * K
    A1, A3 = _kernel(*session_values(S, z, K, C, n, M), q)
    p2u = power(p, 2 * u, M)
    B1, i = divmod(n1, K)  # X1 = p^t at t + 2v+1: p^B1 * anchor(i, K)
    X1 = power(p, B1, M) * anchor_value(sha3_256(_TAG_PRF + S + z).digest(),
                                        i, K, M) % M
    scale = K * pow(n1 * n3 % M, -1, M)  # K / (n1*n3): one inverse for both
    s1 = (X1 - A1) * n3 % M * scale % M
    s3 = (X1 * p2u - A3) * n1 % M * scale % M
    if (s1 * p2u - s3) % M == 0:
        raise AbortNonInvertible("recovery denominator not invertible")
    # u < u_bound <= 2^32, derive_session has checked z's length and the
    # check hash is 32 bytes: Message's checks hold
    msg = tuple.__new__(Message, (FieldElem(s1, mod), FieldElem(s3, mod), u,
                                  z, compute_check(S, v, s1, s3, u, z)))
    return msg, p2u, A1, A3


def alice_generate(sess: Session, u: int, v: int) -> Message:
    """Sender side: s1 and s3, denominator check, check hash. ValueError
    from _offsets for u or v outside the envelope; AbortSingular if
    t + 2v+1, t + 2u (the receiver's s2) or t + 2u+2v+1 is 0 mod M."""
    profile, K, n = sess.profile, sess.K, sess.n
    M = profile.mod.M
    for d in _offsets(profile, u, v):
        if (n + d * K) % M == 0:
            raise AbortSingular("an evaluation point reduces to 0 mod M")
    return _generate(sess, u, v)[0]


def bob_verify(S: bytes, msg: Message, profile: Profile) -> int:
    """Receiver side: check u, rederive, recover v, check hash and range.

    Raises a VerificationError subclass naming the first failed check. A
    u outside the profile's [1, u_bound), the sender's envelope, is
    rejected as out of range before any session work, and a nonce whose
    derivation aborts as RejectSession. Every other reject does the work
    of an accept first: the kernel, one inverse and the check hash. A
    singular t + 2u (RejectSession) or s1*p^2u = s3 (RejectDenominator)
    recovers at a stand-in s3, and these and a recovered value too large
    for the 8-byte check encoding (RejectRange) hash a stand-in v of 0.
    A reject's text is fixed up to the public u, u_bound and v_bound: it
    holds no value derived from S, the recovered value included.
    """
    if not 1 <= msg.u < profile.u_bound:
        raise RejectRange(f"u = {msg.u} outside [1, {profile.u_bound})")
    try:
        _, _, _, p, K, C, n, q = derive_session(S, msg.z, profile)
    except ProtocolAbort:  # its text would tell which secret check failed
        raise RejectSession("session recomputation aborted") from None
    u, M = msg.u, profile.mod.M
    if msg.s1.mod.M != M or msg.s3.mod.M != M:
        raise ValueError("mixed moduli")
    power = _wide_pow if profile.ladder else pow
    p2u, s1, s3 = power(p, 2 * u, M), msg.s1.value, msg.s3.value
    e = s1 * p2u % M
    A1, A3 = _kernel(*session_values(S, msg.z, K, C, n, M), q)
    if (n + 2 * u * K) % M == 0:
        reject = RejectSession("evaluation point t + 2u reduces to 0 mod M")
    elif e == s3:
        reject = RejectDenominator("denominator check failed")
    else:
        reject = None
    # a reject found here still recovers, at the stand-in s3 = e - 1
    v = _recover(_recovery_map(A1, A3, p2u, e, n, K, u),
                 s3 if reject is None else e - 1, K, M)
    encodable = reject is None and v < CHECK_V_BOUND
    expected = compute_check(S, v if encodable else 0, s1, s3, u, msg.z)
    matches = hmac.compare_digest(expected, msg.h_check)
    if reject is not None:
        raise reject
    if not encodable:
        raise RejectRange("recovered value exceeds the check encoding")
    if not matches:
        raise RejectHash("check hash mismatch")
    if v >= profile.v_bound:
        raise RejectRange(f"recovered value outside [0, {profile.v_bound})")
    return v


def serialize(msg: Message) -> bytes:
    """s1 (32B BE) || s3 (32B BE) || u (4B BE) || z (32B) || h_check (32B)."""
    return (msg.s1.value.to_bytes(_FIELD_WIDTH, "big")
            + msg.s3.value.to_bytes(_FIELD_WIDTH, "big")
            + msg.u.to_bytes(4, "big")
            + msg.z + msg.h_check)


def deserialize(data: bytes, profile: Profile) -> Message:
    """Inverse of serialize; strict length and field-range checks."""
    if len(data) != MESSAGE_LEN:
        raise BadLength(f"message must be {MESSAGE_LEN} bytes, got {len(data)}")
    M, w, z_at = profile.mod.M, _FIELD_WIDTH, 2 * _FIELD_WIDTH + 4
    s1v = int.from_bytes(data[:w], "big")
    s3v = int.from_bytes(data[w:2 * w], "big")
    if s1v >= M or s3v >= M:
        raise FieldOverflow("field value >= M")
    # the fixed-width slices already meet Message's checks: u < 2^32 and
    # 32-byte z and h_check
    return tuple.__new__(Message, (
        FieldElem(s1v, profile.mod), FieldElem(s3v, profile.mod),
        int.from_bytes(data[2 * w:z_at], "big"),
        data[z_at:z_at + NONCE_LEN], data[z_at + NONCE_LEN:]))


class NonceLog:
    """Owner-only directory (0o700) of empty files (0o600), one per
    (secret fingerprint, nonce) pair."""

    def __init__(self, path):
        self.path = Path(path)

    def claim(self, S: bytes, z: bytes) -> bool:
        """Record (S, z) unless already present; False if it was.

        O_CREAT|O_EXCL tests for the entry and creates it in one atomic
        step, so two senders cannot both claim the same nonce. OSError,
        before any entry is made, for a directory that grants group or
        other access, since each entry name holds 128 bits of sha3(S).
        """
        self.path.mkdir(mode=0o700, parents=True, exist_ok=True)
        mode = self.path.stat().st_mode & 0o777
        if mode & 0o077:
            raise OSError(f"nonce log {self.path} has mode {mode:#o}, open "
                          f"to group or others; chmod 700 it")
        path = self.path / f"{sha3_256(S).hexdigest()[:32]}-{z.hex()}"
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600)
        except FileExistsError:
            return False
        os.close(fd)
        return True


def _draw(attempt, tries: int = NONCE_TRIES):
    """The one redraw rule: attempt(k) for the first k in range(tries)
    whose draw raises no ProtocolAbort; after tries draws the last
    ProtocolAbort is raised. Other exceptions pass at once."""
    for k in range(tries):
        try:
            return attempt(k)
        except ProtocolAbort as exc:
            abort = exc
    raise abort


def _check_secret(S) -> None:
    """ValueError for an S that derive_session cannot read as a secret."""
    if not isinstance(S, (bytes, bytearray)):
        raise ValueError(f"S must be bytes or bytearray, "
                         f"not {type(S).__name__}")


def send(S: bytes, u: int, v: int, profile: Profile, log: NonceLog) -> bytes:
    """The 132-byte message carrying v under a fresh nonce from os.urandom,
    drawn by _draw; a nonce is claimed only once its message exists, and
    one the log already holds counts as an aborted draw. _offsets checks
    u and v once, and _check_secret S, before any nonce is drawn; each
    draw derives with its three offsets, so a singular point aborts
    inside derive_session."""
    offsets = _offsets(profile, u, v)
    _check_secret(S)

    def attempt(_):
        z = os.urandom(NONCE_LEN)
        msg = _generate(derive_session(S, z, profile, offsets), u, v)[0]
        if not log.claim(S, z):
            raise ProtocolAbort("no usable nonce")
        return serialize(msg)
    return _draw(attempt)


def receive(S: bytes, data: bytes, profile: Profile) -> int:
    """v from a 132-byte message; raises as deserialize and bob_verify do,
    after ValueError for an S or data of a type neither can read."""
    _check_secret(S)
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ValueError(f"data must be bytes, bytearray or memoryview, "
                         f"not {type(data).__name__}")
    return bob_verify(S, deserialize(data, profile), profile)


# The reference functions under the names perfbench/spans.py traces here,
# as entries of this namespace; each loads its layer only when called.
def s_M(gp, t):
    from .genfunc import s_M
    return s_M(gp, t)


def check_denominator(s1, s3, p, u):
    from .invariant import check_denominator
    return check_denominator(s1, s3, p, u)


def recover_v(s0, s1, s2, s3, t_img, u, p):
    from .invariant import recover_v
    return recover_v(s0, s1, s2, s3, t_img, u, p)
