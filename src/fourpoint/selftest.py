"""The code behind `fourpoint selftest` and `fourpoint fixtures`: the
property suites over one list of forgery-game instances, and the
regression vectors and dual-oracle ledger under tests/fixtures/.

`send` and `recv` never run this code, so the CLI imports it only inside
those two commands. The suites raise AssertionError themselves rather
than use `assert`, so that they still check under `python -O`.
"""

import random
from hashlib import sha3_256

from .errors import (BadLength, FieldOverflow, SingularDenominator,
                     VerificationError)
from .genfunc import reference_view
from .harness import new_game
from .invariant import InvariantTuple, eval_invariant, expected_constant
from .modmath import xgcd
from .oscillator import eval_at
from .protocol import (MESSAGE_LEN, Profile, _draw, alice_generate,
                       bob_verify, derive_session, deserialize, get_profile,
                       receive, serialize)


def selftest_suites(profile: Profile, rng: random.Random):
    """Yield (label, callable) pairs, each returning a detail string; one
    list of 200 games (10 at production scale) feeds every suite."""
    games = [new_game(profile, rng)
             for _ in range(10 if profile.mod.M.bit_length() > 64 else 200)]

    def suite_invariant():
        exact = singular = 0
        for game in games:
            hid, msg = game.hidden, game.transcript
            ref = reference_view(hid.session)
            s0, s2 = game.s0_s2(ref)
            tu = InvariantTuple(s0, msg.s1, s2, msg.s3, ref.t, msg.u, hid.v)
            try:
                got = eval_invariant(tu)
            except SingularDenominator:
                singular += 1
                continue
            if got != expected_constant(ref.p, msg.u):
                raise AssertionError
            exact += 1
        if not exact:
            raise AssertionError("no session had an invertible invariant "
                                 "denominator")
        return f"{exact} sessions exact, {singular} singular skipped"

    def suite_roundtrip():
        for game in games:
            if bob_verify(game.hidden.session.S, game.transcript,
                          profile) != game.hidden.v:
                raise AssertionError
        return f"{len(games)} round trips"

    def suite_serialize():
        for game in games:
            blob = serialize(game.transcript)
            if (len(blob) != MESSAGE_LEN
                    or deserialize(blob, profile) != game.transcript):
                raise AssertionError
        return f"{len(games)} blobs, length and round trip"

    def suite_antiperiodic():
        for game in games:
            ref = reference_view(game.hidden.session)
            for osc in (ref.phi, ref.psi):
                if eval_at(osc, ref.t + 1) != -eval_at(osc, ref.t):
                    raise AssertionError
        return f"{2 * len(games)} session oscillators under t -> t+1"

    def suite_tamper():
        for game in games:
            blob = serialize(game.transcript)
            bit = rng.randrange(len(blob) * 8)
            mutated = bytearray(blob)
            mutated[bit // 8] ^= 1 << (bit % 8)
            try:
                receive(game.hidden.session.S, bytes(mutated), profile)
                raise AssertionError("tampered message accepted")
            except (BadLength, FieldOverflow, VerificationError):
                pass
        return f"{len(games)} random bit flips rejected"

    yield "invariant exactness", suite_invariant
    yield "protocol round trip", suite_roundtrip
    yield "serialization", suite_serialize
    yield "oscillator antiperiodicity", suite_antiperiodic
    yield "tamper rejection", suite_tamper


_FIXTURE_US = (5, 1, 2, 9, 3, 30, 11, 7)
_FIXTURE_VS = (17, 0, 1, 42, 7, 100, 250, 31)


def fixture_vectors() -> str:
    profile = get_profile("toy")
    lines = ["# fourpoint regression vectors",
             "# profile S_hex z_hex u v message_hex"]
    for k in range(8):
        u, v = _FIXTURE_US[k], _FIXTURE_VS[k]

        def attempt(n):
            S = sha3_256(b"fixture.S" + bytes([k, n])).digest()
            z = sha3_256(b"fixture.z" + bytes([k, n])).digest()
            return S, z, alice_generate(derive_session(S, z, profile), u, v)
        S, z, msg = _draw(attempt)
        lines.append(f"toy {S.hex()} {z.hex()} {u} {v} {serialize(msg).hex()}")
    return "\n".join(lines) + "\n"


def _sweep_inv(a: int, m: int) -> int:
    for x in range(m):
        if a * x % m == 1:
            return x
    raise ValueError("not invertible")


def _naive_pow(b: int, e: int, m: int) -> int:
    acc = 1
    for _ in range(e):
        acc = acc * b % m
    return acc


def _xgcd_inv(a: int, m: int) -> int:
    g, x, _ = xgcd(a % m, m)
    if g != 1:
        raise ValueError("not invertible")
    return x % m


def fixture_discrepancies() -> str:
    """Dual-oracle recomputation of the contested worked-example values.

    Every number below is computed here, at generation time, by two
    independent methods. 'quoted' is the value stated in the reference
    worked example; where it disagrees with both oracles, the oracles'
    value is the one pinned throughout the test suite.
    """
    M = 257
    out = ["# dual-oracle recomputation ledger (generated; do not edit)",
           "# quantity | quoted | oracle A | oracle B | oracles agree"
           " | quoted holds", ""]

    def entry(label, quoted, a_name, a_val, b_name, b_val, note=""):
        agree = a_val == b_val
        out.append(f"[{label}]")
        out.append(f"  quoted          = {'(none)' if quoted is None else quoted}")
        out.append(f"  {a_name:15} = {a_val}")
        out.append(f"  {b_name:15} = {b_val}")
        out.append(f"  oracles agree   = {agree}")
        if quoted is not None:
            out.append(f"  quoted holds    = {quoted == a_val and agree}")
        if note:
            out.append(f"  note: {note}")
        out.append(f"  pinned          = {a_val}")
        out.append("")
        return a_val

    entry("inverse of 143 mod 257", 36,
          "extended euclid", _xgcd_inv(143, M),
          "exhaustive sweep", _sweep_inv(143, M),
          note=f"143*36 mod 257 = {143 * 36 % M}")
    entry("3^64 mod 257", 1,
          "square multiply", pow(3, 64, M),
          "naive product", _naive_pow(3, 64, M))
    p35 = entry("3^35 mod 257", 183,
                "square multiply", pow(3, 35, M),
                "naive product", _naive_pow(3, 35, M))
    entry("masked exponent 3^35 * 113 mod 257", 81,
          "from oracle 3^35", p35 * 113 % M,
          "naive assembly", _naive_pow(3, 35, M) * 113 % M,
          note=f"with the quoted 183 it would be {183 * 113 % M}")
    inv100 = entry("inverse of 100 mod 257 (image of 143/4)", None,
                   "extended euclid", _xgcd_inv(100, M),
                   "exhaustive sweep", _sweep_inv(100, M),
                   note="no quoted value; the quoted chain used 36 above")
    forced_num = (81 + 12 * (-2) + 35 * 4) % M
    entry("s1 at t=143/4, forced exp=81, q=(12,35), osc=(-2,4)", 53,
          "assembly xgcd", forced_num * inv100 % M,
          "assembly sweep", forced_num * _sweep_inv(100, M) % M,
          note=f"numerator 81 - 24 + 140 = {forced_num}; with the oracle "
               f"exponent {p35 * 113 % M} the value is "
               f"{(p35 * 113 % M + 12 * (-2) + 35 * 4) * inv100 % M}")
    return "\n".join(out)
