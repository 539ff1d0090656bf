"""Command-line front end: send/recv message files, self tests, attack
simulations, and regression fixture generation.

Exit codes: 0 success; 1 rejected verification or failed suite; 2 abort,
range, or malformed-input conditions; 3 nonce reuse.
"""

import argparse
import os
import random
import sys
from hashlib import sha3_256
from pathlib import Path

from .errors import (BadLength, FieldOverflow, FourPointError,
                     ProtocolAbort, SingularDenominator, VerificationError)
from .invariant import InvariantTuple, eval_invariant, expected_constant
from .modmath import xgcd
from .oscillator import eval_at
from .protocol import (MESSAGE_LEN, Profile, alice_generate, bob_verify,
                       derive_session, deserialize, get_profile,
                       load_profile, serialize)

try:
    import fcntl
except ImportError:  # non-POSIX: proceed without advisory locking
    fcntl = None

_AUTO_NONCE_TRIES = 64


def _resolve_profile(arg: str) -> Profile:
    if arg.endswith(".json") or os.path.sep in arg:
        return load_profile(arg)
    return get_profile(arg)


def _fingerprint(S: bytes) -> str:
    return sha3_256(S).hexdigest()[:32]


class NonceLog:
    """Line-oriented hex file of (secret fingerprint, nonce) pairs."""

    def __init__(self, path):
        self.path = Path(path)

    def claim(self, S: bytes, z: bytes) -> bool:
        """Record (S, z) unless already present; False if it was.

        The scan and the append happen under one lock, so two senders
        cannot both claim the same nonce. Closing the file flushes the
        entry and then drops the lock; an explicit unlock before the
        close would let a rival scan before the entry reached the file.
        """
        entry = f"{_fingerprint(S)} {z.hex()}"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+", encoding="ascii") as fh:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            fh.seek(0)
            if any(line.strip() == entry for line in fh):
                return False
            fh.write(entry + "\n")
            return True


def cmd_send(args) -> int:
    S = Path(args.secret_file).read_bytes()
    profile = _resolve_profile(args.profile)
    log = NonceLog(args.nonce_log)

    if args.z is not None:
        if not args.allow_explicit_nonce:
            print("--z requires --allow-explicit-nonce", file=sys.stderr)
            return 2
        try:
            z = bytes.fromhex(args.z)
        except ValueError:
            print("--z must be hex", file=sys.stderr)
            return 2
        nonces = [z]
    else:
        nonces = (os.urandom(32) for _ in range(_AUTO_NONCE_TRIES))

    last_error = "no usable nonce"
    for z in nonces:
        try:
            msg = alice_generate(derive_session(S, z, profile), args.u, args.v)
        except ProtocolAbort as exc:
            last_error = f"{type(exc).__name__}: {exc}"
            continue
        if not log.claim(S, z):
            if args.z is not None:
                print("nonce already used for this secret", file=sys.stderr)
                return 3
            continue
        Path(args.out).write_bytes(serialize(msg))
        print(f"wrote {MESSAGE_LEN}-byte message to {args.out}")
        return 0
    print(f"send failed: {last_error}", file=sys.stderr)
    return 2


def cmd_recv(args) -> int:
    data = Path(args.infile).read_bytes()
    profile = _resolve_profile(args.profile)
    S = Path(args.secret_file).read_bytes()
    try:
        msg = deserialize(data, profile)
    except (BadLength, FieldOverflow) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    try:
        v = bob_verify(S, msg, profile)
    except VerificationError:
        # one word for every reason, so the output is no oracle
        print("rejected")
        return 1
    print(v)
    return 0


def _selftest_suites(profile: Profile, rng: random.Random):
    """Yield (label, callable) pairs, each returning a detail string; one
    list of 200 games (10 at production scale) feeds every suite."""
    from .harness import new_game  # send and recv start without the harness
    mod = profile.mod
    games = [new_game(profile, rng)
             for _ in range(10 if mod.M.bit_length() > 64 else 200)]

    def suite_invariant():
        exact = singular = 0
        for game in games:
            hid, msg = game.hidden, game.transcript
            tu = InvariantTuple(hid.s0, msg.s1, hid.s2, msg.s3,
                                hid.session.t, msg.u, hid.v)
            try:
                got = eval_invariant(tu, mod)
            except SingularDenominator:
                singular += 1
                continue
            assert got == expected_constant(hid.session.p, msg.u, mod)
            exact += 1
        assert exact, "no session had an invertible invariant denominator"
        return f"{exact} sessions exact, {singular} singular skipped"

    def suite_roundtrip():
        for game in games:
            assert bob_verify(game.hidden.session.S, game.transcript,
                              profile) == game.hidden.v
        return f"{len(games)} round trips"

    def suite_serialize():
        for game in games:
            blob = serialize(game.transcript)
            assert len(blob) == MESSAGE_LEN
            assert deserialize(blob, profile) == game.transcript
        return f"{len(games)} blobs, length and round trip"

    def suite_antiperiodic():
        for game in games:
            sess = game.hidden.session
            for osc in (sess.gen_numer.phi, sess.gen_numer.psi):
                assert eval_at(osc, sess.t + 1) == -eval_at(osc, sess.t)
        return f"{2 * len(games)} session oscillators under t -> t+1"

    def suite_tamper():
        for game in games:
            blob = serialize(game.transcript)
            bit = rng.randrange(len(blob) * 8)
            mutated = bytearray(blob)
            mutated[bit // 8] ^= 1 << (bit % 8)
            try:
                forged = deserialize(bytes(mutated), profile)
                bob_verify(game.hidden.session.S, forged, profile)
                raise AssertionError("tampered message accepted")
            except (BadLength, FieldOverflow, VerificationError):
                pass
        return f"{len(games)} random bit flips rejected"

    yield "invariant exactness", suite_invariant
    yield "protocol round trip", suite_roundtrip
    yield "serialization", suite_serialize
    yield "oscillator antiperiodicity", suite_antiperiodic
    yield "tamper rejection", suite_tamper


def cmd_selftest(args) -> int:
    profile = _resolve_profile(args.profile)
    rng = random.Random(args.seed)
    fails = 0
    for label, suite in _selftest_suites(profile, rng):
        try:
            detail = suite()
            print(f"PASS  {label:32} {detail}")
        except AssertionError as exc:
            fails += 1
            print(f"FAIL  {label:32} {exc}")
        except FourPointError as exc:
            # a library error escaping a suite fails that suite only
            fails += 1
            print(f"FAIL  {label:32} {type(exc).__name__}: {exc}")
    print(f"{'FAIL' if fails else 'PASS'}: selftest on profile "
          f"{profile.name}, {fails} failing suite(s)")
    return 1 if fails else 0


def cmd_attack(args) -> int:
    if args.adversary != "random":
        print(f"unknown adversary {args.adversary!r}", file=sys.stderr)
        return 2
    from .harness import emit_csv, run_random_adversary
    profile = _resolve_profile(args.profile)
    report = run_random_adversary(profile, args.trials, seed=args.seed)
    sys.stdout.write(emit_csv([report]))
    return 0


# --- fixture generation -------------------------------------------------

_FIXTURE_US = (5, 1, 2, 9, 3, 30, 11, 7)
_FIXTURE_VS = (17, 0, 1, 42, 7, 100, 250, 31)


def _fixture_vectors() -> str:
    profile = get_profile("toy")
    lines = ["# fourpoint regression vectors",
             "# profile S_hex z_hex u v message_hex"]
    for k in range(8):
        u, v = _FIXTURE_US[k], _FIXTURE_VS[k]
        attempt = 0
        while True:
            S = sha3_256(b"fixture.S" + bytes([k, attempt])).digest()
            z = sha3_256(b"fixture.z" + bytes([k, attempt])).digest()
            try:
                msg = alice_generate(derive_session(S, z, profile), u, v)
                break
            except ProtocolAbort:
                attempt += 1
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


def _fixture_discrepancies() -> str:
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


def cmd_fixtures(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "vectors.txt").write_text(_fixture_vectors(), encoding="ascii")
    (outdir / "discrepancies.txt").write_text(_fixture_discrepancies(),
                                              encoding="ascii")
    print(f"wrote {outdir / 'vectors.txt'} and {outdir / 'discrepancies.txt'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fourpoint",
        description="invariant-based symmetric authentication")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("send", help="generate and write a 132-byte message")
    p.add_argument("--secret-file", required=True)
    p.add_argument("--profile", default="toy")
    p.add_argument("--v", type=int, required=True, help="secret payload")
    p.add_argument("--u", type=int, default=1, help="public spacing")
    p.add_argument("--z", help="explicit nonce (hex); fixtures only")
    p.add_argument("--allow-explicit-nonce", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--nonce-log", default="fourpoint-nonces.log")
    p.set_defaults(func=cmd_send)

    p = sub.add_parser("recv", help="verify a message and print v")
    p.add_argument("--secret-file", required=True)
    p.add_argument("--profile", default="toy")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_recv)

    p = sub.add_parser("selftest", help="run the property suites")
    p.add_argument("--profile", default="toy")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("attack", help="run a security game and print CSV")
    p.add_argument("--adversary", default="random")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--profile", default="toy")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("fixtures", help="write regression fixture files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fixtures)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # unreadable files, malformed profile JSON, short secrets, and
        # out-of-range arguments
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
