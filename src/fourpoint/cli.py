"""Command-line front end: send, recv, selftest, attack and fixtures.

`send` and `recv` read their files and call the library's `send` and
`receive`; the nonce rule and its log live in `fourpoint.protocol`.
Commands raise typed errors; only `main` maps them to output and exit
codes: 0 success; 1 VerificationError (`rejected` on stdout) or a failing
selftest suite; 2 BadLength or FieldOverflow (`malformed input: ...`),
ProtocolAbort (`<command> failed: <Class>: ...`), OSError or ValueError
(`<command>: ...`). `send` takes no nonce: it draws each from os.urandom.
Code that needs a fixed nonce calls derive_session(S, z, profile).
"""

import argparse
import os
import sys
from pathlib import Path

from .errors import (BadLength, FieldOverflow, FourPointError,
                     ProtocolAbort, VerificationError)
from .protocol import (MESSAGE_LEN, NonceLog, Profile, get_profile,
                       load_profile, read_capped, receive, send)


def _resolve_profile(arg: str) -> Profile:
    if arg.endswith(".json") or os.path.sep in arg:
        return load_profile(arg)
    return get_profile(arg)


def cmd_send(args) -> int:
    S = read_capped(args.secret_file, "secret")
    profile = _resolve_profile(args.profile)
    blob = send(S, args.u, args.v, profile, NonceLog(args.nonce_log))
    Path(args.out).write_bytes(blob)
    print(f"wrote {MESSAGE_LEN}-byte message to {args.out}")
    return 0


def cmd_recv(args) -> int:
    with open(args.infile, "rb") as fh:
        data = fh.read(MESSAGE_LEN + 1)  # one byte over tells a long file
    profile = _resolve_profile(args.profile)
    S = read_capped(args.secret_file, "secret")
    print(receive(S, data, profile))
    return 0


def cmd_selftest(args) -> int:
    import random  # send and recv start without these two
    from .selftest import selftest_suites
    profile = _resolve_profile(args.profile)
    fails = 0
    for label, suite in selftest_suites(profile, random.Random(args.seed)):
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
        raise ValueError(f"unknown adversary {args.adversary!r}")
    from .harness import emit_csv, run_random_adversary
    profile = _resolve_profile(args.profile)
    report = run_random_adversary(profile, args.trials, seed=args.seed)
    sys.stdout.write(emit_csv([report]))
    return 0


def cmd_fixtures(args) -> int:
    from .selftest import fixture_discrepancies, fixture_vectors
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "vectors.txt").write_text(fixture_vectors(), encoding="ascii")
    (outdir / "discrepancies.txt").write_text(fixture_discrepancies(),
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
    p.add_argument("--out", required=True)
    p.add_argument("--nonce-log", default="fourpoint-nonces.log",
                   help="directory of used nonces, one empty file each")
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
    except VerificationError:
        print("rejected")  # one word for every reason, so no oracle
        return 1
    except (BadLength, FieldOverflow) as exc:
        why = f"malformed input: {exc}"
    except ProtocolAbort as exc:
        why = f"{args.command} failed: {type(exc).__name__}: {exc}"
    except (OSError, ValueError) as exc:  # files, profiles, arguments
        why = f"{args.command}: {exc}"
    print(why, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
