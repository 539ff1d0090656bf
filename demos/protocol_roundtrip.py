#!/usr/bin/env python3
"""One full message exchange, then what tampering does to it.

Alice and Bob share only a secret S. `send` draws a fresh nonce z,
claims it in a nonce log, and expands (S, z) into a session; Alice hides
her payload v in the offset structure of two curve evaluations and ships
132 bytes. `receive` re-derives the session from z, recovers v
algebraically, and checks the binding hash.
"""

from pathlib import Path
import tempfile

from fourpoint.errors import VerificationError
from fourpoint.protocol import (TOY, NonceLog, derive_session, deserialize,
                                receive, send)


def hexdump(blob, width=32):
    for off in range(0, len(blob), width):
        chunk = blob[off:off + width]
        print(f"  {off:4}  {chunk.hex()}")


def main():
    S = b"our shared secret, >= 8 bytes"
    v = 42          # the hidden payload
    u = 9           # public spacing, goes on the wire in clear

    print(f"secret S = {S!r}")
    print(f"payload v = {v}, spacing u = {u}, profile = {TOY.name} "
          f"(M = {TOY.mod.M})")

    # a real sender keeps its log for as long as it uses S; this one
    # lives in a temporary directory
    with tempfile.TemporaryDirectory() as tmp:
        blob = send(S, u, v, TOY, NonceLog(Path(tmp) / "nonces"))

    # only a holder of S can rebuild the session, from the nonce on the
    # wire, as the receiver does
    sess = derive_session(S, deserialize(blob, TOY).z, TOY)
    print(f"\nsession: p={sess.base} K={sess.K} C={sess.C} "
          f"i={sess.n % sess.K} t={sess.n}/{sess.K}")
    print(f"\nwire message ({len(blob)} bytes: s1 | s3 | u | z | check):")
    hexdump(blob)

    got = receive(S, blob, TOY)
    print(f"\nBob recovers v = {got}")
    assert got == v

    print("\nflipping one bit in s3...")
    bad = bytearray(blob)
    bad[63] ^= 0x01  # low byte of s3; high bytes would fail as overflow
    try:
        receive(S, bytes(bad), TOY)
        raise SystemExit("tampered message accepted - this must not happen")
    except VerificationError as exc:
        print(f"rejected: {type(exc).__name__}: {exc}")

    print("\nwrong secret on Bob's side...")
    try:
        receive(b"not the same secret", blob, TOY)
        raise SystemExit("foreign secret accepted - this must not happen")
    except VerificationError as exc:
        print(f"rejected: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
