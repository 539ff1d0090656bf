#!/usr/bin/env python3
"""One full message exchange, then what tampering does to it.

Alice and Bob share only a secret S. A fresh nonce z expands (S, z)
into a session; Alice hides her payload v in the offset structure of
two curve evaluations and ships 132 bytes; Bob re-derives the session,
recovers v algebraically, and checks the binding hash.
"""

import secrets

from fourpoint.errors import ProtocolAbort, VerificationError
from fourpoint.protocol import (TOY, alice_generate, bob_verify,
                                derive_session, deserialize, serialize)


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

    while True:
        z = secrets.token_bytes(32)
        try:
            sess = derive_session(S, z, TOY)
            msg = alice_generate(sess, u, v)
            break
        except ProtocolAbort as exc:
            print(f"abort ({exc}); redrawing nonce")

    t = sess.t
    print(f"\nsession: p={sess.p.value} K={t.K} C={sess.phi.C} "
          f"i={t.frac_num()} t={t.n}/{t.K}")
    blob = serialize(msg)
    print(f"\nwire message ({len(blob)} bytes: s1 | s3 | u | z | check):")
    hexdump(blob)

    got = bob_verify(S, deserialize(blob, TOY), TOY)
    print(f"\nBob recovers v = {got}")
    assert got == v

    print("\nflipping one bit in s3...")
    bad = bytearray(blob)
    bad[63] ^= 0x01  # low byte of s3; high bytes would fail as overflow
    try:
        bob_verify(S, deserialize(bytes(bad), TOY), TOY)
        raise SystemExit("tampered message accepted - this must not happen")
    except VerificationError as exc:
        print(f"rejected: {type(exc).__name__}: {exc}")

    print("\nwrong secret on Bob's side...")
    try:
        bob_verify(b"not the same secret", deserialize(blob, TOY), TOY)
        raise SystemExit("foreign secret accepted - this must not happen")
    except VerificationError as exc:
        print(f"rejected: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
