"""The sender's bytes on mini and production, pinned by digest.

tests/fixtures/vectors.txt pins toy messages byte for byte. Here a fixed
seed draws 256 (S, z, u, v) per profile; each draw is recorded as the
SHA3-256 of its serialized message, or of the abort class name where
derivation or generation aborts. The digests in
tests/fixtures/sender_digests.txt were recorded before the sender moved
onto raw session ints; regenerate them with

    PYTHONPATH=src python3 tests/test_sender_bytes.py > tests/fixtures/sender_digests.txt

only when the message format is meant to change.
"""

from hashlib import sha3_256
from pathlib import Path
import random

import pytest

from fourpoint.errors import ProtocolAbort
from fourpoint.protocol import (MINI, PRODUCTION, alice_generate,
                                derive_session, serialize)

DIGESTS = Path(__file__).resolve().parent / "fixtures" / "sender_digests.txt"
DRAWS = 256


def sender_digests(profile) -> list[str]:
    rng = random.Random(f"sender-bytes/{profile.name}")
    digests = []
    for _ in range(DRAWS):
        S, z = rng.randbytes(32), rng.randbytes(32)
        u, v = rng.randrange(1, profile.u_bound), rng.randrange(profile.v_bound)
        try:
            out = serialize(alice_generate(derive_session(S, z, profile), u, v))
        except ProtocolAbort as exc:
            out = type(exc).__name__.encode("ascii")
        digests.append(sha3_256(out).hexdigest())
    return digests


def fixture_lines() -> list[str]:
    return [f"{profile.name} {k} {digest}"
            for profile in (MINI, PRODUCTION)
            for k, digest in enumerate(sender_digests(profile))]


def recorded(name: str) -> list[str]:
    lines = DIGESTS.read_text(encoding="ascii").splitlines()
    return [line.split()[2] for line in lines if line.split()[0] == name]


@pytest.mark.parametrize("profile", [MINI, PRODUCTION], ids=lambda p: p.name)
def test_sender_digests_match_the_recorded_ones(profile):
    want = recorded(profile.name)
    assert len(want) == DRAWS
    got = sender_digests(profile)
    mismatched = [k for k in range(DRAWS) if got[k] != want[k]]
    assert mismatched == []


def test_draws_cover_messages_and_aborts():
    # mini draws every abort class (M = 17), production none: the pins
    # cover both outcomes
    classes = {sha3_256(name).hexdigest()
               for name in (b"AbortZeroIndex", b"AbortSingular",
                            b"AbortNonInvertible")}
    assert classes <= set(recorded("mini"))
    assert len(set(recorded("production"))) == DRAWS


if __name__ == "__main__":
    print("\n".join(fixture_lines()))
