"""Seeded generators of malformed input for the library's input surfaces.

Each generator takes a random.Random and yields cases (surface, call,
args): deserialize and receive on random, bit-flipped, truncated,
extended and spliced messages on mini, toy and production, and
profile_from_dict and load_profile on mutated profile dicts and files.
The property is that each call returns a value or raises one of ALLOWED,
never another exception. tests/test_fuzz.py runs them on fixed seeds,
tools/fuzz.py on fresh ones. Stdlib only.
"""

import json
import random

from fourpoint.errors import FourPointError, ProtocolAbort
from fourpoint.protocol import (MESSAGE_LEN, MINI, PRODUCTION, TOY,
                                alice_generate, derive_session,
                                deserialize, load_profile, profile_from_dict,
                                profile_to_dict, receive, serialize)

ALLOWED = (FourPointError, ValueError, OSError)
PROFILES = (MINI, TOY, PRODUCTION)

# values a JSON profile can carry in place of the right one
ODD_VALUES = (None, True, False, 0, 1, 2, 3, 4, -1, 1.5, float("nan"),
              float("inf"), "", "x", "257", " 257 ", "-257", "0x101",
              "1_000", "２５７", "é", [], [2], {},
              {"M": 257})


def honest(rng: random.Random, profile) -> tuple[bytes, bytes]:
    """(S, blob) of an honest message under a fresh secret and nonce."""
    while True:
        S, z = rng.randbytes(32), rng.randbytes(32)
        u, v = rng.randrange(1, profile.u_bound), rng.randrange(profile.v_bound)
        try:
            return S, serialize(alice_generate(derive_session(S, z, profile),
                                               u, v))
        except ProtocolAbort:
            continue


def mutate_blob(rng: random.Random, blob: bytes, other: bytes,
                M: int) -> bytes:
    """One random, bit-flipped, truncated, extended or spliced message."""
    kind = rng.randrange(7)
    if kind == 0:  # random bytes, mostly near the wire length
        return rng.randbytes(rng.choice((0, 1, MESSAGE_LEN - 1, MESSAGE_LEN,
                                         MESSAGE_LEN + 1, rng.randrange(300))))
    if kind == 1:  # random fields, both values in range
        return (rng.randrange(M).to_bytes(32, "big")
                + rng.randrange(M).to_bytes(32, "big") + rng.randbytes(68))
    if kind == 2:  # a few flipped bits
        out = bytearray(blob)
        for _ in range(rng.randrange(1, 9)):
            bit = rng.randrange(8 * len(out))
            out[bit // 8] ^= 1 << bit % 8
        return bytes(out)
    if kind == 3:  # truncated
        return blob[:rng.randrange(len(blob))]
    if kind == 4:  # extended
        return blob + rng.randbytes(rng.randrange(1, 40))
    if kind == 5:  # spliced at a byte
        cut = rng.randrange(len(blob) + 1)
        return blob[:cut] + other[cut:]
    # one field set to an edge value: s1 or s3 at 0, M - 1 or M (every
    # profile's M fits 32 bytes), u at 0 or 2^32 - 1
    start, width, value = rng.choice((
        (0, 32, 0), (0, 32, M - 1), (0, 32, M), (32, 32, 0),
        (32, 32, M - 1), (32, 32, M), (64, 4, 0), (64, 4, (1 << 32) - 1)))
    return blob[:start] + value.to_bytes(width, "big") + blob[start + width:]


def wire_cases(rng: random.Random, count: int):
    """count mutated messages per profile through deserialize and receive,
    under the honest secret or, for one in eight, a random one of any
    length."""
    for profile in PROFILES:
        S, blob = honest(rng, profile)
        _, other = honest(rng, profile)
        for _ in range(count):
            data = mutate_blob(rng, blob, other, profile.mod.M)
            secret = S if rng.randrange(8) else rng.randbytes(rng.randrange(40))
            yield "deserialize", deserialize, (data, profile)
            yield "receive", receive, (secret, data, profile)


def nested(depth: int) -> list:
    out = []
    for _ in range(depth):
        out = [out]
    return out


def odd_value(rng: random.Random):
    """A wrong value: odd constants, huge and negative ints, huge digit
    strings, deep nesting, non-ASCII text and random odd numbers."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(ODD_VALUES)
    if kind == 1:
        bits = rng.randrange(1, 2000)
        return rng.randrange(-(1 << bits), 1 << bits)
    if kind == 2:
        return "".join(rng.choices("0123456789", k=rng.randrange(1, 5000)))
    if kind == 3:
        return nested(rng.randrange(1, 3000))
    if kind == 4:
        return "".join(chr(rng.randrange(0x80, 0x3000))
                       for _ in range(rng.randrange(1, 20)))
    return rng.getrandbits(rng.randrange(2, 300)) | 1


def mutate_dict(rng: random.Random):
    """A builtin profile's dict with one to three keys dropped, added,
    type-swapped, nudged or replaced by an odd value; one in twenty is
    not a dict at all."""
    if rng.randrange(20) == 0:
        return odd_value(rng)
    d = profile_to_dict(rng.choice(PROFILES))
    for _ in range(rng.randrange(1, 4)):
        key = rng.choice(sorted(d) + ["extra"])
        kind = rng.randrange(4)
        if kind == 0:
            d.pop(key, None)
        elif kind == 1 and isinstance(d.get(key), (int, str)):
            value = d[key]  # an int becomes its digits, a str its length
            d[key] = str(value) if isinstance(value, int) else len(value)
        elif kind == 2 and isinstance(d.get(key), int):
            d[key] += rng.choice((-1, 1, -(1 << 64), 1 << 64))
        else:
            d[key] = odd_value(rng)
    return d


def profile_text(rng: random.Random) -> bytes:
    """The bytes of a profile file: a mutated dict as JSON, then maybe
    inserted, deleted or replaced bytes (non-ASCII among them), a cut,
    deep nesting or padding past the size cap."""
    try:
        data = json.dumps(mutate_dict(rng)).encode("utf-8")
    except (RecursionError, ValueError):  # too deep for the encoder
        data = b"{}"
    for _ in range(rng.randrange(3)):
        kind, at = rng.randrange(6), rng.randrange(len(data) + 1)
        if kind == 0:
            data = data[:at] + rng.randbytes(rng.randrange(1, 8)) + data[at:]
        elif kind == 1:
            data = data[:at] + data[at + rng.randrange(1, 8):]
        elif kind == 2:
            data = data[:at] + bytes([rng.randrange(0x80, 0x100)]) + data[at:]
        elif kind == 3:
            data = data[:at]
        elif kind == 4:
            depth = rng.randrange(1, 4000)
            data = b"[" * depth + data + b"]" * rng.randrange(depth + 1)
        else:
            data += b" " * rng.randrange(4000, 5000)
    return data


def profile_cases(rng: random.Random, directory, count: int):
    """count mutated dicts through profile_from_dict, and count mutated
    files through load_profile, one in twenty a missing path or a
    directory."""
    for _ in range(count):
        yield "profile_from_dict", profile_from_dict, (mutate_dict(rng),)
    for k in range(count):
        path = directory / f"profile-{k}.json"
        kind = rng.randrange(20)
        if kind == 0:
            path = directory / "missing.json"
        elif kind == 1:
            path = directory
        else:
            path.write_bytes(profile_text(rng))
        yield "load_profile", load_profile, (path,)


def violations(cases) -> list:
    """(surface, exception) for each case whose call raised an exception
    outside ALLOWED."""
    found = []
    for surface, call, args in cases:
        try:
            call(*args)
        except ALLOWED:
            pass
        except Exception as exc:  # the property under test
            found.append((surface, exc))
    return found
