"""The keyed PRF values that sender and receiver read.

Each value is SHA3-256 over a key and 48-byte big-endian indices,
reduced mod M. The protocol path calls session_values and anchor_value
on raw ints; the reference path's oscillator.PrfOscillator and
genfunc.PrfMasked read the same values through _prf_value and
anchor_value, so the two agree; a CLI start loads neither module.
"""

from hashlib import sha3_256

from .modmath import Modulus

_INDEX_WIDTH = 48  # bytes; covers indices below 2^384

# Key tags of a session's two oscillators: key = SHA3(tag || S || z).
_TAG_PHI = b"IBC.osc.phi"
_TAG_PSI = b"IBC.osc.psi"


def _prf_value(key: bytes, m: int, mod: Modulus) -> int:
    digest = sha3_256(key + m.to_bytes(_INDEX_WIDTH, "big")).digest()
    return int.from_bytes(digest, "big") % mod.M


def session_values(S: bytes, z: bytes, K: int, C: int, n: int,
                   mod: Modulus) -> tuple[int, int]:
    """(Phi, Psi) of session (S, z) at t = n/K, raw ints in (-M, M).

    value_at of oscillator.generate's "phi" and "psi" oscillators, with
    neither built: index C*n falls in block n // K at seed offset
    C*(n % K).
    """
    block, i = divmod(n, K)
    m, Sz = C * i, S + z
    phi = _prf_value(sha3_256(_TAG_PHI + Sz).digest(), m, mod)
    psi = _prf_value(sha3_256(_TAG_PSI + Sz).digest(), m, mod)
    return (-phi, -psi) if block % 2 else (phi, psi)


def anchor_value(key: bytes, i: int, K: int, M: int) -> int:
    """PRF(i, K) under key, in [1, M-1]: PrfMasked.anchor on raw ints."""
    digest = sha3_256(key + i.to_bytes(_INDEX_WIDTH, "big")
                      + K.to_bytes(_INDEX_WIDTH, "big")).digest()
    return int.from_bytes(digest, "big") % (M - 1) + 1
