"""The keyed PRF values that sender and receiver read.

Each value is SHA3-256 over a key and 48-byte big-endian indices,
reduced mod M; all take M as an int, so only hashlib is needed. The
protocol path calls session_values and anchor_value; the reference
path's PrfOscillator and genfunc.exp_at read them through _prf_value and
anchor_value, so the two agree; a CLI start loads neither module.
"""

from hashlib import sha3_256

_INDEX_WIDTH = 48  # bytes; covers indices below 2^384

# Key tags of a session's two oscillators and its anchor:
# key = SHA3(tag || S || z).
_TAG_PHI = b"IBC.osc.phi"
_TAG_PSI = b"IBC.osc.psi"
_TAG_PRF = b"IBC.prf"


def _prf_value(key: bytes, m: int, M: int) -> int:
    digest = sha3_256(key + m.to_bytes(_INDEX_WIDTH, "big")).digest()
    return int.from_bytes(digest, "big") % M


def session_values(S: bytes, z: bytes, K: int, C: int, n: int,
                   M: int) -> tuple[int, int]:
    """(Phi, Psi) of session (S, z) at t = n/K, raw ints in (-M, M).

    oscillator.index_value at C*n of generate's "phi" and "psi"
    oscillators, with neither built: index C*n falls in block n // K at
    seed offset C*(n % K).
    """
    block, i = divmod(n, K)
    m, Sz = C * i, S + z
    phi = _prf_value(sha3_256(_TAG_PHI + Sz).digest(), m, M)
    psi = _prf_value(sha3_256(_TAG_PSI + Sz).digest(), m, M)
    return (-phi, -psi) if block % 2 else (phi, psi)


def anchor_value(key: bytes, i: int, K: int, M: int) -> int:
    """PRF(i, K) under key, in [1, M-1]: never 0, so p^t stays invertible."""
    digest = sha3_256(key + i.to_bytes(_INDEX_WIDTH, "big")
                      + K.to_bytes(_INDEX_WIDTH, "big")).digest()
    return int.from_bytes(digest, "big") % (M - 1) + 1
