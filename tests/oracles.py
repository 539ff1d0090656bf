"""Naive reference implementations for cross-checking frozen test values.

Everything here trades speed for obviousness: linear scans, repeated
multiplication, explicit list unrolling. Tests freeze a constant only
after the fast implementation and one of these oracles agree on it.
"""

import hashlib


def exhaustive_inverse(a: int, M: int) -> int | None:
    """Scan Z_M for the inverse of a; None if a is not invertible."""
    a %= M
    for x in range(M):
        if (a * x) % M == 1:
            return x
    return None


def naive_pow(base: int, exp: int, M: int) -> int:
    """Repeated multiplication, no squaring shortcuts."""
    if exp < 0:
        raise ValueError("naive_pow wants a nonnegative exponent")
    acc = 1 % M
    for _ in range(exp):
        acc = (acc * base) % M
    return acc


def unrolled_oscillator(values, M: int, lo: int, hi: int) -> dict[int, int]:
    """Antiperiodic extension of one period, tabulated index by index.

    Walks outward from index 0 flipping sign every len(values) steps,
    with no divmod cleverness; covers [lo, hi).
    """
    P = len(values)
    out = {}
    for j in range(lo, hi):
        m = j
        sign = 1
        while m < 0:
            m += P
            sign = -sign
        while m >= P:
            m -= P
            sign = -sign
        out[j] = (sign * values[m]) % M
    return out


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_session(S: bytes, z: bytes, profile) -> dict | str:
    """Every session value straight from its SHA3-256 tag, with hashlib.

    Returns the name of the abort ("AbortZeroIndex" or "AbortSingular")
    when derivation must redraw; otherwise p, K, C, i, B, q (q1..q4), the
    two oscillator keys and the anchor key.
    """
    def digest(tag: bytes, suffix: bytes = b"") -> bytes:
        return hashlib.sha3_256(tag + S + z + suffix).digest()

    def draw(tag: bytes, suffix: bytes = b"") -> int:
        return int.from_bytes(digest(tag, suffix), "big")

    M = profile.mod.M
    p = draw(b"IBC.p") % (M - 2) + 2
    K = draw(b"IBC.K") % (profile.K_max - profile.K_min + 1) + profile.K_min
    C = draw(b"IBC.C") % (profile.C_max - profile.C_min + 1) + profile.C_min
    i = draw(b"IBC.t") % K
    if i == 0:
        return "AbortZeroIndex"
    B = draw(b"IBC.B") % M
    if K % M == 0 or (B * K + i) % M == 0:
        return "AbortSingular"
    return {"p": p, "K": K, "C": C, "i": i, "B": B,
            "q": [draw(b"IBC.q", bytes([k])) % M for k in (1, 2, 3, 4)],
            "phi_key": digest(b"IBC.osc.phi"),
            "psi_key": digest(b"IBC.osc.psi"),
            "anchor_key": digest(b"IBC.prf")}
