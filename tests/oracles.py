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


def naive_send(S: bytes, z: bytes, u: int, v: int, profile) -> bytes | str:
    """The sender as README's sender description gives it, with hashlib
    and naive_session only: the 132-byte message carrying v under nonce z,
    or the name of the abort protocol's sender raises ("AbortZeroIndex",
    "AbortSingular" or "AbortNonInvertible"). u and v lie in the
    profile's envelope, and S is long enough for it.
    """
    M = profile.mod.M
    sess = naive_session(S, z, profile)
    if isinstance(sess, str):
        return sess
    p, K, C, i, B = sess["p"], sess["K"], sess["C"], sess["i"], sess["B"]
    q1, q2, q3, q4 = sess["q"]
    n = B * K + i  # t = n/K
    # s_d at t + d for d = 2v+1 and d = 2u+2v+1; the receiver's s2 at t + 2u
    d1, d3 = 2 * v + 1, 2 * u + 2 * v + 1
    if any((n + d * K) % M == 0 for d in (d1, 2 * u, d3)):
        return "AbortSingular"
    # Phi and Psi at t, as naive_receive reads them
    block, m = divmod(C * n, K * C)

    def oscillator(key: bytes) -> int:
        value = int.from_bytes(hashlib.sha3_256(
            key + m.to_bytes(48, "big")).digest(), "big") % M
        return -value if block % 2 else value
    phi, psi = oscillator(sess["phi_key"]), oscillator(sess["psi_key"])
    # X = p^B * anchor(i, K), the anchor a keyed PRF value in [1, M-1]
    anchor = int.from_bytes(hashlib.sha3_256(
        sess["anchor_key"] + i.to_bytes(48, "big") + K.to_bytes(48, "big")
    ).digest(), "big") % (M - 1) + 1
    X = pow(p, B, M) * anchor % M
    # s_d = K*N_d / (n + d*K), N_d = X*p^d - (q*Phi + q'*Psi) for odd d
    s1 = (K * (X * pow(p, d1, M) - (q1 * phi + q2 * psi))
          * pow(n + d1 * K, -1, M) % M)
    s3 = (K * (X * pow(p, d3, M) - (q3 * phi + q4 * psi))
          * pow(n + d3 * K, -1, M) % M)
    if s1 * pow(p, 2 * u, M) % M == s3:  # the receiver's e = s1*p^2u
        return "AbortNonInvertible"
    head = (s1.to_bytes(32, "big") + s3.to_bytes(32, "big")
            + u.to_bytes(4, "big"))
    return head + z + hashlib.sha3_256(
        b"IBC.check" + S + v.to_bytes(8, "big") + head + z).digest()


def naive_receive(S: bytes, data: bytes, profile) -> int | str:
    """The receiver as README's wire format and recovery sections describe
    it, with hashlib and naive_session only: v on accept, else the name of
    the error protocol.receive raises ("ValueError" for a secret below the
    profile's floor).
    """
    M = profile.mod.M
    if len(data) != 132:
        return "BadLength"
    # s1 (32 bytes) || s3 (32) || u (4) || z (32) || h_check (32)
    s1 = int.from_bytes(data[0:32], "big")
    s3 = int.from_bytes(data[32:64], "big")
    u = int.from_bytes(data[64:68], "big")
    z, h_check = data[68:100], data[100:132]
    if s1 >= M or s3 >= M:
        return "FieldOverflow"
    if not 1 <= u < 2 ** profile.u_bits:
        return "RejectRange"
    if len(S) < (32 if M.bit_length() >= 64 else 8):
        return "ValueError"
    sess = naive_session(S, z, profile)
    if isinstance(sess, str):
        return "RejectSession"
    p, K, C = sess["p"], sess["K"], sess["C"]
    q1, q2, q3, q4 = sess["q"]
    n = sess["B"] * K + sess["i"]  # t = n/K
    if (n + 2 * u * K) % M == 0:  # t + 2u, the point of s2, is 0 mod M
        return "RejectSession"
    # Phi and Psi at t: index C*n of a table of K*C keyed values whose
    # odd-numbered repeats are negated
    block, m = divmod(C * n, K * C)

    def oscillator(key: bytes) -> int:
        value = int.from_bytes(hashlib.sha3_256(
            key + m.to_bytes(48, "big")).digest(), "big") % M
        return -value if block % 2 else value
    phi, psi = oscillator(sess["phi_key"]), oscillator(sess["psi_key"])
    p2u = pow(p, 2 * u, M)
    e = s1 * p2u % M
    if e == s3:
        return "RejectDenominator"
    # the receiver's map: v(s3) = (K*a + K*c*s3) / (2K*(e - s3))
    Ka = K * ((q3 * phi + q4 * psi) - (q1 * phi + q2 * psi) * p2u) \
        - e * (n + K)
    Kc = n + (2 * u + 1) * K
    v = (Ka + Kc * s3) * pow(2 * K * (e - s3), -1, M) % M
    if v >= 2 ** 64:  # the check hash holds v in 8 bytes
        return "RejectRange"
    want = hashlib.sha3_256(b"IBC.check" + S + v.to_bytes(8, "big")
                            + data[0:68] + z).digest()
    if want != h_check:
        return "RejectHash"
    if v >= min(2 ** profile.v_bits, M):
        return "RejectRange"
    return v
