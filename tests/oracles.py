"""Naive reference implementations for cross-checking frozen test values.

Everything here trades speed for obviousness: linear scans, repeated
multiplication, explicit list unrolling. Tests freeze a constant only
after the fast implementation and one of these oracles agree on it.
"""


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
