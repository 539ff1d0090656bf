"""Host-speed calibration for the timed figures.

On a shared host the speed of one core drifts: the same inputs run up
to 40% slower or faster for seconds to minutes at a time, while process
CPU time still equals wall time. No median over a run can absorb a slow
stretch longer than the run. So the timed loop runs a small fixed
kernel (about 4 ms) between operations every BLOCK_S of work, and scales
each block's times by REFERENCE_S over the mean kernel time around it:
the figures read as on a host where the kernel takes REFERENCE_S.

A kernel uses no fourpoint code, so a change to the package cannot move
it. Contention slows different kinds of work by different amounts, so
each workload uses the kernel closest to its own work. BIG_INT is
256-bit modular exponentiation and a pure-Python extended Euclid, the
two costs that dominate the production profile. MIXED adds SHA3-256 and
small-object arithmetic through Python operator overloads, in about
equal time, for the toy profile, where no single cost dominates.
Scaled by BIG_INT, 20-second windows of production round trips on a
2-core shared host spread by under 1% between quartiles, against 17%
unscaled.
"""

from hashlib import sha3_256
from time import perf_counter_ns

REFERENCE_S = 0.004   # seconds per kernel run on the reference host
BLOCK_S = 0.040       # seconds of work between kernel runs

_P = (1 << 256) - (1 << 32) - 977
_E = _P - 3


class _Residue:
    __slots__ = ("value", "mod")

    def __init__(self, value: int, mod: int):
        self.value = value % mod
        self.mod = mod

    def __add__(self, other):
        return _Residue(self.value + other.value, self.mod)


def _pow(n: int) -> int:
    x = 7
    for _ in range(n):
        x = pow(x, _E, _P)
    return x


def _xgcd(n: int) -> int:
    a = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF1234567890ABCD
    for _ in range(n):
        old_r, r, old_s, s = a, _P, 1, 0
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
        a = (a * 3 + 1) % _P
    return a


def _sha3(n: int) -> bytes:
    b = b"x" * 96
    for _ in range(n):
        b = sha3_256(b).digest() + b[:64]
    return b


def _objects(n: int) -> int:
    x, y = _Residue(1, 257), _Residue(3, 257)
    for _ in range(n):
        x = x + y
    return x.value


# (component, repetitions); each line takes about 1 ms on the reference host
MIXED = ((_pow, 4), (_xgcd, 20), (_sha3, 400), (_objects, 2000))
BIG_INT = ((_pow, 8), (_xgcd, 40))


def kernel_s(kernel=MIXED) -> float:
    """Wall seconds for one run of a calibration kernel."""
    t0 = perf_counter_ns()
    for part, n in kernel:
        part(n)
    return (perf_counter_ns() - t0) / 1e9
