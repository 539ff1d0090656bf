"""Exact big-integer arithmetic over Z_M.

Everything here is pure and allocation-light: a Modulus is the one-field
record of the prime M and FieldElem is a canonical residue with operator
overloads. Canonical representatives live in [0, M); negative
intermediates are reduced with the Euclidean remainder, which is what
Python's % already gives for a positive modulus.

FieldElem's +, - and * and their reflections share one operand rule,
held by the factory _operators: the other operand is an int, which the
result reduces, or a FieldElem of the same modulus; another modulus is
ValueError("mixed moduli"), and anything else NotImplemented.

Powers and inverses come from FieldElem.__pow__, which raises
NonInvertible for a value that is 0 mod M; mod_inv and mod_pow are that
operator under names that the tests and the benchmark's tracer read.
Both rest on the built-in pow, whose inverse is extended Euclid; the
fixture ledger uses it as oracle A and checks it against a sweep. An
EvalPoint prints only M, since a session's n and K derive from the
secret; a FieldElem prints its value.
"""

from hashlib import sha3_256
import operator
from typing import NamedTuple

from .errors import NonInvertible

# 2^256 - 2^32 - 977, the secp256k1 field prime; any 256-bit prime works.
PRODUCTION_PRIME = (1 << 256) - (1 << 32) - 977
MODULUS_BITS = 256  # widest M; protocol sizes its wire fields from it

# Known primes that Modulus accepts without the Miller-Rabin test; the test
# suite checks each one.
WHITELISTED_MODULI = frozenset({17, 257, PRODUCTION_PRIME})

MILLER_RABIN_ROUNDS = 64  # error < 4^-64 = 2^-128 per the Modulus contract


def is_probable_prime(n: int, rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    """Miller-Rabin with `rounds` bases hashed from (n, round): the verdict
    repeats, the global `random` state is untouched, and the bases depend
    on n, so no composite can be built against a fixed base set."""
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for k in range(rounds):
        digest = sha3_256(b"%x:%x" % (n, k)).digest()
        a = int.from_bytes(digest, "big") % (n - 3) + 2
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Modulus(NamedTuple("Modulus", [("M", int)])):
    """The ring modulus M, a prime of at most MODULUS_BITS bits, checked
    before the primality test; immutable, equal by value."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # validates _replace too

    def __new__(cls, M: int):
        if not isinstance(M, int):
            raise ValueError(f"modulus must be an int, not {type(M).__name__}")
        if M < 3:
            raise ValueError("modulus must be >= 3")
        if M.bit_length() > MODULUS_BITS:
            raise ValueError(f"modulus too wide for the {MODULUS_BITS // 8}"
                             "-byte wire fields")
        if M not in WHITELISTED_MODULI and not is_probable_prime(M):
            raise ValueError(f"modulus {M} failed the primality test")
        return tuple.__new__(cls, (M,))


def _operators(op):
    """FieldElem's forward and reflected operator for op, by the one rule."""
    def forward(self, other):
        if isinstance(other, FieldElem):
            if other.mod.M != self.mod.M:
                raise ValueError("mixed moduli")
            return FieldElem(op(self.value, other.value), self.mod)
        if isinstance(other, int):
            return FieldElem(op(self.value, other), self.mod)
        return NotImplemented

    def reflected(self, other):  # other is never a FieldElem here
        if isinstance(other, int):
            return FieldElem(op(other, self.value), self.mod)
        return NotImplemented
    return forward, reflected


class FieldElem:
    """Canonical residue in [0, M) with ring arithmetic."""

    __slots__ = ("value", "mod")

    def __init__(self, value: int, mod: Modulus):
        if not isinstance(value, int):
            raise ValueError(
                f"field value must be an int, not {type(value).__name__}")
        self.value = value % mod.M
        self.mod = mod

    __add__, __radd__ = _operators(operator.add)
    __sub__, __rsub__ = _operators(operator.sub)
    __mul__, __rmul__ = _operators(operator.mul)

    def __neg__(self):
        return FieldElem(-self.value, self.mod)

    def __pow__(self, exponent: int):
        try:
            return FieldElem(pow(self.value, exponent, self.mod.M), self.mod)
        except ValueError:
            raise NonInvertible(
                f"{self.value} has no inverse mod {self.mod.M}") from None

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.mod.M == other.mod.M and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.mod.M
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.mod.M))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"FieldElem({self.value} mod {self.mod.M})"


def mod_inv(a: FieldElem) -> FieldElem:
    """Multiplicative inverse; NonInvertible when gcd(a, M) != 1."""
    return a ** -1


def mod_pow(base: FieldElem, exponent: int) -> FieldElem:
    """base**exponent mod M for exponent >= 0."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    return base ** exponent


class EvalPoint:
    """Exact rational grid point t = n/K plus its field image mod M.

    The rational form drives oscillator indexing (which needs the exact
    numerator); the field image drives all Z_M arithmetic. Integer shifts
    move the numerator by multiples of K, so `t + 3` is the grid point
    three whole units to the right; divmod(n, K) splits t into its
    integer part and fractional numerator. NonInvertible when M divides K.
    """

    __slots__ = ("n", "K", "mod")

    def __init__(self, n: int, K: int, mod: Modulus):
        if not (isinstance(n, int) and isinstance(K, int)):
            raise ValueError(f"grid point n/K must be ints, not "
                             f"{type(n).__name__}/{type(K).__name__}")
        if K < 1:
            raise ValueError("grid denominator must be >= 1")
        if K % mod.M == 0:  # M is prime: only multiples of M lack an inverse
            raise NonInvertible(f"{K} has no inverse mod {mod.M}")
        self.n = n
        self.K = K
        self.mod = mod

    @property
    def img(self) -> FieldElem:
        """n * K^-1 mod M, computed when read: it costs an inverse."""
        return FieldElem(self.n * pow(self.K, -1, self.mod.M), self.mod)

    def __add__(self, delta: int):
        if not isinstance(delta, int):
            return NotImplemented
        return EvalPoint(self.n + delta * self.K, self.K, self.mod)

    def __eq__(self, other):
        if not isinstance(other, EvalPoint):
            return NotImplemented
        return (self.n, self.K, self.mod.M) == (other.n, other.K, other.mod.M)

    def __hash__(self):
        return hash((self.n, self.K, self.mod.M))

    def __repr__(self):  # for a session point, n and K derive from S
        return f"EvalPoint(M={self.mod.M})"
