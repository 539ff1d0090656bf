"""Antiperiodic integer-valued pseudorandom oscillators on the rational grid.

An oscillator is a total function on integer indices j built from a base
table of P = K*C values: index j falls in block floor(j / P), and odd
blocks negate the looked-up value, so f(j + P) = -f(j) and f(j + 2P) = f(j).
Euclidean floor/mod keep those identities true for negative j as well.

A session's oscillators are always PrfOscillator: each value is
recomputed from a keyed hash when needed, since a session reads only the
few indices of its four aligned points. The protocol path reads each
value once, so prf.session_values hashes its two keys and values for
sender and receiver alike without building an oscillator or loading
this module. TableOscillator holds an explicit seed in memory: the
worked examples, and as_table, which materializes a PRF oscillator over
the same prf._prf_value and so agrees with it everywhere.
"""

from hashlib import sha3_256
from typing import NamedTuple

from .errors import SeedTooLarge
from .modmath import EvalPoint, FieldElem, Modulus
from .prf import _TAG_PHI, _TAG_PSI, _prf_value

# Tables may be built explicitly up to TABLE_CAP entries; beyond that
# construction refuses.
TABLE_CAP = 1 << 20

_TAGS = {"phi": _TAG_PHI, "psi": _TAG_PSI}  # generate's labels, key tags


class OscSeed(NamedTuple("OscSeed", [("values", tuple), ("K", int),
                                     ("C", int)])):
    """Explicit seed table: P = K*C integers, one antiperiod block."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # validates _replace too

    def __new__(cls, values, K: int, C: int):
        self = super().__new__(cls, tuple(values), K, C)
        if K < 1 or C < 1:
            raise ValueError("K and C must be >= 1")
        if len(self.values) != K * C:
            raise ValueError(f"seed length {len(self.values)} != K*C = {K * C}")
        return self

    @property
    def P(self) -> int:
        return self.K * self.C


class TableOscillator:
    """Oscillator backed by an in-memory table of canonical residues."""

    mode = "table"

    def __init__(self, seed: OscSeed, mod: Modulus):
        self.K, self.C, self.P, self.mod = seed.K, seed.C, seed.P, mod
        if seed.P > TABLE_CAP:
            raise SeedTooLarge(f"P = {seed.P} exceeds table cap {TABLE_CAP}")
        self.table = tuple(v % mod.M for v in seed.values)

    def seed_value(self, m: int) -> int:
        return self.table[m]


class PrfOscillator:
    """Oscillator hashing each table entry on demand; keeps the last one."""

    mode = "prf"
    __slots__ = ("K", "C", "P", "mod", "key", "_m", "_value")

    def __init__(self, key: bytes, K: int, C: int, mod: Modulus):
        self.K, self.C, self.P, self.mod = K, C, K * C, mod
        self.key, self._m, self._value = key, -1, None  # no index is < 0

    def seed_value(self, m: int) -> int:
        if m != self._m:
            self._value = _prf_value(self.key, m, self.mod)
            self._m = m
        return self._value

    def as_table(self) -> TableOscillator:
        """Materialize the full table (must fit under TABLE_CAP)."""
        if self.P > TABLE_CAP:
            raise SeedTooLarge(f"P = {self.P} exceeds table cap {TABLE_CAP}")
        values = tuple(self.seed_value(m) for m in range(self.P))
        return TableOscillator(OscSeed(values, self.K, self.C), self.mod)


Oscillator = TableOscillator | PrfOscillator


def generate(S: bytes, z: bytes, label: str, K: int, C: int,
             mod: Modulus) -> PrfOscillator:
    """Derive the keyed on-demand oscillator for one session.

    The key is bound to the secret, nonce, and oscillator label, so the
    "phi" and "psi" streams are independent. No table is built at any
    size: values are hashed only at the indices a session reads.
    """
    if label not in _TAGS:
        raise ValueError("label must be 'phi' or 'psi'")
    return PrfOscillator(sha3_256(_TAGS[label] + S + z).digest(), K, C, mod)


def index_value(osc: Oscillator, j: int) -> int:
    """Oscillator value at integer index j, as an int in (-M, M).

    divmod against the positive P gives the Euclidean block/offset pair,
    so negative indices extend the antiperiodic pattern leftward.
    """
    block, m = divmod(j, osc.P)
    v = osc.seed_value(m)
    return -v if block % 2 else v


def eval_index(osc: Oscillator, j: int) -> FieldElem:
    """index_value reduced mod M."""
    return FieldElem(index_value(osc, j), osc.mod)


def eval_arg(osc: Oscillator, x: EvalPoint) -> FieldElem:
    """Oscillator value at its own grid argument x = m/K (index m).

    In this argument the function is antiperiodic with antiperiod C:
    eval_arg(x + C) = -eval_arg(x) for every C, since a C shift moves the
    index by C*K = P exactly.
    """
    if x.K != osc.K:
        raise ValueError(f"grid mismatch: point K={x.K}, oscillator K={osc.K}")
    return eval_index(osc, x.n)


def eval_at(osc: Oscillator, t: EvalPoint) -> FieldElem:
    """Oscillator at argument osc.C * t, the generating-function form.

    For t = n/K the argument C*t sits at index (C*t)*K = C*n. A unit shift
    of t moves the index by C*K = P, so in t this composition flips sign
    per whole step: eval_at(t + 1) = -eval_at(t).
    """
    if t.K != osc.K:
        raise ValueError(f"grid mismatch: point K={t.K}, oscillator K={osc.K}")
    return FieldElem(value_at(osc, t.n), osc.mod)


def value_at(osc: Oscillator, n: int) -> int:
    """eval_at at t = n/K on raw ints, in (-M, M): index_value at C*n."""
    return index_value(osc, osc.C * n)
