"""The masked discrete generating function s_M(t).

s_M(t) = (p^t + q_i*phi(C*t) + q_j*psi(C*t)) / t  (all mod M)

p^t at a rational t = floor(t) + i/K is not modular exponentiation. The
invariant needs only exp_at(t + d) = exp_at(t) * p^d for integer d, so
exp_at(t) = p^floor(t) * anchor(i, K), with the keyed PrfMasked anchor
PRF(i, K) in [1, M-1]. The paper's root-based (r^i with r^K = p) and
fixed-anchor conventions obey the same shift law and are not implemented.

All four shifted evaluation points of a session share i and K, so the
anchor cancels out of the invariant ratio.
"""

from hashlib import sha3_256
from typing import NamedTuple

from .errors import NonInvertible, SingularPoint
from .modmath import EvalPoint, FieldElem, Modulus, mod_inv
from .modmath import mod_pow  # noqa: F401  unused here; perfbench traces it
from .oscillator import _INDEX_WIDTH, Oscillator, eval_at


class PrfMasked(NamedTuple):
    """p^(a + i/K) := p^a * PRF(i, K), the keyed mask."""

    key: bytes

    def anchor(self, i: int, K: int, mod: Modulus) -> int:
        """Mask in [1, M-1]; never 0, so exp_at stays invertible."""
        digest = sha3_256(self.key + i.to_bytes(_INDEX_WIDTH, "big")
                          + K.to_bytes(_INDEX_WIDTH, "big")).digest()
        return int.from_bytes(digest, "big") % (mod.M - 1) + 1


def exp_value(conv: PrfMasked, p: int, n: int, K: int, mod: Modulus) -> int:
    """exp_at at t = n/K on raw ints, in [0, M)."""
    B, i = divmod(n, K)
    return pow(p, B, mod.M) * conv.anchor(i, K, mod) % mod.M


def exp_at(conv: PrfMasked, p: FieldElem, t: EvalPoint) -> FieldElem:
    """p^t as p^floor(t) * anchor(i, K)."""
    try:
        return FieldElem(exp_value(conv, p.value, t.n, t.K, p.mod), p.mod)
    except ValueError:  # floor(t) < 0 and p = 0
        raise NonInvertible(f"p has no inverse mod {p.mod.M}") from None


class GenParams(NamedTuple("GenParams", [
        ("p", FieldElem), ("q_i", FieldElem), ("q_j", FieldElem),
        ("phi", Oscillator), ("psi", Oscillator), ("conv", PrfMasked)])):
    """Everything s_M needs at one amplitude pair (q_i, q_j)."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # validates _replace too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.p.value == 0:  # M is prime: only 0 has no inverse
            raise NonInvertible("base p is 0 mod M")
        return self


def s_M(gp: GenParams, t: EvalPoint) -> FieldElem:
    """(p^t + q_i*phi(Ct) + q_j*psi(Ct)) / t mod M."""
    img = t.img
    if img.value == 0:
        raise SingularPoint(f"t = {t!r} reduces to 0 mod M")
    numerator = (exp_at(gp.conv, gp.p, t)
                 + gp.q_i * eval_at(gp.phi, t)
                 + gp.q_j * eval_at(gp.psi, t))
    return numerator * mod_inv(img)
