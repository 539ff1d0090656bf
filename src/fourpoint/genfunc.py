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

from typing import NamedTuple

from .errors import NonInvertible, SingularPoint
from .modmath import EvalPoint, FieldElem, Modulus
from .modmath import mod_inv, mod_pow  # noqa: F401  perfbench traces them
from .oscillator import Oscillator, eval_at
from .prf import anchor_value


class PrfMasked:
    """p^(a + i/K) := p^a * PRF(i, K), the keyed mask; equal by key."""

    __slots__ = ("key",)

    def __init__(self, key: bytes):
        self.key = key

    def __eq__(self, other):
        return isinstance(other, PrfMasked) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def anchor(self, i: int, K: int, mod: Modulus) -> int:
        """Mask in [1, M-1]; never 0, so exp_at stays invertible."""
        return anchor_value(self.key, i, K, mod.M)


def exp_at(conv: PrfMasked, p: FieldElem, t: EvalPoint) -> FieldElem:
    """p^t as p^floor(t) * anchor(i, K)."""
    B, i = divmod(t.n, t.K)
    return p ** B * conv.anchor(i, t.K, p.mod)


class GenParams(NamedTuple("GenParams", [
        ("p", FieldElem), ("q_i", FieldElem), ("q_j", FieldElem),
        ("phi", Oscillator), ("psi", Oscillator), ("conv", PrfMasked)])):
    """Everything s_M needs at one amplitude pair (q_i, q_j)."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # validates _replace too

    def __new__(cls, p: FieldElem, q_i: FieldElem, q_j: FieldElem,
                phi: Oscillator, psi: Oscillator, conv: PrfMasked):
        if p.value == 0:  # M is prime: only 0 has no inverse
            raise NonInvertible("base p is 0 mod M")
        return tuple.__new__(cls, (p, q_i, q_j, phi, psi, conv))


def s_M(gp: GenParams, t: EvalPoint) -> FieldElem:
    """(p^t + q_i*phi(Ct) + q_j*psi(Ct)) / t mod M, on ints."""
    img = t.img.value
    if img == 0:
        raise SingularPoint(f"t = {t!r} reduces to 0 mod M")
    x = exp_at(gp.conv, gp.p, t).value
    phi, psi = eval_at(gp.phi, t).value, eval_at(gp.psi, t).value
    if not (gp.p.mod.M == gp.q_i.mod.M == gp.q_j.mod.M == gp.phi.mod.M
            == gp.psi.mod.M == t.mod.M):
        raise ValueError("mixed moduli")
    return FieldElem((x + gp.q_i.value * phi + gp.q_j.value * psi)
                     * pow(img, -1, t.mod.M), t.mod)
