"""The masked discrete generating function s_M(t).

s_M(t) = (p^t + q_i*phi(C*t) + q_j*psi(C*t)) / t  (all mod M)

p^t at a rational t = floor(t) + i/K is not modular exponentiation. The
invariant needs only exp_at(t + d) = exp_at(t) * p^d for integer d, so
exp_at(t) = p^floor(t) * anchor(i, K), with the anchor PRF(i, K) in
[1, M-1] under the session's 32-byte anchor key (prf.anchor_value). The
paper's root-based (r^i with r^K = p) and fixed-anchor conventions obey
the same shift law and are not implemented.

All four shifted evaluation points of a session share i and K, so the
anchor cancels out of the invariant ratio.

reference_view types a protocol Session's raw ints for this layer: p, t,
both oscillators, the anchor key and the two GenParams of s_M.
"""

from hashlib import sha3_256
from typing import NamedTuple

from . import oscillator  # generate by the module: perfbench traces it there
from .errors import NonInvertible
from .modmath import EvalPoint, FieldElem
from .modmath import mod_inv, mod_pow  # noqa: F401  perfbench traces them
from .oscillator import Oscillator, eval_at
from .prf import _TAG_PRF, anchor_value


def exp_at(anchor_key: bytes, p: FieldElem, t: EvalPoint) -> FieldElem:
    """p^t as p^floor(t) * anchor(i, K); the anchor lies in [1, M-1], so
    exp_at stays invertible."""
    B, i = divmod(t.n, t.K)
    return p ** B * anchor_value(anchor_key, i, t.K, p.mod.M)


class GenParams(NamedTuple("GenParams", [
        ("p", FieldElem), ("q_i", FieldElem), ("q_j", FieldElem),
        ("phi", Oscillator), ("psi", Oscillator), ("anchor_key", bytes)])):
    """Everything s_M needs at one amplitude pair (q_i, q_j)."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # validates _replace too

    def __new__(cls, p: FieldElem, q_i: FieldElem, q_j: FieldElem,
                phi: Oscillator, psi: Oscillator, anchor_key: bytes):
        if p.value == 0:  # M is prime: only 0 has no inverse
            raise NonInvertible("base p is 0 mod M")
        return tuple.__new__(cls, (p, q_i, q_j, phi, psi, anchor_key))

    def __repr__(self):  # for a session, every field derives from S
        return f"GenParams(M={self.p.mod.M})"


def s_M(gp: GenParams, t: EvalPoint) -> FieldElem:
    """(p^t + q_i*phi(Ct) + q_j*psi(Ct)) / t mod M, on ints."""
    img = t.img.value
    if img == 0:
        raise NonInvertible("evaluation point reduces to 0 mod M")
    x = exp_at(gp.anchor_key, gp.p, t).value
    phi, psi = eval_at(gp.phi, t).value, eval_at(gp.psi, t).value
    if not (gp.p.mod.M == gp.q_i.mod.M == gp.q_j.mod.M == gp.phi.mod.M
            == gp.psi.mod.M == t.mod.M):
        raise ValueError("mixed moduli")
    return FieldElem((x + gp.q_i.value * phi + gp.q_j.value * psi)
                     * pow(img, -1, t.mod.M), t.mod)


class ReferenceView(NamedTuple):
    """A Session typed for the reference layer, built by reference_view."""

    p: FieldElem
    t: EvalPoint
    phi: Oscillator
    psi: Oscillator
    anchor_key: bytes
    numer: GenParams  # s0 and s1, at amplitudes q1, q2
    denom: GenParams  # s2 and s3, at amplitudes q3, q4

    def __repr__(self):  # public parts only: all of it derives from S
        return f"ReferenceView(M={self.p.mod.M})"


def reference_view(sess) -> ReferenceView:
    """The typed view of a protocol Session, at three key hashes: the two
    oscillator keys, by oscillator.generate, and the anchor key."""
    S, z, profile, base, K, C, n, q = sess
    mod = profile.mod
    p = FieldElem(base, mod)
    phi = oscillator.generate(S, z, "phi", K, C, mod)
    psi = oscillator.generate(S, z, "psi", K, C, mod)
    key = sha3_256(_TAG_PRF + S + z).digest()
    q1, q2, q3, q4 = (FieldElem(x, mod) for x in q)
    return ReferenceView(p, EvalPoint(n, K, mod), phi, psi, key,
                         GenParams(p, q1, q2, phi, psi, key),
                         GenParams(p, q3, q4, phi, psi, key))
