"""The four-point invariant and its recovery algebra.

Four evaluations of the generating function at offsets 0, 2v+1, 2u,
2u+2v+1 from a base point t satisfy

    (s0*t + s1*(t+2v+1)) / (s2*(t+2u) + s3*(t+2u+2v+1)) = p^(-2u)  mod M

because the oscillator contributions cancel pairwise across each odd
offset and the exponent mask is shared by all four points. Solving the
cross-multiplied identity for the one unknown v gives the receiver's
recovery formula; its numerator collapses to 2v*(s1*p^2u - s3), so v
comes back exactly whenever v < M.

analytic_invariant_check is the floating-point reference of the same
identity on the real line, using literal sin/cos oscillators.
"""

import math
from typing import NamedTuple

from .genfunc import reference_view, s_M
from .modmath import EvalPoint, FieldElem, mod_inv, mod_pow


class InvariantTuple(NamedTuple):
    """Four aligned evaluations plus the offsets that produced them."""

    s0: FieldElem
    s1: FieldElem
    s2: FieldElem
    s3: FieldElem
    t: EvalPoint
    u: int
    v: int

    def __repr__(self):  # public parts only: s0, s2 and v stay out
        return f"InvariantTuple(u={self.u})"


def eval_invariant(tu: InvariantTuple) -> FieldElem:
    """The four-point ratio; equals expected_constant on honest tuples."""
    timg = tu.t.img
    a = 2 * tu.v + 1
    b = 2 * tu.u
    numerator = tu.s0 * timg + tu.s1 * (timg + a)
    denominator = tu.s2 * (timg + b) + tu.s3 * (timg + a + b)
    return numerator * mod_inv(denominator)


def expected_constant(p: FieldElem, u: int) -> FieldElem:
    """1 / p^(2u) mod M."""
    return mod_inv(mod_pow(p, 2 * u))


def check_denominator(s1: FieldElem, s3: FieldElem, p: FieldElem,
                      u: int) -> bool:
    """True iff D = 2*(s1*p^2u - s3) is nonzero, so invertible (M is prime)."""
    return ((s1 * mod_pow(p, 2 * u) - s3) * 2).value != 0


def recovery_map(s0: FieldElem, s1: FieldElem, s2: FieldElem,
                 t_img: FieldElem, u: int,
                 p: FieldElem) -> tuple[int, int, int]:
    """Residues (a, c, e) of the recovery as a Moebius map in s3.

    With s0, s1, s2, t, u, p fixed, the identity solved for v reads
    v(s3) = (a + c*s3) / (2*(e - s3)), where e = s1*p^2u,
    a = -s0*p^2u*t - e*(t+1) + s2*(t+2u) and c = t+2u+1.
    """
    if u < 0:
        raise ValueError("exponent must be nonnegative")
    M = p.mod.M
    p2u = pow(p.value, 2 * u, M)
    t = t_img.value
    e = s1.value * p2u % M
    a = (-s0.value * p2u * t - e * (t + 1) + s2.value * (t + 2 * u)) % M
    c = (t + 2 * u + 1) % M
    return a, c, e


def recover_v(s0: FieldElem, s1: FieldElem, s2: FieldElem, s3: FieldElem,
              t_img: FieldElem, u: int, p: FieldElem) -> FieldElem:
    """Solve the invariant identity for v: recovery_map evaluated at s3.

    v = (a + c*s3) / (2*(e - s3)), the map lemma1_exhaustive sweeps;
    NonInvertible when 2*(s1*p^2u - s3) is 0 mod M. For an honest tuple
    the result is v mod M.
    """
    a, c, e = recovery_map(s0, s1, s2, t_img, u, p)
    return (s3 * c + a) * mod_inv((e - s3) * 2)


def enumerate_fiber(session, u: int, v_list) -> list[tuple[FieldElem, FieldElem]]:
    """All (s1, s3) pairs for the given v values at a fixed session and u.

    Every pair sits on the same level set: combined with the session's s0
    and s2 it reproduces expected_constant(p, u). A singular evaluation
    point raises NonInvertible from s_M.
    """
    ref = reference_view(session)  # once, every v
    pairs = []
    for v in v_list:
        s1 = s_M(ref.numer, ref.t + (2 * v + 1))
        s3 = s_M(ref.denom, ref.t + (2 * u + 2 * v + 1))
        pairs.append((s1, s3))
    return pairs


_EXCLUDED_SHIFTS = (0.0, 1.0, 2.0, 3.0)


def analytic_invariant_check(p: float, q1: float, q2: float,
                             r1: int, r2: int, t: float) -> float:
    """Real-arithmetic four-point ratio; 1/p^2 when r1, r2 are odd.

    Uses f(x) = p^x + q1*sin(r1*pi*x) + q2*cos(r2*pi*x), i.e. s(x)*x, so
    the ratio is (f(t) + f(t+1)) / (f(t+2) + f(t+3)). With odd r1, r2 a
    unit shift negates both oscillators and the ratio collapses to
    p^(-2); with an even multiplier it generically does not.

    The trig phase is split as x = n + g with integer n before calling
    libm, because sin(r*pi*x) evaluated whole loses the half-period sign
    structure to argument rounding; for p^t below ~1e-10 that residue
    would dominate the ratio. Splitting keeps the fractional part g (and
    hence the computed sine) identical across x and x+1, so paired terms
    cancel bit-exactly inside fsum and only the exponential survives.

    Raises ValueError for p <= 0, and for a t that makes one of the four
    points t, t+1, t+2, t+3 zero.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    for k in _EXCLUDED_SHIFTS:
        if t + k == 0.0:
            raise ValueError(f"t = {t} makes point t+{k:g} zero")

    def terms(x: float) -> tuple:
        n = math.floor(x)
        g = x - n  # exact: g lies on the ulp grid of x
        sin_sign = -1.0 if (r1 * n) & 1 else 1.0
        cos_sign = -1.0 if (r2 * n) & 1 else 1.0
        return (p ** x,
                q1 * sin_sign * math.sin(math.pi * (r1 * g)),
                q2 * cos_sign * math.cos(math.pi * (r2 * g)))

    numer = math.fsum(terms(t) + terms(t + 1))
    denom = math.fsum(terms(t + 2) + terms(t + 3))
    return numer / denom
