#!/usr/bin/env python3
"""Walk the four-point invariant from raw oscillator to fixed constant.

Runs at desk scale (M = 257) with a hand-picked seed so every number
fits on screen. Shows, in order: the antiperiodic extension of one
seed period, the four aligned evaluations of the masked generating
function, the invariant ratio collapsing to p^(-2u), and the same
identity in plain floating point.
"""

from fourpoint.genfunc import GenParams, s_M
from fourpoint.invariant import (InvariantTuple, analytic_invariant_check,
                                 eval_invariant, expected_constant)
from fourpoint.modmath import EvalPoint, FieldElem, Modulus
from fourpoint.oscillator import OscSeed, TableOscillator, eval_index

M = Modulus(257)
SEED = (2, -1, 0, 3, -2, 1, 1, -3)  # K = 4 samples/unit, C = 2 antiperiod
ANCHOR_KEY = b"walkthrough mask key".ljust(32, b".")  # any 32 bytes


def fe(v):
    return FieldElem(v, M)


def main():
    print("== 1. the antiperiodic oscillator ==")
    phi = TableOscillator(OscSeed(SEED, 4, 2), M)
    print(f"seed (one antiperiod, P = {phi.P} indices): {SEED}")
    row = [eval_index(phi, j).value for j in range(-8, 17)]
    print(f"extension over [-8, 17): {row}")
    print(f"index 366 = 45*8 + 6 lands on -seed[6]: "
          f"{eval_index(phi, 366).value} (= -1 mod 257)")
    print(f"sign flip per period: phi(3) = {eval_index(phi, 3).value}, "
          f"phi(3 + 8) = {eval_index(phi, 11).value}")

    print("\n== 2. the masked generating function ==")
    psi = TableOscillator(OscSeed((1, 0, 2, -2, 1, 4, -1, 5), 4, 2), M)
    p = fe(3)
    numer = GenParams(p, fe(12), fe(35), phi, psi, ANCHOR_KEY)
    denom = GenParams(p, fe(7), fe(11), phi, psi, ANCHOR_KEY)
    t = EvalPoint(143, 4, M)  # the rational point 35.75
    print(f"base point t = 143/4, field image {t.img.value}")
    u, v = 2, 5
    points = [("s0 = s(t)", numer, t),
              ("s1 = s(t + 2v+1)", numer, t + (2 * v + 1)),
              ("s2 = s(t + 2u)", denom, t + 2 * u),
              ("s3 = s(t + 2u+2v+1)", denom, t + (2 * u + 2 * v + 1))]
    values = []
    for label, gp, pt in points:
        val = s_M(gp, pt)
        values.append(val)
        print(f"{label:22} = {val.value:3}   (point {pt.n}/4)")

    print("\n== 3. the invariant collapses ==")
    tu = InvariantTuple(*values, t, u, v)
    got = eval_invariant(tu)
    want = expected_constant(p, u)
    print(f"(s0*t + s1*(t+2v+1)) / (s2*(t+2u) + s3*(t+2u+2v+1))"
          f" = {got.value}")
    print(f"p^(-2u) = 3^-4 mod 257 = {want.value}")
    print(f"equal: {got == want}")
    print("the amplitudes (12,35) vs (7,11) differ between numerator and")
    print("denominator, yet cancel pairwise inside each sum")

    print("\n== 4. the same shape over the reals ==")
    ratio = analytic_invariant_check(3.0, 1.5, -2.0, 3, 5, 0.7)
    print(f"p=3, q=(1.5,-2.0), r=(3,5), t=0.7 -> ratio = {ratio:.12f}")
    print(f"1/p^2 = {1 / 9:.12f}, relative error {abs(ratio - 1/9) * 9:.2e}")
    bad = analytic_invariant_check(3.0, 1.5, -2.0, 2, 5, 0.7)
    print(f"even multiplier r1=2 instead -> {bad:.12f} (no collapse)")


if __name__ == "__main__":
    main()
