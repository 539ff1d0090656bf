import pytest
from hypothesis import given, settings, strategies as st

from fourpoint.errors import NonInvertible
from fourpoint.genfunc import GenParams, exp_at, s_M
from fourpoint.modmath import EvalPoint, FieldElem, Modulus, mod_inv, mod_pow
from fourpoint.oscillator import OscSeed, TableOscillator, eval_at

M257 = Modulus(257)


def fe(v):
    return FieldElem(v, M257)


def make_gp(q_i=5, q_j=7, p=3, K=4, C=2):
    phi = TableOscillator(OscSeed((2, -1, 0, 3, -2, 1, 1, -3), K, C), M257)
    psi = TableOscillator(OscSeed((1, 1, 2, -2, 0, 4, -1, 5), K, C), M257)
    return GenParams(fe(p), fe(q_i), fe(q_j), phi, psi, b"\x22" * 32)


class TestConventions:
    def test_prf_mask_is_never_zero(self):
        key = b"\xaa" * 32
        for n in range(-40, 40):
            t = EvalPoint(n, 4, M257)
            assert exp_at(key, fe(3), t).value != 0


class TestExpShiftLaw:
    # p^t must satisfy exp(t + d) = exp(t) * p^d

    @given(n=st.integers(min_value=-10**4, max_value=10**4),
           d=st.integers(min_value=0, max_value=30))
    @settings(max_examples=60)
    def test_prf_masked(self, n, d):
        key = b"\x11" * 32
        t = EvalPoint(n, 4, M257)
        assert exp_at(key, fe(3), t + d) \
            == exp_at(key, fe(3), t) * mod_pow(fe(3), d)


class TestSM:
    def test_formula_composition(self):
        gp = make_gp()
        t = EvalPoint(7, 4, M257)
        want = (exp_at(gp.anchor_key, gp.p, t)
                + gp.q_i * eval_at(gp.phi, t)
                + gp.q_j * eval_at(gp.psi, t)) * mod_inv(t.img)
        assert s_M(gp, t) == want

    def test_singular_point_rejected(self):
        gp = make_gp()
        t = EvalPoint(257, 4, M257)  # 257/4 has field image 0
        assert t.img.value == 0
        with pytest.raises(NonInvertible):
            s_M(gp, t)

    def test_gcd_guard_on_p(self):
        with pytest.raises(NonInvertible):
            make_gp(p=0)

    @pytest.mark.parametrize("part", ["p", "q_i", "q_j", "phi", "psi", "t"])
    def test_mixed_moduli_rejected(self, part):
        M17 = Modulus(17)
        gp, t = make_gp(), EvalPoint(7, 4, M257)
        if part == "t":
            t = EvalPoint(7, 4, M17)
        elif part in ("phi", "psi"):
            osc = TableOscillator(OscSeed(range(8), 4, 2), M17)
            gp = gp._replace(**{part: osc})
        else:
            gp = gp._replace(**{part: FieldElem(getattr(gp, part).value, M17)})
        with pytest.raises(ValueError, match="mixed moduli"):
            s_M(gp, t)

    @given(n=st.integers(min_value=-10**4, max_value=10**4))
    @settings(max_examples=60)
    def test_defined_everywhere_else(self, n):
        gp = make_gp()
        t = EvalPoint(n, 4, M257)
        if t.img.value == 0:
            with pytest.raises(NonInvertible):
                s_M(gp, t)
        else:
            s_M(gp, t)  # must not raise
