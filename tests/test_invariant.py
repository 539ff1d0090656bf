import random

import pytest
from hypothesis import given, settings, strategies as st

from fourpoint.errors import NonInvertible
from fourpoint.genfunc import reference_view, s_M
from fourpoint.harness import new_game
from fourpoint.invariant import (InvariantTuple, analytic_invariant_check,
                                 check_denominator, enumerate_fiber,
                                 eval_invariant, expected_constant, recover_v,
                                 recovery_map)
from fourpoint.modmath import EvalPoint, FieldElem, Modulus, mod_inv, mod_pow
from fourpoint.protocol import PRODUCTION, TOY

from conftest import honest_tuple

M257 = Modulus(257)


def fe(v):
    return FieldElem(v, M257)


class TestModularIdentity:
    def test_sessions_hit_the_constant(self, session_factory):
        rng = random.Random(11)
        done = 0
        while done < 50:
            ref = reference_view(session_factory(TOY))
            u, v = rng.randrange(1, 50), rng.randrange(0, 50)
            try:
                tu = honest_tuple(ref, u, v)
                got = eval_invariant(tu)
            except NonInvertible:
                continue  # singular draw; protocol retries these
            assert got == expected_constant(ref.p, u)
            done += 1

    def test_base_case_is_inverse_p_squared(self, session_factory):
        done = 0
        while done < 20:
            ref = reference_view(session_factory(TOY))
            try:
                got = eval_invariant(honest_tuple(ref, 1, 0))
            except NonInvertible:
                continue  # singular draw, as above
            assert got == mod_inv(ref.p * ref.p)
            done += 1

    def test_singular_denominator_raised(self):
        t = EvalPoint(7, 4, M257)
        tu = InvariantTuple(fe(1), fe(1), fe(0), fe(0), t, 1, 0)
        with pytest.raises(NonInvertible):
            eval_invariant(tu)

    def test_repr_prints_only_u(self):
        # the tuple selftest's invariant suite builds for a production
        # game: at 256 bits no secret residue shows up by chance
        game = new_game(PRODUCTION, random.Random(5))
        hid, msg = game.hidden, game.transcript
        ref = reference_view(hid.session)
        s0, s2 = game.s0_s2(ref)
        tu = InvariantTuple(s0, msg.s1, s2, msg.s3, ref.t, msg.u, hid.v)
        assert repr(tu) == str(tu) == f"InvariantTuple(u={msg.u})"
        for secret in (s0.value, s2.value, hid.v):
            assert str(secret) not in repr(tu)


class TestExpectedConstant:
    def test_frozen_values(self):
        # p = 3, u = 1: (3^2)^-1 = 9^-1 = 200
        assert expected_constant(fe(3), 1).value == 200
        assert expected_constant(fe(3), 2) == mod_inv(mod_pow(fe(3), 4))

    @given(p=st.integers(min_value=1, max_value=256),
           u=st.integers(min_value=1, max_value=100))
    def test_matches_direct_inverse(self, p, u):
        assert expected_constant(fe(p), u) \
            == mod_inv(mod_pow(fe(p), 2 * u))


class TestRecoverV:
    def test_roundtrip_on_honest_tuples(self, session_factory):
        rng = random.Random(23)
        done = 0
        while done < 50:
            ref = reference_view(session_factory(TOY))
            u, v = rng.randrange(1, 30), rng.randrange(0, 120)
            try:
                tu = honest_tuple(ref, u, v)
            except NonInvertible:
                continue  # singular draw, as above
            got = recover_v(tu.s0, tu.s1, tu.s2, tu.s3, ref.t.img, u, ref.p)
            assert got.value == v
            done += 1

    def test_blocked_denominator(self):
        # s1*p^2u == s3 makes the recovery denominator vanish
        p, u = fe(3), 1
        s1 = fe(7)
        s3 = s1 * mod_pow(p, 2 * u)
        assert not check_denominator(s1, s3, p, u)
        with pytest.raises(NonInvertible):
            recover_v(fe(1), s1, fe(2), s3, fe(5), u, p)

    def test_negative_u_refused(self):
        # the exponent 2u must be nonnegative, as mod_pow requires
        s0, s1, s2, s3, t_img, p = fe(1), fe(7), fe(2), fe(8), fe(5), fe(3)
        with pytest.raises(ValueError, match="nonnegative"):
            recovery_map(s0, s1, s2, t_img, -1, p)
        with pytest.raises(ValueError, match="nonnegative"):
            recover_v(s0, s1, s2, s3, t_img, -1, p)
        assert recover_v(s0, s1, s2, s3, t_img, 0, p).value \
            == (-5 - 7 * 6 + 2 * 5 + 6 * 8) * pow(2 * (7 - 8), -1, 257) % 257

    @pytest.mark.parametrize("M", [257, (1 << 256) - (1 << 32) - 977])
    def test_recovery_map_returns_residues(self, M):
        mod, rng = Modulus(M), random.Random(M)
        for _ in range(200):
            s0, s1, s2, t_img, p = (FieldElem(rng.randrange(M), mod)
                                    for _ in range(5))
            u = rng.randrange(1 << 32)
            assert all(0 <= x < M
                       for x in recovery_map(s0, s1, s2, t_img, u, p))

    def test_open_denominator(self):
        assert check_denominator(fe(7), fe(8), fe(3), 1)


class TestFiber:
    def test_small_fiber_constant(self, session_factory):
        sess = session_factory(TOY)
        u = 3
        pairs = enumerate_fiber(sess, u, range(5))
        assert len(pairs) == 5
        ref = reference_view(sess)
        want = expected_constant(ref.p, u)
        t = ref.t
        for v, (s1, s3) in zip(range(5), pairs):
            s0 = s_M(ref.numer, t)
            s2 = s_M(ref.denom, t + 2 * u)
            tu = InvariantTuple(s0, s1, s2, s3, t, u, v)
            assert eval_invariant(tu) == want

    def test_pairs_are_distinct_generically(self, session_factory):
        sess = session_factory(TOY)
        pairs = enumerate_fiber(sess, 2, range(8))
        assert len(set(pairs)) > 1


class TestAnalyticCheck:
    def test_pure_exponential(self):
        assert analytic_invariant_check(2.0, 0.0, 0.0, 1, 1, 1.0) == 0.25

    def test_worked_example(self):
        got = analytic_invariant_check(3.0, 1.5, -2.0, 3, 5, 0.7)
        assert abs(got - 1 / 9) / (1 / 9) < 1e-9

    def test_excluded_points(self):
        for t in (0.0, -1.0, -2.0, -3.0):
            with pytest.raises(ValueError, match="makes point"):
                analytic_invariant_check(2.0, 1.0, 1.0, 3, 5, t)

    def test_nonpositive_p(self):
        with pytest.raises(ValueError):
            analytic_invariant_check(0.0, 1.0, 1.0, 3, 5, 0.5)

    def test_even_r1_breaks_the_identity(self):
        got = analytic_invariant_check(2.0, 3.0, 1.0, 2, 5, 0.3)
        assert abs(got - 0.25) / 0.25 > 1e-3

    @given(p=st.floats(min_value=0.5, max_value=4.0),
           q1=st.floats(min_value=-10, max_value=10),
           q2=st.floats(min_value=-10, max_value=10),
           r1=st.integers(min_value=0, max_value=9),
           r2=st.integers(min_value=0, max_value=9),
           t=st.floats(min_value=-20, max_value=20))
    @settings(max_examples=150)
    def test_odd_multipliers_within_tolerance(self, p, q1, q2, r1, r2, t):
        r1, r2 = 2 * r1 + 1, 2 * r2 + 1
        if any(abs(t + k) < 1e-9 for k in range(4)):
            return
        got = analytic_invariant_check(p, q1, q2, r1, r2, t)
        assert abs(got - p ** -2) / p ** -2 < 1e-9
