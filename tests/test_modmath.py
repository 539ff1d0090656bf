import copy
import hashlib
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from fourpoint import modmath, protocol
from fourpoint.errors import NonInvertible
from fourpoint.modmath import (WHITELISTED_MODULI, EvalPoint, FieldElem,
                               Modulus, is_probable_prime, mod_inv, mod_pow,
                               xgcd)
from fourpoint.protocol import PRODUCTION_PRIME

from oracles import exhaustive_inverse, naive_pow, trial_division_is_prime

M257 = Modulus(257)
M17 = Modulus(17)

residues_257 = st.integers(min_value=0, max_value=256)
nonzero_257 = st.integers(min_value=1, max_value=256)


def fe(v, mod=M257):
    return FieldElem(v, mod)


def strong_liar(a, n):
    """True iff base a fails to witness that odd n is composite."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 1 << r, n) == n - 1
                                  for r in range(1, s))


SPSP_2357 = 3215031751  # 151 * 751 * 28351


class TestIsProbablePrime:
    def test_small_values(self):
        for n in range(-5, 500):
            assert is_probable_prime(n) == trial_division_is_prime(n), n

    def test_carmichael_numbers(self):
        # Fermat-liar composites; Miller-Rabin must still reject them.
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(n)

    def test_production_prime(self):
        assert is_probable_prime(PRODUCTION_PRIME)
        assert not is_probable_prime(PRODUCTION_PRIME + 2)

    def test_whitelisted_moduli_are_prime(self):
        # Modulus skips the randomized test for these, so check them here
        assert PRODUCTION_PRIME in WHITELISTED_MODULI
        for n in WHITELISTED_MODULI:
            assert is_probable_prime(n), n
            if n < 1 << 16:
                assert trial_division_is_prime(n), n

    def test_rejects_strong_pseudoprime_to_small_bases(self):
        assert SPSP_2357 == 151 * 751 * 28351
        assert all(strong_liar(a, SPSP_2357) for a in (2, 3, 5, 7))
        assert not is_probable_prime(SPSP_2357)

    def test_global_random_state_untouched(self):
        state = random.getstate()
        assert is_probable_prime(PRODUCTION_PRIME)
        assert not is_probable_prime(SPSP_2357)
        assert random.getstate() == state

    def test_verdict_repeats(self):
        # about 27% of bases are strong liars for SPSP_2357, so one random
        # round per call would give both verdicts over 50 calls
        assert len({is_probable_prime(SPSP_2357, rounds=1)
                    for _ in range(50)}) == 1

    def test_one_round_is_the_strong_test_to_its_hashed_base(self):
        # rounds=1 exposes the one base, drawn from (n, 0), for every odd n
        for n in range(5, 1 << 14, 2):
            digest = hashlib.sha3_256(b"%x:%x" % (n, 0)).digest()
            a = int.from_bytes(digest, "big") % (n - 3) + 2
            assert is_probable_prime(n, rounds=1) == strong_liar(a, n), n

    def test_even_numbers_never_reach_a_round(self):
        # a round assumes odd n: 28 passes round 0 (its base 25 has
        # 25^27 = 1 mod 28), so evenness is tested first
        for n in range(4, 1 << 14, 2):
            assert not is_probable_prime(n, rounds=1), n

    def test_whitelist_short_circuits(self, monkeypatch):
        def refuse(n, rounds=modmath.MILLER_RABIN_ROUNDS):
            raise AssertionError(f"Miller-Rabin ran on {n}")
        monkeypatch.setattr(modmath, "is_probable_prime", refuse)
        for n in WHITELISTED_MODULI:
            assert Modulus(n).M == n
        with pytest.raises(AssertionError):
            Modulus(101)


class TestModulus:
    def test_accepts_primes(self):
        assert Modulus(257).M == 257
        assert Modulus(101).M == 101
        assert Modulus(PRODUCTION_PRIME).M == PRODUCTION_PRIME

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            Modulus(9)
        with pytest.raises(ValueError):
            Modulus(561)

    def test_rejects_tiny(self):
        for bad in (-7, 0, 1, 2):
            with pytest.raises(ValueError):
                Modulus(bad)

    def test_immutable_and_equal_by_value(self):
        m = Modulus(257)
        for mutate in (lambda: setattr(m, "M", 17), lambda: delattr(m, "M"),
                       lambda: setattr(m, "extra", 1)):
            with pytest.raises(AttributeError):
                mutate()
        assert m.M == 257
        assert m == Modulus(257) and hash(m) == hash(Modulus(257))
        assert m != Modulus(17) and m != 257
        assert pickle.loads(pickle.dumps(m)) == m
        assert copy.deepcopy(m) == m
        assert m == (257,) and repr(m) == "Modulus(M=257)"  # a NamedTuple
        assert Modulus._make([257]) == m and m._replace(M=17) == M17

    def test_copies_and_replace_run_the_checks(self, monkeypatch):
        for bad in (2, 9):
            with pytest.raises(ValueError):
                M257._replace(M=bad)
            with pytest.raises(ValueError):
                Modulus._make([bad])
        m = Modulus(101)
        def refuse(n, rounds=modmath.MILLER_RABIN_ROUNDS):
            raise AssertionError(f"Miller-Rabin ran on {n}")
        monkeypatch.setattr(modmath, "is_probable_prime", refuse)
        for rebuild in (lambda: pickle.loads(pickle.dumps(m)),
                        lambda: copy.deepcopy(m), lambda: copy.copy(m),
                        lambda: Modulus._make([101]),
                        lambda: M257._replace(M=101)):
            with pytest.raises(AssertionError):
                rebuild()

    def test_too_wide_refused_before_the_primality_test(self, monkeypatch):
        # every way of building a Modulus refuses a value wider than the
        # 32-byte wire fields at once: one Miller-Rabin round on a
        # 4000-digit value takes seconds
        def refuse(n, rounds=modmath.MILLER_RABIN_ROUNDS):
            raise AssertionError(f"Miller-Rabin ran on {n}")
        monkeypatch.setattr(modmath, "is_probable_prime", refuse)
        too_wide = "^modulus too wide for the 32-byte wire fields$"
        for M in (1 << 256, (1 << 256) + 297, 10 ** 3999 + 1):
            for build in (Modulus, lambda M: Modulus._make([M]),
                          lambda M: M257._replace(M=M)):
                with pytest.raises(ValueError, match=too_wide):
                    build(M)
        unchecked = tuple.__new__(Modulus, ((1 << 256) + 297,))
        with pytest.raises(ValueError, match=too_wide):
            pickle.loads(pickle.dumps(unchecked))
        assert Modulus(PRODUCTION_PRIME).M == PRODUCTION_PRIME
        monkeypatch.undo()
        widest = (1 << 256) - 189  # the largest 256-bit prime
        assert Modulus(widest).M == widest
        assert modmath.MODULUS_BITS == 8 * protocol._FIELD_WIDTH == 256
        assert protocol.MESSAGE_LEN == 132


class TestFieldElem:
    def test_canonicalization(self):
        assert fe(257).value == 0
        assert fe(-1).value == 256
        assert fe(515).value == 1

    def test_arithmetic(self):
        assert (fe(200) + fe(100)).value == 43
        assert (fe(3) - fe(5)).value == 255
        assert (fe(16) * fe(17)).value == 272 % 257
        assert (-fe(1)).value == 256
        assert (fe(200) + 100).value == 43  # int coercion
        assert 5 - fe(3) == fe(2) and (1 - fe(3)).value == 255
        assert fe(3).__rsub__("5") is NotImplemented
        with pytest.raises(TypeError):
            "5" - fe(3)

    def test_int(self):
        assert int(fe(300)) == 43
        assert int(fe(-1)) == 256

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            fe(1) + FieldElem(1, M17)

    def test_pow(self):
        assert (fe(3) ** 2).value == 9
        assert (fe(3) ** 0).value == 1
        assert (fe(4) ** -1).value == exhaustive_inverse(4, 257)
        with pytest.raises(NonInvertible):
            fe(0) ** -1

    @given(a=residues_257, b=residues_257)
    def test_commutativity(self, a, b):
        assert fe(a) + fe(b) == fe(b) + fe(a)
        assert fe(a) * fe(b) == fe(b) * fe(a)


class TestXgcd:
    @given(a=st.integers(min_value=-10**9, max_value=10**9),
           b=st.integers(min_value=-10**9, max_value=10**9))
    def test_bezout_identity(self, a, b):
        g, x, y = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


class TestModInv:
    def test_frozen_inverses(self):
        # 143^-1 = 133: 143*133 = 19019 = 74*257 + 1
        assert mod_inv(fe(143)).value == 133
        assert mod_inv(fe(4)).value == 193
        assert mod_inv(fe(9)).value == 200
        assert mod_inv(fe(100)).value == 18

    def test_against_exhaustive_oracle(self):
        for a in (143, 4, 9, 100, 1, 256):
            assert mod_inv(fe(a)).value == exhaustive_inverse(a, 257)

    def test_zero_not_invertible(self):
        with pytest.raises(NonInvertible):
            mod_inv(fe(0))

    @given(a=nonzero_257)
    def test_inverse_roundtrip(self, a):
        inv = mod_inv(fe(a))
        assert (fe(a) * inv).value == 1
        assert mod_inv(inv).value == a


class TestModPow:
    def test_frozen_powers(self):
        # the two exponent pieces of the x = 35.75 walkthrough
        assert mod_pow(fe(3), 64).value == 241
        assert mod_pow(fe(3), 35).value == 186

    def test_against_naive_oracle(self):
        for base, exp in ((3, 64), (3, 35), (2, 100), (256, 7)):
            assert mod_pow(fe(base), exp).value == naive_pow(base, exp, 257)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            mod_pow(fe(3), -1)

    @given(base=residues_257, e1=st.integers(min_value=0, max_value=200),
           e2=st.integers(min_value=0, max_value=200))
    def test_exponent_addition(self, base, e1, e2):
        assert mod_pow(fe(base), e1) * mod_pow(fe(base), e2) \
            == mod_pow(fe(base), e1 + e2)

    @given(base=residues_257, exp=st.integers(min_value=0, max_value=60))
    def test_matches_naive(self, base, exp):
        assert mod_pow(fe(base), exp).value == naive_pow(base, exp, 257)


class TestEvalPoint:
    def test_image_is_n_over_K(self):
        # 3/4 = 3 * 4^-1 = 3 * 193 = 579 = 2*257 + 65
        assert EvalPoint(3, 4, M257).img.value == 65
        assert EvalPoint(20, 4, M257).img.value == 5
        # 35.75 = 143/4 -> 143 * 193 mod 257
        assert EvalPoint(143, 4, M257).img.value == 100

    @given(n=st.integers(min_value=-10**5, max_value=10**5),
           K=st.integers(min_value=1, max_value=600))
    def test_image_clears_denominator(self, n, K):
        if K % 257 == 0:
            return
        assert (EvalPoint(n, K, M257).img * K).value == n % 257

    def test_floor_and_frac(self):
        t = EvalPoint(143, 4, M257)
        assert t.floor() == 35
        assert t.frac_num() == 3
        neg = EvalPoint(-3, 4, M257)
        assert neg.floor() == -1  # Euclidean floor, not truncation
        assert neg.frac_num() == 1

    def test_shift_moves_whole_units(self):
        t = EvalPoint(143, 4, M257)
        assert (t + 2).n == 151
        assert (t + 2).img == t.img + 2
        assert (t + -36).floor() == -1

    def test_equal_points_hash_equal(self):
        a, b = EvalPoint(143, 4, M257), EvalPoint(135, 4, M257) + 2
        assert a == b and hash(a) == hash(b)
        table = {a: "t"}
        assert table[b] == "t"
        assert EvalPoint(143, 4, M17) not in table
        assert EvalPoint(144, 4, M257) not in table

    def test_non_coprime_grid_rejected(self):
        with pytest.raises(NonInvertible):
            EvalPoint(1, 257, M257)
        with pytest.raises(NonInvertible):
            EvalPoint(36, 34, M17)

    @given(n=st.integers(min_value=-10**6, max_value=10**6),
           a=st.integers(min_value=-50, max_value=50),
           b=st.integers(min_value=-50, max_value=50))
    @settings(max_examples=50)
    def test_shift_composes(self, n, a, b):
        t = EvalPoint(n, 4, M257)
        assert (t + a) + b == t + (a + b)
        assert 0 <= t.frac_num() < 4
        assert t.floor() * 4 + t.frac_num() == t.n
