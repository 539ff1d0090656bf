import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from fourpoint.modmath import PRODUCTION_PRIME, EvalPoint, Modulus
from fourpoint.oscillator import (OscSeed, PrfOscillator, TableOscillator,
                                  eval_arg, eval_at, eval_index, generate,
                                  index_value)
from fourpoint.prf import _prf_value, anchor_value, session_values

from oracles import unrolled_oscillator

M257 = Modulus(257)

# the worked K=4, C=2 seed: one full antiperiod of eight values
WALKTHROUGH = (2, -1, 0, 3, -2, 1, 1, -3)


def walkthrough_osc():
    return TableOscillator(OscSeed(WALKTHROUGH, 4, 2), M257)


class TestSeedValidation:
    def test_length_must_be_K_times_C(self):
        with pytest.raises(ValueError):
            OscSeed((1, 2, 3), 2, 2)

    def test_K_and_C_must_be_at_least_1(self):
        for K, C in ((0, 2), (2, 0), (-1, -1)):
            with pytest.raises(ValueError, match="K and C"):
                OscSeed((), K, C)

    def test_table_cap(self):
        seed = OscSeed(tuple(range(4)), 2, 2)
        assert TableOscillator(seed, M257).P == 4


class TestWalkthroughFixture:
    def test_one_period_matches_seed(self):
        osc = walkthrough_osc()
        for j, raw in enumerate(WALKTHROUGH):
            assert eval_index(osc, j).value == raw % 257

    def test_index_366(self):
        # 366 = 45*8 + 6: odd block count flips the sign of seed[6] = 1
        assert eval_index(walkthrough_osc(), 366).value == 256

    def test_against_unrolled_oracle(self):
        osc = walkthrough_osc()
        table = unrolled_oscillator(WALKTHROUGH, 257, -2 * osc.P, 2 * osc.P)
        for j, want in table.items():
            assert eval_index(osc, j).value == want, f"index {j}"

    def test_negative_index(self):
        osc = walkthrough_osc()
        assert eval_index(osc, -2).value == 256  # -seed[6] = -1
        assert eval_index(osc, -8) == -eval_index(osc, 0)


class TestAntiperiodicity:
    @given(j=st.integers(min_value=-10**9, max_value=10**9))
    def test_index_antiperiod(self, j):
        osc = walkthrough_osc()
        assert eval_index(osc, j + osc.P) == -eval_index(osc, j)
        assert eval_index(osc, j + 2 * osc.P) == eval_index(osc, j)

    @given(n=st.integers(min_value=-10**6, max_value=10**6),
           C=st.integers(min_value=2, max_value=16))
    @settings(max_examples=60)
    def test_arg_antiperiod_any_C(self, n, C):
        # in its own argument the antiperiod is C, for every C
        osc = generate(b"secret", b"\x00" * 32, "phi", 5, C, M257)
        x = EvalPoint(n, 5, M257)
        assert eval_arg(osc, x + C) == -eval_arg(osc, x)

    @given(n=st.integers(min_value=-10**6, max_value=10**6))
    def test_eval_at_unit_antiperiod(self, n):
        # composed with the C*t argument map, one whole t-step flips sign
        osc = walkthrough_osc()
        t = EvalPoint(n, 4, M257)
        assert eval_at(osc, t + 1) == -eval_at(osc, t)

    def test_grid_mismatch_rejected(self):
        osc = walkthrough_osc()
        with pytest.raises(ValueError):
            eval_arg(osc, EvalPoint(1, 5, M257))
        with pytest.raises(ValueError):
            eval_at(osc, EvalPoint(1, 5, M257))


class TestModeEquivalence:
    def test_prf_equals_its_table(self):
        prf = PrfOscillator(b"\x07" * 32, 6, 5, M257)
        tab = TableOscillator(
            OscSeed([prf.seed_value(m) for m in range(prf.P)], 6, 5), M257)
        for j in range(-2 * prf.P, 2 * prf.P):
            assert eval_index(prf, j) == eval_index(tab, j)

    def test_interleaved_seed_reads_match_a_fresh_hash(self):
        # PrfOscillator keeps no value: each read hashes again
        rng = random.Random(2)
        osc = PrfOscillator(rng.randbytes(32), 4, 8, M257)
        reads = [0, 0, 5, 5, 0, 31, 5] + [rng.randrange(32) for _ in range(200)]
        for m in reads:
            assert osc.seed_value(m) == _prf_value(osc.key, m, M257.M)
        table = TableOscillator(
            OscSeed([osc.seed_value(m) for m in range(osc.P)], 4, 8), M257)
        assert table.table == tuple(_prf_value(osc.key, m, M257.M)
                                    for m in range(osc.P))
        for m in (31, 0, 31):
            assert osc.seed_value(m) == _prf_value(osc.key, m, M257.M)

    def test_generate_is_on_demand_at_every_size(self):
        small = generate(b"s", b"\x01" * 32, "phi", 8, 8, M257)
        big = generate(b"s", b"\x01" * 32, "phi", 257, 256, M257)
        assert isinstance(small, PrfOscillator)
        assert isinstance(big, PrfOscillator)

    def test_phi_psi_streams_differ(self):
        phi = generate(b"s", b"\x02" * 32, "phi", 8, 4, M257)
        psi = generate(b"s", b"\x02" * 32, "psi", 8, 4, M257)
        assert any(eval_index(phi, j) != eval_index(psi, j)
                   for j in range(phi.P))

    def test_bad_label(self):
        with pytest.raises(ValueError):
            generate(b"s", b"\x00" * 32, "chi", 4, 2, M257)

    def test_generate_is_deterministic(self):
        a = generate(b"s", b"\x03" * 32, "phi", 9, 3, M257)
        b = generate(b"s", b"\x03" * 32, "phi", 9, 3, M257)
        assert [eval_index(a, j) for j in range(a.P)] \
            == [eval_index(b, j) for j in range(b.P)]


class TestRawValues:
    @given(n=st.integers(min_value=-10**6, max_value=10**6),
           K=st.integers(min_value=2, max_value=64),
           C=st.integers(min_value=2, max_value=64))
    @settings(max_examples=60)
    def test_session_values_are_the_generated_oscillators(self, n, K, C):
        # both block parities occur, so the sign rule is compared too
        S, z = b"secret", bytes(range(32))
        assert session_values(S, z, K, C, n, M257.M) == (
            index_value(generate(S, z, "phi", K, C, M257), C * n),
            index_value(generate(S, z, "psi", K, C, M257), C * n))

    def test_interleaved_anchor_reads_match_a_fresh_hash(self):
        # nor does anchor_value: each read hashes again, under any M
        rng = random.Random(3)
        key = rng.randbytes(32)
        reads = [(1, 4, 0), (1, 4, 0), (1, 4, 1), (2, 4, 1), (2, 5, 1),
                 (1, 4, 0), (1, 4, 2), (1, 4, 2)]
        reads += [(rng.randrange(1, 3), rng.randrange(3, 5), rng.randrange(3))
                  for _ in range(200)]
        for i, K, which in reads:
            M = (17, M257.M, PRODUCTION_PRIME)[which]
            digest = hashlib.sha3_256(key + i.to_bytes(48, "big")
                                      + K.to_bytes(48, "big")).digest()
            assert anchor_value(key, i, K, M) \
                == int.from_bytes(digest, "big") % (M - 1) + 1
