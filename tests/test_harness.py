import builtins
import os
from pathlib import Path
import random
import subprocess
import sys

import pytest

import fourpoint
from fourpoint import harness
from fourpoint.errors import (AbortSingular, FieldOverflow, NonInvertible,
                              ProtocolAbort, VerificationError)
from fourpoint.genfunc import reference_view, s_M
from fourpoint.harness import (AdversaryView, Forgery, adjudicate, emit_csv,
                               lemma1_exhaustive, lemma2_reuse_experiment,
                               new_game, random_adversary,
                               run_random_adversary, wilson_interval)
from fourpoint.invariant import recover_v, recovery_map
from fourpoint.modmath import FieldElem, Modulus
from fourpoint.protocol import (CHECK_V_BOUND, MINI, NONCE_TRIES, PRODUCTION,
                                TOY, compute_check, derive_session, receive,
                                serialize)

SRC = str(Path(fourpoint.__file__).resolve().parent.parent)


def reference_adjudicate(game, forgery):
    """The win condition from the definition: s_M for s0 and s2, and
    recover_v at s* in place of s3."""
    sess, msg, v = game.hidden.session, game.transcript, game.hidden.v
    u = msg.u
    if forgery.delta_star in (2 * v + 1, 2 * u + 2 * v + 1):
        return False
    if not 0 <= forgery.s_star < sess.profile.mod.M:  # not a wire value
        return False
    ref = reference_view(sess)
    s0 = s_M(ref.numer, ref.t)
    s2 = s_M(ref.denom, ref.t + 2 * u)
    s_star = FieldElem(forgery.s_star, sess.profile.mod)
    try:
        v_star = recover_v(s0, msg.s1, s2, s_star, ref.t.img, u,
                           ref.p).value
    except NonInvertible:
        return False
    if v_star >= CHECK_V_BOUND:
        return False
    return compute_check(sess.S, v_star, msg.s1.value, s_star.value, u,
                         msg.z) == msg.h_check


def s_star_recovering(game, V):
    """The s* whose reference recovery is exactly V."""
    ref, msg = reference_view(game.hidden.session), game.transcript
    s0, s2 = game.s0_s2(ref)
    a, c, e = recovery_map(s0, msg.s1, s2, ref.t.img, msg.u, ref.p)
    M = ref.p.mod.M
    return (2 * V * e - a) * pow(c + 2 * V, -1, M) % M


class TestGame:
    def test_gives_up_after_nonce_tries(self, monkeypatch):
        # a profile on which every draw aborts must end, not loop; past
        # ten times the cap the patch stops the loop with another error
        calls = []

        def always_aborts(S, z, profile, offsets):
            calls.append(z)
            if len(calls) > 10 * NONCE_TRIES:
                raise RuntimeError("new_game kept drawing")
            raise AbortSingular(f"draw {len(calls)}")
        monkeypatch.setattr(harness, "derive_session", always_aborts)
        with pytest.raises(ProtocolAbort, match=f"^draw {NONCE_TRIES}$"):
            new_game(TOY, random.Random(0))
        assert len(calls) == NONCE_TRIES

    def test_view_hides_the_witness(self):
        game = new_game(TOY, random.Random(1))
        view = game.view()
        assert isinstance(view, AdversaryView)
        assert set(view._fields) \
            == {"s1", "s3", "u", "z", "h_check", "M"}

    def test_repr_hides_the_payload(self):
        for seed in range(1, 40):
            game = new_game(TOY, random.Random(seed))
            hid = game.hidden
            assert repr(hid) == f"_Hidden(session={hid.session!r})"
            assert f"hidden={hid!r}, aborts=" in repr(game) == str(game)
        # seed 1 hides v = 249, which no public part of its game spells
        game = new_game(TOY, random.Random(1))
        assert game.hidden.v == 249 and "249" not in repr(game)
        # nor the recovery map or the reference values, which derive
        # from the secret: at 256 bits no residue shows up by chance
        game = new_game(PRODUCTION, random.Random(1))
        hid = game.hidden
        s0, s2 = game.s0_s2(reference_view(hid.session))
        for secret in (*hid.rmap, s0.value, s2.value, hid.v):
            assert str(secret) not in repr(game)

    def test_replaying_s3_with_excluded_offset_does_not_count(self):
        game = new_game(TOY, random.Random(2))
        view = game.view()
        # the honest offsets are excluded from the win condition outright
        hid_v = game.hidden.v
        for delta in (2 * hid_v + 1, 2 * game.transcript.u + 2 * hid_v + 1):
            assert not adjudicate(game, Forgery(view.s3, delta))

    def test_s3_with_fresh_offset_wins(self):
        # the recovery uses only s*, so the honest s3 wins at any
        # non-excluded offset; this is exactly the 1/M baseline leak
        game = new_game(TOY, random.Random(3))
        view = game.view()
        hid_v = game.hidden.v
        delta = 5
        if delta in (2 * hid_v + 1, 2 * game.transcript.u + 2 * hid_v + 1):
            delta = 7
        assert adjudicate(game, Forgery(view.s3, delta))

    def test_wrong_s_star_loses(self):
        game = new_game(TOY, random.Random(4))
        view = game.view()
        wrong = (view.s3 + 1) % view.M
        assert not adjudicate(game, Forgery(wrong, 5))

    @pytest.mark.parametrize("profile", [TOY, PRODUCTION],
                             ids=lambda p: p.name)
    def test_s_star_outside_the_field_loses(self, profile):
        # s3 + k*M recovers the honest v mod M, but deserialize refuses
        # it as FieldOverflow, so it is no forgery
        M = profile.mod.M
        for seed in range(6, 10):
            game = new_game(profile, random.Random(seed))
            s3 = game.transcript.s3.value
            delta = 2  # even, so never an honest offset
            assert adjudicate(game, Forgery(s3, delta))
            for s_star in (s3 + M, s3 - M, s3 + 5 * M, M, -1):
                assert not adjudicate(game, Forgery(s_star, delta)), s_star
                assert not reference_adjudicate(game, Forgery(s_star, delta))

    def test_honest_s3_at_the_field_ends_wins(self):
        # on mini the honest s3 is 0 or M - 1 often enough to find both;
        # one step past either end loses
        M = MINI.mod.M
        ends = {}
        for seed in range(400):
            game = new_game(MINI, random.Random(seed))
            ends.setdefault(game.transcript.s3.value, game)
        for s3, past in ((0, -1), (M - 1, M)):
            assert adjudicate(ends[s3], Forgery(s3, 2))
            assert not adjudicate(ends[s3], Forgery(past, 2))
            assert not adjudicate(ends[s3], Forgery(s3 + M, 2))

    def test_recovery_at_the_check_encoding_bound_loses(self):
        # s* = (2V*e - a) / (c + 2V) recovers exactly V = 2^64, which the
        # 8-byte check encoding cannot hold: the forgery loses, no raise
        game = new_game(PRODUCTION, random.Random(5))
        hid, msg = game.hidden, game.transcript
        s_star = s_star_recovering(game, CHECK_V_BOUND)
        ref = reference_view(hid.session)
        rest = (ref.t.img, msg.u, ref.p)
        s0, s2 = game.s0_s2(ref)
        assert recover_v(s0, msg.s1, s2, FieldElem(
            s_star, PRODUCTION.mod), *rest).value == CHECK_V_BOUND
        assert not adjudicate(game, Forgery(s_star, 5))


class TestAdjudicateOnTheRecoveryMap:
    @pytest.mark.parametrize("profile, seed, games",
                             [(MINI, 41, 60), (TOY, 42, 60),
                              (PRODUCTION, 43, 4)])
    def test_same_decision_as_the_reference(self, profile, seed, games):
        M = profile.mod.M
        rng = random.Random(seed)
        wins = losses = 0
        for _ in range(games):
            game = new_game(profile, rng)
            msg, v = game.transcript, game.hidden.v
            s3, u = msg.s3.value, msg.u
            e = game.hidden.rmap[2]
            assert e == msg.s1.value * pow(game.hidden.session.base,
                                           2 * u, M) % M
            s_stars = [s3, e, (s3 + 1) % M,
                       *(rng.randrange(M) for _ in range(4))]
            if profile is PRODUCTION:
                s_stars += [s_star_recovering(game, CHECK_V_BOUND),
                            s_star_recovering(game, 3 << 70)]
            for s_star in s_stars:
                # the honest offsets are odd, so an even one is fresh
                for delta in (2 * v + 1, 2 * u + 2 * v + 1, 2):
                    forgery = Forgery(s_star, delta)
                    won = adjudicate(game, forgery)
                    assert won == reference_adjudicate(game, forgery)
                    wins += won
                    losses += not won
        # the honest s3 at the fresh offset wins every game
        assert wins >= games and losses

    @pytest.mark.parametrize("profile, seed, games",
                             [(MINI, 51, 40), (TOY, 52, 40),
                              (PRODUCTION, 53, 4)])
    def test_same_decision_as_the_receiver(self, profile, seed, games):
        # the forgery wins exactly when protocol.receive accepts the
        # transcript with s* in place of s3, and by Lemma 1 only s3 does;
        # M itself is the first value the field refuses
        M = profile.mod.M
        rng = random.Random(seed)
        for _ in range(games):
            game = new_game(profile, rng)
            S, msg = game.hidden.session.S, game.transcript
            s3, e = msg.s3.value, game.hidden.rmap[2]
            s_stars = [s3, e, (s3 + 1) % M, (s3 - 1) % M, 0, M - 1, M,
                       rng.randrange(M)]
            if profile is PRODUCTION:
                s_stars.append(s_star_recovering(game, CHECK_V_BOUND))
            blob = serialize(msg)
            for s_star in s_stars:
                forged = blob[:32] + s_star.to_bytes(32, "big") + blob[64:]
                try:
                    receive(S, forged, profile)
                    accepted = True
                except (VerificationError, FieldOverflow):
                    accepted = False
                won = adjudicate(game, Forgery(s_star, 2))
                assert won is accepted is (s_star == s3), (s_star, s3)

    def test_a_map_one_residue_off_fails_the_sweep(self):
        game = new_game(TOY, random.Random(44))
        assert lemma1_exhaustive(game)[0] == 1
        for k in range(3):
            rmap = list(game.hidden.rmap)
            rmap[k] += 1
            bad = game._replace(hidden=game.hidden._replace(rmap=tuple(rmap)))
            with pytest.raises(AssertionError, match="reference"):
                lemma1_exhaustive(bad)

    def test_the_sweep_checks_the_map_under_python_O(self):
        # python -O strips assert statements; the sweep raises instead
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        code = ("import random; from fourpoint.harness import *; "
                "from fourpoint.protocol import TOY; "
                "g = new_game(TOY, random.Random(44)); h = g.hidden; "
                "r = (h.rmap[0] + 1, *h.rmap[1:]); "
                "lemma1_exhaustive(g._replace(hidden=h._replace(rmap=r)))")
        run = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 1
        assert "AssertionError: the receiver's recovery map" in run.stderr

    def test_no_reference_work_per_game(self, monkeypatch):
        calls = []
        real_pow = builtins.pow

        def counting_pow(base, exp, mod=None):
            calls.append(exp)
            return real_pow(base, exp, mod)

        def unreachable(*args):
            raise AssertionError("s_M called")

        def budget(fn, *args):
            """fn's result, its pow exponents over 65 bits and 1 to 65
            bits, and its inverses."""
            calls.clear()
            monkeypatch.setattr(builtins, "pow", counting_pow)
            try:
                result = fn(*args)
            finally:
                monkeypatch.setattr(builtins, "pow", real_pow)
            widths = [e.bit_length() for e in calls if e > 0]
            return (result, sum(w > 65 for w in widths),
                    sum(w <= 65 for w in widths), calls.count(-1))

        monkeypatch.setattr(harness, "s_M", unreachable)
        game, wide, narrow, inverses = budget(new_game, PRODUCTION,
                                              random.Random(45))
        assert (wide, inverses) == (1, 1)
        view = game.view()
        for s_star, won in ((view.s3, True), (view.s3 + 1, False)):
            got, wide, narrow, inverses = budget(adjudicate, game,
                                                 Forgery(s_star, 2))
            assert got is won
            assert (wide, narrow, inverses) == (0, 0, 1)


class TestLemma1:
    def test_uniqueness_on_toy_games(self):
        rng = random.Random(7)
        for _ in range(25):
            game = new_game(TOY, rng)
            count, witnesses = lemma1_exhaustive(game)
            assert count == 1
            assert witnesses == [game.transcript.s3.value]

    def test_uniqueness_on_mini_games(self):
        rng = random.Random(8)
        for _ in range(25):
            game = new_game(MINI, rng)
            count, witnesses = lemma1_exhaustive(game)
            assert count == 1
            assert witnesses == [game.transcript.s3.value]

    @pytest.mark.parametrize("profile, seed", [(TOY, 31), (MINI, 32)])
    def test_recovery_map_is_recover_v(self, profile, seed):
        # the sweep's raw-int Moebius evaluation must agree with
        # recover_v on every candidate, singular ones included, so the
        # sweep keeps checking the receiver's own formula
        M = profile.mod.M
        rng = random.Random(seed)
        for _ in range(50):
            game = new_game(profile, rng)
            hid, msg = game.hidden, game.transcript
            ref = reference_view(hid.session)
            s0, s2 = game.s0_s2(ref)
            args = (s0, msg.s1, s2)
            rest = (ref.t.img, msg.u, ref.p)
            a, c, e = recovery_map(*args, *rest)
            witnesses = []
            for cand in range(M):
                s_star = FieldElem(cand, profile.mod)
                try:
                    inv = pow(2 * (e - cand), -1, M)
                except ValueError:
                    with pytest.raises(NonInvertible):
                        recover_v(*args, s_star, *rest)
                    continue
                v_star = recover_v(*args, s_star, *rest).value
                assert (a + c * cand) * inv % M == v_star
                if v_star == hid.v:
                    witnesses.append(cand)
            assert lemma1_exhaustive(game) == (len(witnesses), witnesses)

    def test_scale_guard(self):
        from fourpoint.protocol import PRODUCTION
        game = new_game(PRODUCTION, random.Random(9))
        with pytest.raises(ValueError):
            lemma1_exhaustive(game)
        # the primes on either side of the 2^16 cap
        above = TOY._replace(name="above", mod=Modulus(65537))
        with pytest.raises(ValueError, match="2\\^16"):
            lemma1_exhaustive(new_game(above, random.Random(9)))
        below = TOY._replace(name="below", mod=Modulus(65521))
        game = new_game(below, random.Random(9))
        assert lemma1_exhaustive(game) == (1, [game.transcript.s3.value])


class TestWilson:
    def test_zero_wins(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0 < hi < 0.05
        assert wilson_interval(0, 0) == (0.0, 0.0)

    def test_all_wins(self):
        lo, hi = wilson_interval(100, 100)
        assert 0.95 < lo < 1.0
        assert hi == 1.0

    def test_known_value(self):
        # 5/100 at z=1.96: standard Wilson score gives (0.0215, 0.1118)
        lo, hi = wilson_interval(5, 100)
        assert abs(lo - 0.0215) < 5e-4
        assert abs(hi - 0.1118) < 5e-4

    def test_contains_point_estimate(self):
        for wins, trials in ((1, 100), (39, 10000), (250, 1000)):
            lo, hi = wilson_interval(wins, trials)
            assert lo < wins / trials < hi


class TestRandomAdversary:
    def test_trial_floor(self):
        with pytest.raises(ValueError):
            run_random_adversary(TOY, 99)

    def test_reproducible(self):
        a = run_random_adversary(TOY, 200, seed=5)
        b = run_random_adversary(TOY, 200, seed=5)
        assert (a.wins, a.ci_low, a.ci_high) == (b.wins, b.ci_low, b.ci_high)

    @pytest.mark.parametrize("profile, trials, pinned", [
        (MINI, 500, {1: (31, 251), 2: (23, 247), 3: (31, 241)}),
        (TOY, 500, {1: (2, 9), 2: (0, 13), 3: (1, 10)}),
        (PRODUCTION, 100, {1: (0, 0)})])
    def test_pinned_wins_and_aborts(self, profile, trials, pinned):
        # the seed fixes every draw of the games and the adversary
        for seed, counts in pinned.items():
            report = run_random_adversary(profile, trials, seed)
            assert (report.wins, report.aborts) == counts

    def test_advantage_is_wins_over_trials(self):
        report = harness.AdvantageReport("g", "random", 400, 10, 0.0, 1.0, 0)
        assert report.advantage == 0.025
        assert report._replace(trials=0, wins=0).advantage == 0.0

    def test_advantage_near_one_over_m(self):
        # 2000 trials at 1/257 expects ~8 wins; 30 would be wild
        report = run_random_adversary(TOY, 2000, seed=1)
        assert report.wins < 30
        assert report.ci_low <= report.wins / report.trials <= report.ci_high

    def test_forgery_shape(self):
        game = new_game(TOY, random.Random(11))
        f = random_adversary(game.view(), random.Random(12))
        assert 0 <= f.s_star < TOY.mod.M
        assert 0 <= f.delta_star

    def test_csv_format(self):
        report = run_random_adversary(TOY, 100, seed=2)
        text = emit_csv([report])
        lines = text.strip().split("\n")
        assert lines[0] == "game_id,adversary,trials,wins,ci_low,ci_high"
        cells = lines[1].split(",")
        assert cells[0] == "random-toy-2"
        assert cells[1] == "random"
        assert int(cells[2]) == 100
        assert 0 <= float(cells[4]) <= float(cells[5]) <= 1


class TestLemma2:
    def test_splices_all_rejected(self):
        report = lemma2_reuse_experiment(TOY, 6, seed=3)
        assert report.V == 6
        assert report.splices == 6 * 5 * 2
        assert report.accepted == 0
        assert sum(report.rejected_by.values()) == report.splices
        assert set(report.rejected_by) <= {"RejectHash", "RejectDenominator",
                                           "RejectRange"}

    def test_v_max_bounds(self, monkeypatch):
        for bad in (0, 1001):
            with pytest.raises(ValueError):
                lemma2_reuse_experiment(TOY, bad)
        # one transcript has nothing to splice with
        assert lemma2_reuse_experiment(TOY, 1).splices == 0
        # MINI has only 16 distinct v values
        with pytest.raises(ValueError, match="v_bound"):
            lemma2_reuse_experiment(MINI, 17)

        def no_draw(*args):
            raise AssertionError("a session was drawn")
        monkeypatch.setattr(harness, "derive_session", no_draw)
        # the cap of 1000 binds only on production; refused before a draw
        with pytest.raises(ValueError, match="1000"):
            lemma2_reuse_experiment(PRODUCTION, 1001)

    def test_v_max_at_the_modulus_refused(self, monkeypatch):
        # 257 payloads cover every offset t + 2v+1 mod 257, one of them
        # 0, so every session would abort; the value is refused before
        # any draw
        assert lemma2_reuse_experiment(MINI, 16, seed=0).accepted == 0
        calls = []

        def counted(*args):
            calls.append(args)
            if len(calls) > 1000:
                raise RuntimeError("lemma2_reuse_experiment kept drawing")
            return derive_session(*args)
        monkeypatch.setattr(harness, "derive_session", counted)
        with pytest.raises(ValueError, match="below M = 257"):
            lemma2_reuse_experiment(TOY, 257)
        assert calls == []

    @pytest.mark.parametrize("profile, V_max, outcome, draws", [
        # every K is 0 mod 3: Profile refuses the range before any draw
        ("TOY._replace(mod=Modulus(3), K_min=3, K_max=3)", 2,
         "ValueError", 0),
        # 16 payloads keep every t + 2v+1 off 0 mod 17 only at t = 1, and
        # then some t + 2u+2v+1 is 0 unless 17 divides u; no u below 2^4
        # does
        ("MINI._replace(u_bits=4)", 16, "Abort", 1 << 14),
    ], ids=["K-is-0-mod-M", "mini-u-bits-4"])
    def test_gives_up_on_a_profile_no_draw_suits(self, profile, V_max,
                                                 outcome, draws):
        # the experiment draws at most 2^14 sessions, then raises the last
        # abort; the timeout fails a loop that never ends
        code = ("from fourpoint import harness\n"
                "from fourpoint.errors import ProtocolAbort\n"
                "from fourpoint.modmath import Modulus\n"
                "from fourpoint.protocol import MINI, TOY, derive_session\n"
                "calls = []\n"
                "harness.derive_session = lambda *args: (\n"
                "    calls.append(args) or derive_session(*args))\n"
                "try:\n"
                f"    harness.lemma2_reuse_experiment({profile}, {V_max})\n"
                "except (ProtocolAbort, ValueError) as exc:\n"
                "    print(type(exc).__name__, len(calls))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        kind, made = proc.stdout.split()
        assert kind.startswith(outcome) and int(made) == draws

    def test_replayed_donors_are_not_splices(self):
        # two of these mini donors share s3 mod 17, so 8 of the 112
        # ordered swaps rebuild a donor byte for byte; those are skipped
        report = lemma2_reuse_experiment(MINI, 8)  # seed 0 by default
        assert report.splices == 8 * 7 * 2 - 8
        assert report.accepted == 0
        assert report.rejected_by == {"RejectHash": 100,
                                      "RejectDenominator": 4}

    def test_production_splices_refused_by_the_range_check(self):
        # a production splice recovers a v of 2^64 or more, so the range
        # check refuses it before the check hash is computed
        report = lemma2_reuse_experiment(PRODUCTION, 4, seed=0)
        assert report == (4, 4 * 3 * 2, 0, {"RejectRange": 24})

    def test_accepted_counts_what_the_receiver_accepts(self, monkeypatch):
        monkeypatch.setattr(harness, "bob_verify", lambda *args: 0)
        report = lemma2_reuse_experiment(TOY, 6, seed=3)
        assert report.accepted == report.splices == 60
        assert report.rejected_by == {}
