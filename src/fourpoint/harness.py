"""Security-game harness: forgery games, adversaries, and brute-force oracles.

The game mirrors the protocol's information asymmetry. A fresh honest
transcript is produced; the adversary sees exactly the public fields
(s1, s3, u, z, h_check) and outputs a forgery (s*, delta*). The forgery
wins iff delta* avoids the two honest offsets AND substituting s* for s3
in the receiver's recovery yields a v* whose check hash matches the
transcript. The adjudicator holds the hidden state (it created the game);
the adversary callback never receives it.

A game stores the receiver's recovery map of its transcript, so
adjudication calls no s_M; each lemma1_exhaustive sweep checks that map
against the reference, s_M and invariant.recovery_map.

Also here: exhaustive uniqueness sweeps (only s* = s3 recovers the honest
v at toy scale) and the bounded-reuse splice experiment (cross-transcript
s1/s3 swaps with replayed hashes are all rejected).
"""

from collections import Counter
import hmac
import math
import random
import sys
from typing import NamedTuple

from .errors import VerificationError
from .genfunc import s_M
from .invariant import recovery_map
from .invariant import recover_v  # noqa: F401  unused here; perfbench traces it
from .protocol import (CHECK_V_BOUND, Message, Profile, Session, _draw,
                       _generate, _recover, _recovery_map, alice_generate,
                       bob_verify, compute_check, derive_session)


class AdversaryView(NamedTuple):
    """Exactly the public fields; nothing else crosses the interface."""

    s1: int
    s3: int
    u: int
    z: bytes
    h_check: bytes
    M: int


class Forgery(NamedTuple):
    s_star: int
    delta_star: int


class _Hidden(NamedTuple):
    session: Session  # holds S and the profile
    v: int
    rmap: tuple  # protocol._recovery_map of the transcript: (K*a, K*c, e)

    def __repr__(self):  # public parts only: v and the map stay out
        return f"_Hidden(session={self.session!r})"


class GameInstance(NamedTuple):
    transcript: Message
    hidden: _Hidden
    aborts: int  # redraws consumed before an honest transcript appeared

    def view(self) -> AdversaryView:
        m = self.transcript
        return AdversaryView(m.s1.value, m.s3.value, m.u, m.z, m.h_check,
                             self.hidden.session.profile.mod.M)

    @property
    def s0_s2(self) -> tuple:
        """The reference s_M values at t and t + 2u, computed when read."""
        sess = self.hidden.session
        return (s_M(sess.gen_numer, sess.t),
                s_M(sess.gen_denom, sess.t + 2 * self.transcript.u))


def new_game(profile: Profile, rng: random.Random) -> GameInstance:
    """Draw (S, z, u, v) by protocol._draw and seal the hidden state."""
    def attempt(aborts):
        S = rng.randbytes(32)
        z = rng.randbytes(32)
        u = rng.randrange(1, profile.u_bound)
        v = rng.randrange(0, profile.v_bound)
        sess, M = derive_session(S, z, profile), profile.mod.M
        msg, p2u, A1, A3 = _generate(sess, u, v)
        rmap = _recovery_map(A1, A3, p2u, msg.s1.value * p2u % M, sess.n,
                             sess.K, u)
        return GameInstance(msg, _Hidden(sess, v, rmap), aborts)
    return _draw(attempt)


def adjudicate(game: GameInstance, forgery: Forgery) -> bool:
    """Winning condition, checked with the hidden state: s* must be a
    field value the wire can carry, in [0, M); then the receiver's
    recovery at s* in place of s3, then the check hash."""
    hid = game.hidden
    msg = game.transcript
    u, v = msg.u, hid.v
    if forgery.delta_star in (2 * v + 1, 2 * u + 2 * v + 1):
        return False
    sess = hid.session
    M, s_star = sess.profile.mod.M, forgery.s_star
    # deserialize refuses an s* outside [0, M), and e is the singular point
    if not 0 <= s_star < M or s_star == hid.rmap[2]:
        return False
    v_star = _recover(hid.rmap, s_star, sess.K, M)
    if v_star >= CHECK_V_BOUND:
        return False
    expected = compute_check(sess.S, v_star, msg.s1.value, s_star, u, msg.z)
    return hmac.compare_digest(expected, msg.h_check)


def random_adversary(view: AdversaryView, rng: random.Random) -> Forgery:
    """Uniform s* in Z_M, uniform small offset."""
    return Forgery(rng.randrange(view.M), rng.randrange(1 << 16))


def wilson_interval(wins: int, trials: int) -> tuple[float, float]:
    """95% score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 0.0)
    z = 1.96  # the normal quantile of the 95% level
    phat = wins / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    # at the degenerate edges the bound is exactly 0 or 1; don't let
    # rounding in the quotient pull it a ulp inside
    lo = 0.0 if wins == 0 else max(0.0, center - half)
    hi = 1.0 if wins == trials else min(1.0, center + half)
    return (lo, hi)


class AdvantageReport(NamedTuple):
    game_id: str
    adversary: str
    trials: int
    wins: int
    ci_low: float
    ci_high: float
    aborts: int

    @property
    def advantage(self) -> float:
        return self.wins / self.trials if self.trials else 0.0


def run_random_adversary(profile: Profile, trials: int,
                         seed: int = 0) -> AdvantageReport:
    """Monte Carlo advantage of the uniform-forgery adversary."""
    if trials < 100:
        raise ValueError("trials must be >= 100")
    rng = random.Random(seed)
    wins = 0
    aborts = 0
    for _ in range(trials):
        game = new_game(profile, rng)
        aborts += game.aborts
        forgery = random_adversary(game.view(), rng)
        if adjudicate(game, forgery):
            wins += 1
    lo, hi = wilson_interval(wins, trials)
    return AdvantageReport(f"random-{profile.name}-{seed}", "random",
                           trials, wins, lo, hi, aborts)


def emit_csv(reports) -> str:
    lines = ["game_id,adversary,trials,wins,ci_low,ci_high"]
    for r in reports:
        lines.append(f"{r.game_id},{r.adversary},{r.trials},{r.wins},"
                     f"{r.ci_low:.6f},{r.ci_high:.6f}")
    return "\n".join(lines) + "\n"


def lemma1_exhaustive(game: GameInstance) -> tuple[int, list[int]]:
    """Count s* in Z_M whose recovery returns the honest v.

    Exhaustive, so only meaningful at desk scale. First the game's
    recovery map, the receiver's (K*a, K*c, e), is checked against
    invariant.recovery_map over the reference s_M values s0 and s2:
    AssertionError on a mismatch, raised rather than asserted so that it
    also checks under python -O. The sweep then runs on the receiver's
    map v(s*) = (K*a + K*c*s*) / (2K*(e - s*)). As M is prime and v < M,
    v(s*) = v exactly when (K*c + 2Kv)*s* = 2Kv*e - K*a mod M and s* is
    not the singular e: raw ints, no inverse. For every valid game the
    count is 1 and the witness is the honest s3.
    """
    hid = game.hidden
    msg = game.transcript
    sess = hid.session
    M, K = sess.profile.mod.M, sess.K
    if M > 1 << 16:
        raise ValueError("exhaustive sweep needs M <= 2^16")
    s0, s2 = game.s0_s2
    a, c, e = recovery_map(s0, msg.s1, s2, sess.t.img, msg.u, sess.p)
    Ka, Kc, e_map = hid.rmap
    if (Ka % M, Kc % M, e_map) != (K * a % M, K * c % M, e):
        raise AssertionError("the receiver's recovery map differs from "
                             "the reference")
    Kv2 = 2 * K * hid.v
    k0, k1 = (Kv2 * e - Ka) % M, Kc + Kv2
    witnesses = [cand for cand in range(M)
                 if k1 * cand % M == k0 and cand != e]
    return len(witnesses), witnesses


class ReuseReport(NamedTuple):
    V: int
    splices: int
    accepted: int
    rejected_by: dict


def lemma2_reuse_experiment(profile: Profile, V_max: int,
                            seed: int = 0) -> ReuseReport:
    """Bounded-reuse splice experiment at a fixed (S, z, u).

    Emits V_max transcripts with distinct v, then tries every ordered
    cross-transcript splice (s1 from one, s3 from another) replaying the
    check hash from either side; a splice equal to a donor is an honest
    replay and is skipped. All splices must be rejected. V_max = M would
    put some t + 2v+1 at 0 mod M and abort every session, so V_max < M.
    """
    M = profile.mod.M
    if not 1 <= V_max <= min(1000, profile.v_bound, M - 1):
        raise ValueError(f"V_max must be in [1, 1000], at most the profile's "
                         f"v_bound = {profile.v_bound} and below M = {M}")
    rng = random.Random(seed)
    # len(range(2**64)) overflows; the cap draws the same values below it
    v_pool = rng.sample(range(min(profile.v_bound, sys.maxsize)), V_max)

    def attempt(_):
        S = rng.randbytes(32)
        z = rng.randbytes(32)
        u = rng.randrange(1, profile.u_bound)
        sess = derive_session(S, z, profile)
        return S, z, u, [alice_generate(sess, u, v) for v in v_pool]
    # one session must suit every payload: 16 mini payloads took up to
    # 1392 draws over seeds 0-39, so 2^14 give up falsely about e^-40
    S, z, u, msgs = _draw(attempt, tries=1 << 14)

    accepted = 0
    rejected = Counter()
    splices = 0
    for a, donor_a in enumerate(msgs):
        for b, donor_b in enumerate(msgs):
            if a == b:
                continue
            for h_check in (donor_a.h_check, donor_b.h_check):
                spliced = Message(donor_a.s1, donor_b.s3, u, z, h_check)
                if spliced in (donor_a, donor_b):
                    continue
                splices += 1
                try:
                    bob_verify(S, spliced, profile)
                    accepted += 1
                except VerificationError as exc:
                    rejected[type(exc).__name__] += 1
    return ReuseReport(V_max, splices, accepted, dict(rejected))
