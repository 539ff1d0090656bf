#!/usr/bin/env python3
"""Measure what an eavesdropping forger can actually do.

Three desk-scale experiments:
  1. a random adversary playing the forgery game, with a Wilson score
     interval around its win rate (the baseline is 1/M: guessing s3);
  2. the exhaustive uniqueness sweep: among all M candidate s* values,
     exactly one recovers the hidden v, and it is the honest s3;
  3. the nonce-reuse splice: crossing s1/s3 between transcripts that
     share (S, z, u) never verifies, because the check hash rejects it.
     That is forgery, not hiding: reuse is forbidden because messages
     under one nonce disclose each other's v (ROADMAP item 6).
"""

import random

from fourpoint.harness import (emit_csv, lemma1_exhaustive,
                               lemma2_reuse_experiment, matching_count,
                               new_game, run_random_adversary)
from fourpoint.protocol import TOY


def main():
    print(f"profile: {TOY.name}, M = {TOY.mod.M}, "
          f"baseline win rate 1/M = {1 / TOY.mod.M:.5f}")

    print("\n== 1. random adversary, 5000 trials ==")
    report = run_random_adversary(TOY, 5000, seed=0)
    print(emit_csv([report]), end="")
    print(f"wins/trials = {report.wins}/{report.trials} "
          f"= {report.advantage:.5f}")
    print(f"95% interval [{report.ci_low:.5f}, {report.ci_high:.5f}] "
          f"(aborted draws redrawn: {report.aborts})")

    print("\n== 2. exhaustive uniqueness, 20 games ==")
    rng = random.Random(7)
    for k in range(20):
        game = new_game(TOY, rng)
        count, witnesses = lemma1_exhaustive(game)
        honest = game.transcript.s3.value
        assert count == 1 and witnesses == [honest]
    print(f"all 20 sweeps over Z_{TOY.mod.M}: exactly one witness, "
          f"always the honest s3")

    print("\n== 3. bounded nonce reuse, V = 8 transcripts ==")
    reuse = lemma2_reuse_experiment(TOY, 8, seed=1)
    print(f"splices tried: {reuse.splices}, accepted: {reuse.accepted}")
    print(f"rejected by: {reuse.rejected_by}")
    print(f"(for scale: a 5-slot matching over 100 reused transcripts "
          f"already has {matching_count(100, 5):,} assignments)")
    assert reuse.accepted == 0


if __name__ == "__main__":
    main()
