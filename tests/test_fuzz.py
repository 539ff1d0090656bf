"""The fuzz corpus: fixed seeds of the generators in fuzzing.py.

deserialize, receive, profile_from_dict and load_profile must return a
value or raise FourPointError, ValueError or OSError on every case,
never another exception; a dict that loads must read back as written;
receive must agree with oracles.naive_receive on every mutated message,
and on production no text of its rejections may hold a value derived
from the secret; both sender paths must give oracles.naive_send's bytes
or abort, and naive_receive must read v back from naive_send's message;
and cli.main must exit 0, 1 or 2 with no traceback on every argv. Each
violation the corpus found first has its own test below. tools/fuzz.py
runs the same generators on fresh seeds.
"""

from contextlib import redirect_stderr
import io
import random

import pytest

from fourpoint.cli import build_parser
from fourpoint.protocol import (MINI, TOY, profile_from_dict,
                                profile_to_dict, receive)

from fuzzing import (PROFILES, cli_argv, cli_cases, honest, leak_cases,
                     nested, oracle_cases, profile_cases, sender_cases,
                     sender_draw, violations, wire_cases)
from oracles import naive_receive, naive_send

SEEDS = range(8)
CASES = 100  # messages per profile, and dicts and files each, per seed
CLI_CASES = 30  # argv per seed: each runs a whole command
SENDER_CASES = 30  # (S, z, u, v) per profile per seed
ARGV_DRAWS = 1000  # argv drawn, not run, to bound attack's trials


@pytest.mark.parametrize("seed", SEEDS)
def test_wire_surfaces_raise_only_typed_errors(seed):
    cases = wire_cases(random.Random(f"wire/{seed}"), CASES)
    assert violations(cases) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_profile_surfaces_raise_only_typed_errors(seed, tmp_path):
    cases = profile_cases(random.Random(f"profile/{seed}"), tmp_path, CASES)
    assert violations(cases) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_receive_agrees_with_the_oracle(seed):
    cases = wire_cases(random.Random(f"wire/{seed}"), CASES)
    assert violations(oracle_cases(cases)) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_rejection_texts_hold_no_session_value(seed):
    cases = wire_cases(random.Random(f"wire/{seed}"), CASES)
    assert violations(leak_cases(cases)) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_sender_agrees_with_the_oracle(seed):
    cases = sender_cases(random.Random(f"sender/{seed}"), SENDER_CASES)
    assert violations(cases) == []


def test_sender_corpus_reaches_every_outcome_and_corner():
    # the property is checked at the four envelope corners of every
    # profile, and on mini on messages and on each abort the sender raises
    outcomes, drawn = set(), set()
    for seed in SEEDS:
        rng = random.Random(f"sender/{seed}")
        for profile in PROFILES:
            for _ in range(SENDER_CASES):
                args = sender_draw(rng, profile)
                drawn.add((profile.name, *args[2:4]))
                if profile is MINI:
                    got = naive_send(*args)
                    outcomes.add(got if isinstance(got, str) else "message")
    assert outcomes == {"message", "AbortZeroIndex", "AbortSingular",
                        "AbortNonInvertible"}
    corners = {(p.name, u, v) for p in PROFILES
               for u in (1, p.u_bound - 1) for v in (0, p.v_bound - 1)}
    assert corners <= drawn


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_exits_0_1_or_2_without_a_traceback(seed, tmp_path):
    cases = cli_cases(random.Random(f"cli/{seed}"), tmp_path, CLI_CASES)
    assert violations(cases) == []


def test_no_drawn_attack_argv_runs_more_than_150_trials(tmp_path):
    # cli.main runs in-process and the fuzz run checks its deadline only
    # between rounds, so an attack argv must be refused by argparse or
    # run at most 150 games (fewer than 100 is refused before any game):
    # 2^64 trials would never end, attack's default of 10000 takes seconds
    rng = random.Random("cli/trials")
    attacks = 0
    for _ in range(ARGV_DRAWS):
        argv = cli_argv(rng, tmp_path)
        if argv[0] != "attack":
            continue
        attacks += 1
        try:
            with redirect_stderr(io.StringIO()):
                args = build_parser().parse_args(argv)
        except SystemExit:  # argparse refuses argv before main runs it
            continue
        assert args.trials <= 150, argv[:8]
    assert attacks >= ARGV_DRAWS // 32


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_oracle_reads_honest_messages(profile):
    rng = random.Random(f"honest/{profile.name}")
    for _ in range(50):
        S, blob, v = honest(rng, profile)
        assert naive_receive(S, blob, profile) == receive(S, blob, profile) \
            == v


def test_deeply_nested_hash_value_is_a_value_error():
    # the refusal of an unsupported hash printed the value's repr, which
    # raised RecursionError on a value nested past the recursion limit
    with pytest.raises(ValueError, match="hash"):
        profile_from_dict({**profile_to_dict(TOY), "hash": nested(100000)})
