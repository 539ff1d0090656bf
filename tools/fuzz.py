#!/usr/bin/env python3
"""Random testing of the package's input surfaces on fresh seeds.

Run from the repository root:

    python3 tools/fuzz.py --seconds 20
    python3 tools/fuzz.py --seed 1234567   # replay one seed

Each round draws a seed from os.urandom and runs the generators of
tests/fuzzing.py under it: deserialize and receive on mutated messages
on mini, toy and production, receive against the independent receiver
oracles.naive_receive on the same messages, the texts of receive's
rejections on the production ones, both sender paths against the
independent sender oracles.naive_send and that oracle against
naive_receive on drawn (S, z, u, v), profile_from_dict on mutated
profile dicts and load_profile on mutated profile files, and cli.main on
argv drawn from a grammar over its five commands. Each library call must
return a value or raise FourPointError, ValueError or OSError; a dict
that loads must read back as written; receive must agree with the
oracle; the sender must give naive_send's bytes or abort, and
naive_receive must read v back from naive_send's message; no rejection
text may hold a value derived from the secret; and main must exit 0, 1
or 2 with no traceback on stderr. The first round with a violation
prints its seed and each violating surface and exception, and the run
exits 1; otherwise it exits 0 once the time is up. tests/test_fuzz.py
runs the same generators on fixed seeds.
"""

import argparse
import os
from pathlib import Path
import random
import sys
import tempfile
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fuzzing import (cli_cases, leak_cases, oracle_cases,  # noqa: E402
                     profile_cases, sender_cases, violations, wire_cases)

CASES_PER_ROUND = 100  # messages per profile, and dicts and files each
CLI_CASES_PER_ROUND = 30  # argv, each running a whole command
SENDER_CASES_PER_ROUND = 30  # (S, z, u, v) per profile


def run_seed(seed: int, directory: Path) -> list:
    """The violations of one round: its wire, oracle, leak, sender,
    profile and CLI cases."""
    def wire():
        return wire_cases(random.Random(f"wire/{seed}"), CASES_PER_ROUND)
    return (violations(wire()) + violations(oracle_cases(wire()))
            + violations(leak_cases(wire()))
            + violations(sender_cases(random.Random(f"sender/{seed}"),
                                      SENDER_CASES_PER_ROUND))
            + violations(profile_cases(random.Random(f"profile/{seed}"),
                                       directory, CASES_PER_ROUND))
            + violations(cli_cases(random.Random(f"cli/{seed}"), directory,
                                   CLI_CASES_PER_ROUND)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run fresh seeds for this long (default 20)")
    parser.add_argument("--seed", type=int,
                        help="run this one seed instead")
    args = parser.parse_args(argv)
    deadline = perf_counter() + args.seconds
    rounds = 0
    with tempfile.TemporaryDirectory() as tmp:
        while True:
            seed = (args.seed if args.seed is not None
                    else int.from_bytes(os.urandom(8), "big"))
            found = run_seed(seed, Path(tmp))
            rounds += 1
            if found:
                print(f"seed {seed}: {len(found)} violation(s)")
                for surface, exc in found:
                    print(f"  {surface}: {type(exc).__name__}: "
                          f"{str(exc)[:200]}")
                return 1
            if args.seed is not None or perf_counter() >= deadline:
                break
    print(f"{rounds} seed(s), no violation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
