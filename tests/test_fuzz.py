"""The fuzz corpus: fixed seeds of the generators in fuzzing.py.

deserialize, receive, profile_from_dict and load_profile must return a
value or raise FourPointError, ValueError or OSError on every case,
never another exception. Each violation the corpus found first has its
own test below. tools/fuzz.py runs the same generators on fresh seeds.
"""

import random

import pytest

from fourpoint.protocol import TOY, profile_from_dict, profile_to_dict

from fuzzing import nested, profile_cases, violations, wire_cases

SEEDS = range(8)
CASES = 100  # messages per profile, and dicts and files each, per seed


@pytest.mark.parametrize("seed", SEEDS)
def test_wire_surfaces_raise_only_typed_errors(seed):
    cases = wire_cases(random.Random(f"wire/{seed}"), CASES)
    assert violations(cases) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_profile_surfaces_raise_only_typed_errors(seed, tmp_path):
    cases = profile_cases(random.Random(f"profile/{seed}"), tmp_path, CASES)
    assert violations(cases) == []


def test_deeply_nested_hash_value_is_a_value_error():
    # the refusal of an unsupported hash printed the value's repr, which
    # raised RecursionError on a value nested past the recursion limit
    with pytest.raises(ValueError, match="hash"):
        profile_from_dict({**profile_to_dict(TOY), "hash": nested(100000)})
