"""Acceptance gate: one test per numbered criterion.

Each test is self-contained and prints one summary line; `pytest -v`
therefore shows a single pass/fail verdict per criterion. Counts,
tolerances, and runtime budgets are the contract, not suggestions, so
they are asserted literally.
"""

import math
import random
import time
from pathlib import Path

import pytest

from fourpoint.cli import main as cli_main
from fourpoint.errors import (FieldOverflow, ProtocolAbort,
                              SingularDenominator, SingularPoint,
                              VerificationError)
from fourpoint.genfunc import reference_view, s_M
from fourpoint.invariant import (InvariantTuple, analytic_invariant_check,
                                 enumerate_fiber, eval_invariant,
                                 expected_constant)
from fourpoint.modmath import EvalPoint, Modulus, mod_inv
from fourpoint.oscillator import (OscSeed, PrfOscillator, TableOscillator,
                                  eval_arg, eval_index)
from fourpoint.protocol import (MESSAGE_LEN, MINI, PRODUCTION, TOY,
                                alice_generate, bob_verify, derive_session,
                                deserialize, serialize)
from fourpoint.harness import (lemma1_exhaustive, new_game,
                               run_random_adversary)

from conftest import fresh_session

FIXTURE_DIR = Path(__file__).parent / "fixtures"
M257 = Modulus(257)


def honest_tuple(ref, u, v):
    t = ref.t
    return InvariantTuple(s_M(ref.numer, t),
                          s_M(ref.numer, t + (2 * v + 1)),
                          s_M(ref.denom, t + 2 * u),
                          s_M(ref.denom, t + (2 * u + 2 * v + 1)),
                          t, u, v)


def test_criterion_01_exact_modular_invariant():
    """1000 toy sessions hit expected_constant exactly, in under 5 s."""
    rng = random.Random(101)
    start = time.monotonic()
    done = 0
    while done < 1000:
        try:
            ref = reference_view(derive_session(rng.randbytes(32),
                                                rng.randbytes(32), TOY))
            tu = honest_tuple(ref, rng.randrange(1, 50), rng.randrange(0, 50))
            got = eval_invariant(tu)
        except (ProtocolAbort, SingularPoint, SingularDenominator):
            continue  # singular draws are redrawn, never scored
        assert got == expected_constant(ref.p, tu.u)
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 1: 1000 sessions exact in {elapsed:.2f}s")


def test_criterion_02_base_case_constant():
    """u=1, v=0 reduces to the inverse of p squared; 100 sessions."""
    rng = random.Random(102)
    done = 0
    while done < 100:
        try:
            ref = reference_view(derive_session(rng.randbytes(32),
                                                rng.randbytes(32), TOY))
            tu = honest_tuple(ref, 1, 0)
            got = eval_invariant(tu)
        except (ProtocolAbort, SingularPoint, SingularDenominator):
            continue
        assert got == mod_inv(ref.p * ref.p)
        done += 1
    print("criterion 2: 100 base-case sessions exact")


def test_criterion_03_analytic_reference():
    """1e-9 on 1000 odd-multiplier draws; even r1 visibly breaks it."""
    rng = random.Random(103)
    done = 0
    while done < 1000:
        p = rng.uniform(0.5, 4.0)
        q1, q2 = rng.uniform(-10, 10), rng.uniform(-10, 10)
        r1, r2 = rng.randrange(1, 20, 2), rng.randrange(1, 20, 2)
        t = rng.uniform(-20, 20)
        if any(abs(t + k) < 1e-6 for k in range(4)):
            continue
        ratio = analytic_invariant_check(p, q1, q2, r1, r2, t)
        assert abs(ratio - p ** -2) / p ** -2 < 1e-9, (p, q1, q2, r1, r2, t)
        done += 1

    # even r1: keep t where the exponential cannot drown the oscillator
    # (for t near +20, p^t ~ 1e12 makes any bounded defect invisible)
    # and q1 bounded away from 0 so there is a defect to see
    deviating = 0
    done = 0
    while done < 1000:
        p = rng.uniform(0.5, 4.0)
        q1 = rng.choice((-1, 1)) * rng.uniform(0.5, 10)
        q2 = rng.uniform(-10, 10)
        r1 = rng.randrange(2, 20, 2)
        r2 = rng.randrange(1, 20, 2)
        t = rng.uniform(-4, 2)
        if any(abs(t + k) < 1e-6 for k in range(4)):
            continue
        ratio = analytic_invariant_check(p, q1, q2, r1, r2, t)
        if abs(ratio - p ** -2) / p ** -2 > 1e-3:
            deviating += 1
        done += 1
    assert deviating >= 990, f"only {deviating}/1000 even-r1 draws deviate"
    print(f"criterion 3: 1000 odd draws within 1e-9; "
          f"{deviating}/1000 even-r1 draws deviate > 1e-3")


def test_criterion_04_oscillator_walkthrough_fixture():
    """Seed (2,-1,0,3,-2,1,1,-3), K=4, C=2: index 366 gives -1 mod M."""
    osc = TableOscillator(OscSeed((2, -1, 0, 3, -2, 1, 1, -3), 4, 2), M257)
    got = eval_index(osc, 366)
    assert got.value == 256 == M257.M - 1
    print("criterion 4: index 366 evaluates to -1 mod 257")


def test_criterion_05_antiperiodicity_and_mode_equivalence():
    """1000 random points flip sign under a C-shift, in both modes;
    table and on-demand modes agree on 10^4 indices."""
    rng = random.Random(105)
    prf = PrfOscillator(b"\x3c" * 32, 64, 32, M257)  # P = 2048
    table = TableOscillator(OscSeed([prf.seed_value(m) for m in range(prf.P)],
                                    64, 32), M257)
    for mode in (table, prf):
        for _ in range(1000):
            x = EvalPoint(rng.randrange(-10 ** 9, 10 ** 9), 64, M257)
            assert eval_arg(mode, x + 32) == -eval_arg(mode, x)
    for _ in range(10 ** 4):
        j = rng.randrange(-10 ** 9, 10 ** 9)
        assert eval_index(table, j) == eval_index(prf, j)
    print("criterion 5: 1000 sign flips per mode; modes agree on 10^4 indices")


def test_criterion_06_protocol_roundtrip():
    """bob_verify(alice_generate) returns v: 10^3 toy, 10^2 production."""
    start = time.monotonic()
    rng = random.Random(106)
    for profile, count in ((TOY, 1000), (PRODUCTION, 100)):
        done = 0
        while done < count:
            sess = fresh_session(profile, rng)
            u = rng.randrange(1, profile.u_bound)
            v = rng.randrange(0, profile.v_bound)
            try:
                msg = alice_generate(sess, u, v)
            except ProtocolAbort:
                continue
            assert bob_verify(sess.S, msg, profile) == v
            done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"criterion 6: 1100 round trips exact in {elapsed:.2f}s")


def test_criterion_07_exhaustive_tamper_sweep():
    """All 1056 single-bit corruptions of a valid message are rejected."""
    rng = random.Random(107)
    while True:
        sess = fresh_session(TOY, rng)
        try:
            msg = alice_generate(sess, 5, 17)
            break
        except ProtocolAbort:
            continue
    blob = serialize(msg)
    assert bob_verify(sess.S, deserialize(blob, TOY), TOY) == 17
    rejections = 0
    for bit in range(MESSAGE_LEN * 8):
        mutated = bytearray(blob)
        mutated[bit // 8] ^= 1 << (bit % 8)
        try:
            forged = deserialize(bytes(mutated), TOY)
            bob_verify(sess.S, forged, TOY)
            pytest.fail(f"bit flip {bit} accepted")
        except (FieldOverflow, VerificationError):
            rejections += 1
    assert rejections == 1056
    print("criterion 7: 1056/1056 bit flips rejected, 0 accepted")


def test_criterion_08_lemma1_uniqueness():
    """Exhaustive s* sweep finds exactly {s3}, 1000 games per modulus."""
    for profile, seed in ((TOY, 108), (MINI, 109)):
        rng = random.Random(seed)
        for _ in range(1000):
            game = new_game(profile, rng)
            count, witnesses = lemma1_exhaustive(game)
            assert count == 1
            assert witnesses == [game.transcript.s3.value]
    print("criterion 8: 2000 exhaustive sweeps, witness always s3")


def test_criterion_09_random_adversary_advantage():
    """Toy 10^4-trial Wilson upper bound <= 2/257; production 0/100."""
    toy = run_random_adversary(TOY, 10 ** 4, seed=0)
    assert toy.ci_high <= 2 / 257, (toy.wins, toy.ci_high)
    prod = run_random_adversary(PRODUCTION, 100, seed=0)
    assert prod.wins == 0
    print(f"criterion 9: toy {toy.wins}/10000 wins "
          f"(ci_high {toy.ci_high:.4f} <= {2 / 257:.4f}); production 0/100")


def test_criterion_10_serialization(tmp_path):
    """132 bytes exactly; 10^3 round trips; fixtures reproduce bit-for-bit."""
    rng = random.Random(110)
    done = 0
    while done < 1000:
        sess = fresh_session(TOY, rng)
        try:
            msg = alice_generate(sess, rng.randrange(1, TOY.u_bound),
                                 rng.randrange(0, TOY.v_bound))
        except ProtocolAbort:
            continue
        blob = serialize(msg)
        assert len(blob) == MESSAGE_LEN == 132
        assert deserialize(blob, TOY) == msg
        done += 1

    assert cli_main(["fixtures", "--out", str(tmp_path)]) == 0
    for name in ("vectors.txt", "discrepancies.txt"):
        fresh = (tmp_path / name).read_bytes()
        pinned = (FIXTURE_DIR / name).read_bytes()
        assert fresh == pinned, f"{name} drifted from the pinned fixture"
    print("criterion 10: 1000 round trips at 132 bytes; fixtures identical")


def test_criterion_11_equivalence_fiber():
    """enumerate_fiber over v in [0, 20]: 21 pairs, one constant."""
    rng = random.Random(111)
    u = 4
    while True:
        sess = fresh_session(TOY, rng)
        try:
            pairs = enumerate_fiber(sess, u, range(21))
            ref = reference_view(sess)
            s0 = s_M(ref.numer, ref.t)
            s2 = s_M(ref.denom, ref.t + 2 * u)
            break
        except (ProtocolAbort, SingularPoint):
            continue
    assert len(pairs) == 21
    want = expected_constant(ref.p, u)
    for v, (s1, s3) in enumerate(pairs):
        tu = InvariantTuple(s0, s1, s2, s3, ref.t, u, v)
        assert eval_invariant(tu) == want
    print("criterion 11: 21 fiber pairs, all on the same constant")


def _parse_ledger(text):
    entries = {}
    current = None
    for line in text.splitlines():
        if line.startswith("["):
            current = line.strip("[]")
            entries[current] = {}
        elif current and "=" in line:
            key, _, val = line.partition("=")
            entries[current][key.strip()] = val.strip()
    return entries


def test_criterion_12_discrepancy_ledger(tmp_path):
    """The recomputed walkthrough values carry two agreeing oracles each,
    and the ledger is generated output, not a hand-written file."""
    assert cli_main(["fixtures", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "discrepancies.txt").read_text()
    assert text == (FIXTURE_DIR / "discrepancies.txt").read_text()
    entries = _parse_ledger(text)

    checks = {
        "inverse of 143 mod 257":
            ("36", "133", ("extended euclid", "exhaustive sweep")),
        "3^64 mod 257":
            ("1", "241", ("square multiply", "naive product")),
        "s1 at t=143/4, forced exp=81, q=(12,35), osc=(-2,4)":
            ("53", "205", ("assembly xgcd", "assembly sweep")),
    }
    for name, (quoted, pinned, oracles) in checks.items():
        e = entries[name]
        assert e["quoted"] == quoted
        assert e["pinned"] == pinned
        assert e["oracles agree"] == "True"
        assert e["quoted holds"] == "False"
        for oracle in oracles:
            assert e[oracle] == pinned, (name, oracle)
    print(f"criterion 12: {len(entries)} ledger entries, dual oracles agree")
