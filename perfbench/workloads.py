"""The four workloads, each a closed loop with one client on one thread.

A workload builds a pool of inputs from its seed, untimed, and then runs
passes over it: a pass performs every pool entry once, in order, and
waits for each result before starting the next. The work in a pass, and
every count taken over one, is therefore fixed by the seed.

The library is reached only through module attributes
(`protocol.derive_session`, `harness.new_game`, ...), so the tracer in
spans.py sees the calls when it is installed.
"""

from array import array
from collections import Counter
import math
import random
import statistics
import traceback
import sys
from time import perf_counter_ns

import calibrate
from fourpoint import (BadLength, FieldOverflow, ProtocolAbort,
                       VerificationError, harness, protocol)

ROLES = ("op", "send", "recv", "reject", "game", "sweep")

# Retry nonces per message before the message counts as failed; on toy a
# derivation aborts about 2% of the time, so 16 never run out in practice.
MAX_NONCES = 16


def quantile(sorted_vals: list, q: float) -> float:
    """Value at quantile q, interpolated between order statistics."""
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


class Stats:
    """What the benchmark sees from outside: outcomes, counts, latencies.

    The timed loop calls tick() before each operation. Every
    calibrate.BLOCK_S of work it runs the workload's calibration kernel
    and scales
    the block's latencies and wall time by the host slowdown around the
    block (kernel time over calibrate.REFERENCE_S).

    Every pass replays the same inputs, so each pool entry has one
    latency per pass. A latency quantile is taken over the pool's
    entries of each entry's median across passes: the spread over
    inputs, with one-off stalls of the host voted out.
    """

    def __init__(self, kernel=calibrate.MIXED):
        self.kernel = kernel
        self.record = True      # False in the warm-up and traced passes
        self.ops = 0
        self.failed = 0
        self.failures = Counter()
        self.counts = Counter()
        self.slowdowns = []     # per block
        self._passes = {role: [] for role in ROLES}  # per pass: array of us
        self._block = {role: [] for role in ROLES}   # (entry, ns)
        self._pass = {role: {} for role in ROLES}    # entry -> scaled ns
        self._shown = False

    def begin_pass(self) -> None:
        self._entry = -1
        self._pass_ns = self._scaled_ns = 0
        self._kernel = calibrate.kernel_s(self.kernel)
        self._t0 = perf_counter_ns()

    def tick(self) -> None:
        """Start the next pool entry."""
        self._entry += 1
        if perf_counter_ns() - self._t0 >= calibrate.BLOCK_S * 1e9:
            self._close_block()

    def time(self, role: str, ns: int) -> None:
        if self.record:
            self._block[role].append((self._entry, ns))

    def _close_block(self) -> None:
        block_ns = perf_counter_ns() - self._t0
        kernel = calibrate.kernel_s(self.kernel)
        slow = (self._kernel + kernel) / 2 / calibrate.REFERENCE_S
        self._kernel = kernel
        self.slowdowns.append(slow)
        self._pass_ns += block_ns
        self._scaled_ns += block_ns / slow
        for role, vals in self._block.items():
            for entry, ns in vals:
                self._pass[role][entry] = ns / slow
            vals.clear()
        self._t0 = perf_counter_ns()

    def end_pass(self) -> tuple[float, int]:
        """Close a pass; return its scaled and raw wall ns, calibration
        runs excluded."""
        self._close_block()
        for role, by_entry in self._pass.items():
            if by_entry:
                row = array("d", [math.nan]) * (self._entry + 1)
                for entry, ns in by_entry.items():
                    row[entry] = ns / 1e3
                self._passes[role].append(row)
                by_entry.clear()
        return self._scaled_ns, self._pass_ns

    def entries(self, role: str) -> int:
        """Pool entries with at least one latency of this role."""
        return len(self._medians(role))

    def passes(self, role: str) -> int:
        return len(self._passes[role])

    def _medians(self, role: str) -> list:
        rows = self._passes[role]
        width = max((len(r) for r in rows), default=0)
        medians = []
        for entry in range(width):
            vals = [r[entry] for r in rows if not math.isnan(r[entry])]
            if vals:
                medians.append(statistics.median(vals))
        return sorted(medians)

    def latency_us(self, role: str, q: float):
        """q-quantile over entries of each entry's median; None if unseen."""
        medians = self._medians(role)
        return quantile(medians, q) if medians else None

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures[reason] += 1

    def crash(self, exc: Exception) -> None:
        """An untyped exception: a failed operation; the first traceback is shown."""
        self.ops += 1
        self.fail(f"untyped {type(exc).__name__}")
        if not self._shown:
            self._shown = True
            traceback.print_exception(exc, file=sys.stderr)


class Roundtrip:
    """Sender then receiver, per message, on one profile."""

    POOL = {"toy": 4096, "production": 1024}

    def __init__(self, profile_name: str, seed: int):
        self.profile = protocol.get_profile(profile_name)
        self.kernel = (calibrate.BIG_INT if profile_name == "production"
                       else calibrate.MIXED)
        rng = random.Random(f"roundtrip/{profile_name}/{seed}")
        p = self.profile
        self.pool = [(rng.randbytes(32), rng.randrange(1, p.u_bound),
                      rng.randrange(0, p.v_bound), rng.randrange(1 << 64))
                     for _ in range(self.POOL[profile_name])]
        self.setup_counts = Counter()

    def run_pass(self, stats: Stats, tracer=None) -> int:
        profile = self.profile
        for S, u, v, nonce_seed in self.pool:
            stats.tick()
            nonces = random.Random(nonce_seed)
            root = tracer.begin_op() if tracer else None
            t0 = perf_counter_ns()
            data = None
            try:
                for _ in range(MAX_NONCES):
                    z = nonces.randbytes(32)
                    stats.counts["send.attempts"] += 1
                    try:
                        sess = protocol.derive_session(S, z, profile)
                        msg = protocol.alice_generate(sess, u, v)
                    except ProtocolAbort as exc:
                        stats.counts[f"abort.{type(exc).__name__}"] += 1
                        continue
                    data = protocol.serialize(msg)
                    stats.counts["sent"] += 1
                    break
                t1 = perf_counter_ns()
                got = None
                if data is not None:
                    try:
                        got = protocol.bob_verify(
                            S, protocol.deserialize(data, profile), profile)
                    except (BadLength, FieldOverflow, VerificationError) as exc:
                        stats.counts[f"honest.{type(exc).__name__}"] += 1
                t2 = perf_counter_ns()
            except Exception as exc:
                stats.crash(exc)
                continue
            finally:
                if root is not None:
                    tracer.close(root)
            stats.ops += 1
            if data is None:
                stats.fail("no nonce accepted")
                continue
            if len(data) != protocol.MESSAGE_LEN or got != v:
                stats.fail("round trip did not return v")
                continue
            stats.time("send", t1 - t0)
            stats.time("recv", t2 - t1)
            stats.time("op", t2 - t0)
        return len(self.pool)


class RejectMix:
    """Receiver only, over a seeded corpus of honest and tampered messages.

    The mix per pass is fixed: HONEST honest messages, one single-bit
    flip at each of the 1056 wire bits, and the other tampers below,
    each drawn from a random honest base message. Honest messages must
    return v; tampered ones must raise BadLength, FieldOverflow or a
    VerificationError subclass.
    """

    HONEST = 256
    MIX = {"bitflip": protocol.MESSAGE_LEN * 8, "u": 32, "s3": 32,
           "splice": 32, "length": 16, "overflow": 16}

    def __init__(self, seed: int):
        self.profile = p = protocol.PRODUCTION
        self.kernel = calibrate.BIG_INT
        rng = random.Random(f"reject-mix/{seed}")
        M = p.mod.M
        honest = []
        attempts = Counter()
        while len(honest) < self.HONEST:
            S = rng.randbytes(32)
            u = rng.randrange(1, p.u_bound)
            v = rng.randrange(0, p.v_bound)
            while True:
                attempts["send.attempts"] += 1
                try:
                    msg = protocol.alice_generate(
                        protocol.derive_session(S, rng.randbytes(32), p), u, v)
                    break
                except ProtocolAbort as exc:
                    attempts[f"abort.{type(exc).__name__}"] += 1
            attempts["sent"] += 1
            honest.append((S, protocol.serialize(msg), v))
        self.setup_counts = attempts

        corpus = list(honest)
        for bit in range(self.MIX["bitflip"]):
            S, data, _ = rng.choice(honest)
            b = bytearray(data)
            b[bit // 8] ^= 0x80 >> (bit % 8)
            corpus.append((S, bytes(b), None))
        for kind in ("u", "s3", "splice", "length", "overflow"):
            for _ in range(self.MIX[kind]):
                S, data, _ = rng.choice(honest)
                if kind == "u":
                    u = int.from_bytes(data[64:68], "big")
                    new_u = (u + rng.randrange(1, 1 << 32)) % (1 << 32)
                    data = data[:64] + new_u.to_bytes(4, "big") + data[68:]
                elif kind == "s3":
                    data = (data[:32] + rng.randrange(M).to_bytes(32, "big")
                            + data[64:])
                elif kind == "splice":
                    _, other, _ = rng.choice(honest)
                    cut = rng.choice((32, 64, 68, 100))
                    data = data[:cut] + other[cut:]
                elif kind == "length":
                    n = rng.choice((0, 1, 131, 133, 264))
                    data = (data * 2)[:n]
                else:
                    off = rng.choice((0, 32))
                    big = rng.randrange(M, 1 << 256).to_bytes(32, "big")
                    data = data[:off] + big + data[off + 32:]
                corpus.append((S, data, None))
        honest_bytes = {d for _, d, _ in honest}
        # a tamper that reproduces an honest message is not a tamper
        corpus = [e for e in corpus if e[2] is not None or e[1] not in honest_bytes]
        rng.shuffle(corpus)
        self.pool = corpus

    def run_pass(self, stats: Stats, tracer=None) -> int:
        profile = self.profile
        for S, data, expected in self.pool:
            stats.tick()
            root = tracer.begin_op() if tracer else None
            t0 = perf_counter_ns()
            verdict = None
            try:
                try:
                    got = protocol.bob_verify(
                        S, protocol.deserialize(data, profile), profile)
                except (BadLength, FieldOverflow, VerificationError) as exc:
                    verdict = type(exc).__name__
                t1 = perf_counter_ns()
            except Exception as exc:
                stats.crash(exc)
                continue
            finally:
                if root is not None:
                    tracer.close(root)
            stats.ops += 1
            if expected is None:
                if verdict is None:
                    stats.fail("tampered message accepted")
                    continue
                stats.counts[f"reject.{verdict}"] += 1
                stats.time("reject", t1 - t0)
            else:
                if verdict is not None or got != expected:
                    stats.fail("honest message not returned")
                    continue
                stats.counts["accept"] += 1
                stats.time("recv", t1 - t0)
            stats.time("op", t1 - t0)
        return len(self.pool)


class ForgeryGame:
    """Toy forgery games by the random adversary, plus exhaustive sweeps.

    An operation is one game: new_game, random_adversary, adjudicate.
    Every SWEEP_EVERY-th game is also swept by lemma1_exhaustive; the
    sweep is timed on its own and counts in the pass's wall time.
    """

    GAMES = 4096
    SWEEP_EVERY = 16

    def __init__(self, seed: int):
        self.profile = protocol.TOY
        self.kernel = calibrate.MIXED
        rng = random.Random(f"forgery-game/{seed}")
        self.pool = [(rng.randrange(1 << 64), k % self.SWEEP_EVERY == 0)
                     for k in range(self.GAMES)]
        self.setup_counts = Counter()

    def run_pass(self, stats: Stats, tracer=None) -> int:
        profile = self.profile
        game_rng = random.Random()
        adv_rng = random.Random()
        for game_seed, sweep in self.pool:
            stats.tick()
            game_rng.seed(game_seed)
            adv_rng.seed(game_seed + 1)
            root = tracer.begin_op() if tracer else None
            t0 = perf_counter_ns()
            try:
                game = harness.new_game(profile, game_rng)
                forgery = harness.random_adversary(game.view(), adv_rng)
                won = harness.adjudicate(game, forgery)
                t1 = perf_counter_ns()
                if sweep:
                    count, witnesses = harness.lemma1_exhaustive(game)
                    t2 = perf_counter_ns()
            except Exception as exc:
                stats.crash(exc)
                continue
            finally:
                if root is not None:
                    tracer.close(root)
            stats.ops += 1
            stats.counts["games"] += 1
            stats.counts["game.aborts"] += game.aborts
            stats.counts["send.attempts"] += 1 + game.aborts
            stats.counts["sent"] += 1
            msg, v = game.transcript, game.hidden.v
            # Only s* = s3 recovers v and matches the hash (Lemma 1), and
            # the offset must avoid the two honest ones.
            should_win = (forgery.s_star == msg.s3.value and forgery.delta_star
                          not in (2 * v + 1, 2 * msg.u + 2 * v + 1))
            if won != should_win:
                stats.fail("adjudication disagrees with the oracle")
                continue
            stats.counts["wins"] += won
            stats.time("game", t1 - t0)
            stats.time("op", t1 - t0)
            if sweep:
                stats.counts["sweeps"] += 1
                if count != 1 or witnesses != [msg.s3.value]:
                    stats.fail("sweep did not find exactly s3")
                    continue
                stats.time("sweep", t2 - t1)
        return len(self.pool)


WORKLOADS = {
    "toy-roundtrip": lambda seed: Roundtrip("toy", seed),
    "production-roundtrip": lambda seed: Roundtrip("production", seed),
    "production-reject-mix": RejectMix,
    "toy-forgery-game": ForgeryGame,
}
