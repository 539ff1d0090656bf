#!/usr/bin/env python3
"""fourpoint benchmark: one client in a closed loop, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload toy-roundtrip --seed 1 --seconds 20 --trace 0

The run first regenerates the pinned wire vectors in
tests/fixtures/vectors.txt and verifies them back to v; any difference
fails the run. It then builds the workload's inputs from --seed, untimed,
runs one warm-up pass and measures whole passes for --seconds. Timed
figures are scaled for the host's drifting speed as calibrate.py
describes; the report prints the slowdown it measured.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced passes with passes traced through the wrappers in
spans.py and reports the per-layer metrics; end-to-end figures never come
from traced passes. Spans of a traced run are written to
.bench_trace/<workload>-<seed>.csv.gz.

A readable report comes first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The
exit code is 0 only when every output was correct.
"""

import argparse
from collections import Counter
import json
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter_ns

import calibrate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
VECTORS = ROOT / "tests" / "fixtures" / "vectors.txt"
TRACE_DIR = ROOT / ".bench_trace"

SETUP_REPEATS = 15  # fresh interpreters timed per run for setup_s
MIN_PASSES = 3      # timed passes per kind, however short --seconds is

WORKLOAD_NAMES = ("toy-roundtrip", "production-roundtrip",
                  "production-reject-mix", "toy-forgery-game")

# Gated end-to-end metrics (BENCHMARK.json), defined on every workload.
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_us", "us"),
              ("op_p99_us", "us"), ("peak_rss_mb", "MB"))

# The full per-role report; a role a workload does not exercise reads n/a.
REPORT = (("send", (0.5, 0.99)), ("recv", (0.5, 0.99)),
          ("reject", (0.5, 0.99)), ("game", (0.5, 0.99)),
          ("sweep", (0.5, 0.9)))

ABORTS = ("AbortZeroIndex", "AbortSingular", "AbortNonInvertible")
REJECTS = (("protocol.deserialize", "BadLength"),
           ("protocol.deserialize", "FieldOverflow"),
           ("protocol.bob_verify", "RejectSession"),
           ("protocol.bob_verify", "RejectDenominator"),
           ("protocol.bob_verify", "RejectRange"),
           ("protocol.bob_verify", "RejectHash"))

# (metric, span, statistic); statistic is calls per operation, mean
# inclusive microseconds per call, or mean self microseconds per call.
SPAN_METRICS = (
    ("modmath.pow.calls_per_msg", "modmath.pow", "calls"),
    ("modmath.pow.us", "modmath.pow", "us"),
    ("modmath.mod_pow.calls_per_msg", "modmath.mod_pow", "calls"),
    ("modmath.mod_pow.us", "modmath.mod_pow", "us"),
    ("modmath.mod_inv.calls_per_msg", "modmath.mod_inv", "calls"),
    ("modmath.mod_inv.us", "modmath.mod_inv", "us"),
    ("modmath.EvalPoint.calls_per_msg", "modmath.EvalPoint", "calls"),
    ("modmath.EvalPoint.us", "modmath.EvalPoint", "us"),
    ("genfunc.s_M.calls_per_msg", "genfunc.s_M", "calls"),
    ("genfunc.s_M.us", "genfunc.s_M", "us"),
    ("genfunc.s_M.self_us", "genfunc.s_M", "self_us"),
    ("oscillator.eval_at.calls_per_msg", "oscillator.eval_at", "calls"),
    ("oscillator.eval_at.us", "oscillator.eval_at", "us"),
    ("oscillator.generate.calls_per_msg", "oscillator.generate", "calls"),
    ("oscillator.generate.us", "oscillator.generate", "us"),
    ("protocol.derive_session.calls_per_msg", "protocol.derive_session", "calls"),
    ("protocol.derive_session.us", "protocol.derive_session", "us"),
    ("protocol.alice_generate.us", "protocol.alice_generate", "us"),
    ("protocol.alice_generate.self_us", "protocol.alice_generate", "self_us"),
    ("protocol.bob_verify.us", "protocol.bob_verify", "us"),
    ("protocol.bob_verify.self_us", "protocol.bob_verify", "self_us"),
    ("protocol.compute_check.us", "protocol.compute_check", "us"),
    ("protocol.serialize.us", "protocol.serialize", "us"),
    ("protocol.deserialize.us", "protocol.deserialize", "us"),
    ("invariant.check_denominator.us", "invariant.check_denominator", "us"),
    ("invariant.recover_v.calls_per_msg", "invariant.recover_v", "calls"),
    ("invariant.recover_v.us", "invariant.recover_v", "us"),
    ("harness.new_game.us", "harness.new_game", "us"),
    ("harness.adjudicate.us", "harness.adjudicate", "us"),
    ("harness.lemma1_exhaustive.us", "harness.lemma1_exhaustive", "us"),
)

PER_LAYER = (
    [(name, "calls/op" if stat == "calls" else "us")
     for name, _, stat in SPAN_METRICS]
    + [(f"protocol.abort.{cls}", "1/kop") for cls in ABORTS]
    + [(f"protocol.reject.{cls}", "1/kop") for _, cls in REJECTS]
    + [("protocol.derive_session.attempts_per_msg", "1/msg"),
       ("harness.new_game.aborts_per_game", "1/game"),
       ("oscillator.generate.table_share", "ratio"),
       ("modmath.is_probable_prime.us", "us"),
       ("trace.overhead", "x"),
       ("trace.coverage", "ratio")])


def check_vectors(protocol) -> tuple[int, list]:
    """Regenerate every pinned vector and verify it back to v."""
    attempted = 0
    bad = []
    for line in VECTORS.read_text(encoding="ascii").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        attempted += 1
        name, S_hex, z_hex, u, v, want = line.split()
        S, z, u, v = bytes.fromhex(S_hex), bytes.fromhex(z_hex), int(u), int(v)
        profile = protocol.get_profile(name)
        try:
            sess = protocol.derive_session(S, z, profile)
            got = protocol.serialize(protocol.alice_generate(sess, u, v)).hex()
            back = protocol.bob_verify(
                S, protocol.deserialize(bytes.fromhex(want), profile), profile)
        except Exception as exc:
            bad.append(f"{z_hex[:16]}: {type(exc).__name__}: {exc}")
            continue
        if got != want or back != v:
            bad.append(f"{z_hex[:16]}: bytes or v differ")
    return attempted, bad


# Runs in a fresh interpreter: times the import, then the calibration
# kernel in the same process, on whichever core the child was given.
_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter_ns()
import fourpoint.cli
t1 = time.perf_counter_ns()
sys.path.insert(0, sys.argv[1])
import calibrate
print((t1 - t0) / 1e9, sum(calibrate.kernel_s() for _ in range(10)) / 10)
"""


def measure_setup_s() -> list:
    """Seconds for fresh interpreters to import fourpoint.cli, host-scaled.

    Each child times its own import of fourpoint.cli, which builds the
    three profiles and runs the production primality test, then runs
    the calibration kernel; the import time is scaled by that kernel
    time, because a child may run on the other core, whose speed the
    kernel in this process does not see. The interpreter's own start,
    which the package cannot change, is left out.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-c", _SETUP_CHILD, str(HERE)]
    times = []
    for k in range(SETUP_REPEATS + 1):
        out = subprocess.run(cmd, env=env, check=True, timeout=60, text=True,
                             stdin=subprocess.DEVNULL, capture_output=True)
        import_s, kernel_s = map(float, out.stdout.split())
        if k:  # the first start also writes bytecode caches
            times.append(import_s * calibrate.REFERENCE_S / kernel_s)
    return times


def timed_passes(work, stats, seconds, tracer=None):
    """Untraced, or alternating untraced and traced, passes for `seconds`.

    Rates and latencies are scaled for host speed block by block (see
    Stats); latencies are recorded in untraced passes only. Returns the
    scaled ops/s of each untraced pass, the scaled ops/s and raw wall ns
    of each traced pass, the outside counts of the warm-up pass, and the
    trace sites this version of the package lacks.
    """
    plain, traced, traced_ns, absent = [], [], [], []

    def one_pass(tracer=None, record=True):
        stats.record = record and tracer is None
        stats.begin_pass()
        n = work.run_pass(stats, tracer)
        scaled_ns, raw_ns = stats.end_pass()
        return n / (scaled_ns / 1e9), raw_ns

    one_pass(record=False)
    warm_counts = Counter(stats.counts)
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while True:
        plain.append(one_pass()[0])
        if tracer is not None:
            restore, absent = spans.install(tracer)
            try:
                rate, dt = one_pass(tracer)
            finally:
                spans.uninstall(restore)
            traced.append(rate)
            traced_ns.append(dt)
        if perf_counter_ns() >= deadline and len(plain) >= MIN_PASSES:
            return plain, traced, traced_ns, warm_counts, absent


def per_layer_metrics(work, tracer, counts, plain, traced, traced_ns):
    import fourpoint

    summary = tracer.summarize()
    span_stats = summary["spans"]
    ops = len(work.pool) * len(traced)
    metrics = {}
    for name, span, stat in SPAN_METRICS:
        s = span_stats.get(span, {"calls": 0, "incl_ns": 0, "self_ns": 0})
        calls = s["calls"]
        if stat == "calls":
            value = calls / ops
        elif stat == "us":
            value = s["incl_ns"] / calls / 1e3 if calls else 0.0
        else:
            value = s["self_ns"] / calls / 1e3 if calls else 0.0
        metrics[name] = value
    for cls in ABORTS:
        n = sum(tracer.errors[span, cls] for span in
                ("protocol.derive_session", "protocol.alice_generate"))
        metrics[f"protocol.abort.{cls}"] = 1000 * n / ops
    for span, cls in REJECTS:
        metrics[f"protocol.reject.{cls}"] = 1000 * tracer.errors[span, cls] / ops
    sender = counts + work.setup_counts
    metrics["protocol.derive_session.attempts_per_msg"] = (
        sender["send.attempts"] / sender["sent"])
    metrics["harness.new_game.aborts_per_game"] = (
        counts["game.aborts"] / counts["games"] if counts["games"] else 0.0)
    gen_calls = span_stats.get("oscillator.generate", {}).get("calls", 0)
    metrics["oscillator.generate.table_share"] = (
        tracer.tags["oscillator.generate", "table"] / gen_calls
        if gen_calls else 0.0)
    prime = fourpoint.protocol.PRODUCTION_PRIME
    prime_us = []
    for _ in range(5):
        t0 = perf_counter_ns()
        fourpoint.Modulus(prime)
        prime_us.append((perf_counter_ns() - t0) / 1e3)
    metrics["modmath.is_probable_prime.us"] = statistics.median(prime_us)
    metrics["trace.overhead"] = statistics.median(plain) / statistics.median(traced)
    metrics["trace.coverage"] = summary["top_ns"] / sum(traced_ns)
    return metrics, span_stats


def report_trace(args, work, tracer, counts, plain, traced, traced_ns,
                 absent) -> dict:
    """Print the span table, write the spans; return per-layer metrics."""
    metrics, span_stats = per_layer_metrics(work, tracer, counts, plain,
                                            traced, traced_ns)
    ops = len(work.pool) * len(traced)
    print(f"{'span':32} {'calls/op':>10} {'incl us':>10} {'self us':>10}")
    for name, s in sorted(span_stats.items()):
        print(f"{name:32} {s['calls'] / ops:10.3f} "
              f"{s['incl_ns'] / s['calls'] / 1e3:10.2f} "
              f"{s['self_ns'] / s['calls'] / 1e3:10.2f}")
    for (span, cls), n in sorted(tracer.errors.items()):
        print(f"  raised {span} -> {cls}: {n}")
    for site in absent:
        print(f"  absent: {site} (not wrapped; its metrics read 0)")
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-{args.seed}.csv.gz"
    tracer.write(path)
    print(f"{len(tracer.name)} spans written to {path.relative_to(ROOT)}")
    return metrics


def report_end_to_end(stats, setup, plain, attempted, failed) -> dict:
    """Print the full end-to-end table; return the gated metrics."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def latency_rows(report):
        for role, qs in report:
            n = f"{stats.entries(role)} inputs x {stats.passes(role)} passes"
            for q in qs:
                value = stats.latency_us(role, q)
                text = f"{value:12.1f}" if value is not None else f"{'n/a':>12}"
                print(f"{role}_p{round(q * 100)}_us".ljust(14) + f" {text} us    {n}")

    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(plain),
        "op_p50_us": stats.latency_us("op", 0.5) or 0.0,
        "op_p99_us": stats.latency_us("op", 0.99) or 0.0,
        "peak_rss_mb": rss_mb,
    }
    print(f"{'metric':14} {'value':>12} {'unit':4}  samples")
    print(f"{'setup_s':14} {metrics['setup_s']:12.4f} s     "
          f"{len(setup)} interpreter starts")
    print(f"{'ops_per_s':14} {metrics['ops_per_s']:12.1f} 1/s   {len(plain)} passes")
    latency_rows(REPORT)
    print(f"{'fail_ratio':14} {failed / attempted:12.6f} 1     {attempted} operations")
    print(f"{'peak_rss_mb':14} {rss_mb:12.2f} MB")
    latency_rows((("op", (0.5, 0.99)),))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not SRC.is_dir() or not VECTORS.is_file():
        print(f"perfbench: needs {SRC.name}/ and {VECTORS.relative_to(ROOT)} "
              f"next to {HERE.name}/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import fourpoint
        from fourpoint import protocol
    except ImportError as exc:
        print(f"perfbench: cannot import fourpoint from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(fourpoint.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: fourpoint imported from {fourpoint.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Stats

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}")
    vec_attempted, vec_bad = check_vectors(protocol)
    for line in vec_bad:
        print(f"vector mismatch {line}")
    print(f"vectors: {vec_attempted - len(vec_bad)}/{vec_attempted} regenerate "
          "byte-for-byte and verify back to v")

    setup = measure_setup_s() if not args.trace else []
    work = WORKLOADS[args.workload](args.seed)
    stats = Stats(work.kernel)
    tracer = spans.Tracer() if args.trace else None
    plain, traced, traced_ns, counts, absent = timed_passes(
        work, stats, args.seconds, tracer)

    attempted = stats.ops + vec_attempted
    failed = stats.failed + len(vec_bad)
    correct = failed == 0
    print(f"pool={len(work.pool)} passes={len(plain)} untraced"
          + (f" + {len(traced)} traced" if traced else "")
          + f"; attempted={attempted} failed={failed}")
    slow = statistics.quantiles(stats.slowdowns, n=10)
    print(f"host slowdown (kernel time / {calibrate.REFERENCE_S} s) over "
          f"{len(stats.slowdowns)} blocks: median {statistics.median(stats.slowdowns):.3f}, "
          f"deciles 1 and 9 {slow[0]:.3f} {slow[8]:.3f}")
    print("timings below are scaled to a slowdown of 1")
    for reason, n in sorted(stats.failures.items()):
        print(f"  failure: {reason}: {n}")
    if work.setup_counts:
        print("set-up sender counts: " + ", ".join(
            f"{k}={v}" for k, v in sorted(work.setup_counts.items())))
    print("counts per pass: " + (", ".join(
        f"{k}={v}" for k, v in sorted(counts.items())) or "none"))

    if args.trace:
        metrics = report_trace(args, work, tracer, counts, plain, traced,
                               traced_ns, absent)
        units = dict(PER_LAYER)
    else:
        metrics = report_end_to_end(stats, setup, plain, attempted, failed)
        units = dict(END_TO_END)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
