"""Tests of the benchmark itself: output schema, exact counts, portability.

Run from the repository root with `python3 -m pytest perfbench`. The
schema is pinned by names and units, never by timings.
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Stats  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())

PINNED_END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_us", "us"),
                     ("op_p99_us", "us"), ("peak_rss_mb", "MB")]


def _names_units(entries):
    return [(e["name"], e["unit"]) for e in entries]


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_schema_is_pinned():
    assert _names_units(BENCH["end_to_end"]) == PINNED_END_TO_END
    assert list(run.END_TO_END) == PINNED_END_TO_END
    assert _names_units(BENCH["per_layer"]) == list(run.PER_LAYER)
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert sorted(SPEC["workloads"]) == sorted(run.WORKLOAD_NAMES)
    assert sorted(SPEC["per_layer"]) == sorted(n for n, _ in run.PER_LAYER)
    bounds = {e["name"]: e["bound"] for e in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "0",
                     "--seconds", "0.01", "--trace", "0"]) == 0
    out = capsys.readouterr().out
    res = _last_json(out)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 8
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == PINNED_END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())
    for name in ("send_p50_us", "recv_p99_us", "reject_p50_us", "game_p99_us",
                 "sweep_p90_us", "fail_ratio"):
        assert f"\n{name} " in out


def test_traced_run_reports_every_per_layer_metric(capsys):
    assert run.main(["--workload", "toy-forgery-game", "--seed", "0",
                     "--seconds", "0.01", "--trace", "1"]) == 0
    res = _last_json(capsys.readouterr().out)
    assert res["correct"]
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == list(run.PER_LAYER)
    assert res["metrics"]["trace.coverage"]["value"] >= 0.9


def _traced_pass(workload: str, seed: int):
    work = WORKLOADS[workload](seed)
    tracer = spans.Tracer()
    stats = Stats()
    stats.begin_pass()
    restore, absent = spans.install(tracer)
    try:
        work.run_pass(stats, tracer)
    finally:
        spans.uninstall(restore)
    assert absent == []
    calls = {name: s["calls"] for name, s in tracer.summarize()["spans"].items()}
    return len(work.pool), calls, tracer.errors, tracer.tags


def test_traced_counts_repeat_and_match_the_construction():
    first = _traced_pass("production-roundtrip", 0)
    assert _traced_pass("production-roundtrip", 0) == first
    ops, calls, _, _ = first
    per_trip = {name: n / ops for name, n in calls.items()}
    assert per_trip["genfunc.s_M"] == 6
    assert per_trip["modmath.pow"] == 6
    assert per_trip["modmath.mod_pow"] == 3
    assert per_trip["modmath.mod_inv"] == 13
    assert per_trip["oscillator.generate"] == 4


def test_uninstall_restores_the_package():
    import fourpoint.modmath as modmath
    import fourpoint.protocol as protocol
    before = (protocol.s_M, modmath.FieldElem.__dict__["__pow__"])
    restore, _ = spans.install(spans.Tracer())
    assert protocol.s_M is not before[0]
    spans.uninstall(restore)
    assert (protocol.s_M, modmath.FieldElem.__dict__["__pow__"]) == before


def test_a_missing_site_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "SITES", spans.SITES + (
        ("fourpoint.protocol", "no_such_layer", "protocol.no_such_layer"),
        ("fourpoint.modmath", "NoSuchClass.method", "modmath.none")))
    restore, absent = spans.install(spans.Tracer())
    spans.uninstall(restore)
    assert absent == ["fourpoint.protocol.no_such_layer",
                      "fourpoint.modmath.NoSuchClass.method"]


def test_outside_counts_repeat_for_a_seed():
    def first_pass():
        work = WORKLOADS["production-reject-mix"](3)
        stats = Stats()
        stats.begin_pass()
        work.run_pass(stats)
        stats.end_pass()
        tampered = sum(expected is None for _, _, expected in work.pool)
        return stats.counts, stats.failed, tampered

    counts, failed, tampered = first_pass()
    assert failed == 0
    assert first_pass() == (counts, 0, tampered)
    assert counts["accept"] == WORKLOADS["production-reject-mix"].HONEST
    assert sum(n for k, n in counts.items() if k.startswith("reject.")) == tampered


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable] + BENCH["command"][1:] + [
        "--workload", "toy-roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
