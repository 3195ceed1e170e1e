"""Smoke test for the benchmark itself, at toy size (about half a minute).

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload untraced and traced through the one-command mode and
checks that every metric in BENCHMARK.json is reported with its unit, that
every output check ran and passed on every workload, that the traced run
reproduces the seed code's known shape (28 model fits per pipeline, an
all-hit warm cache, one stub request per pair and replication), and that
every traced layer recorded spans on the workload that runs it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from layertrace import SPAN_TARGETS  # noqa: E402

CHECKS = {
    "warm-deep": {"exit_code", "manifest", "bundle_identical", "cache_unchanged"},
    "cold-http": {"exit_code", "manifest", "bundle_identical", "cache_records",
                  "stub_requests"},
    "recovery-m6": {"exit_code", "recovery_no_failures", "estimates_identical"},
}

SPAN_NAMES = {name for name, _, _ in SPAN_TARGETS}
PIPELINE_SPANS = SPAN_NAMES - {"annotate.request", "synth.generate"}
# Span names each workload must record; MockBackend.complete is traced but
# never runs, since warm-deep's cache answers every request.
EXPECTED_SPANS = {
    "warm-deep": PIPELINE_SPANS,
    "cold-http": PIPELINE_SPANS | {"annotate.request"},
    "recovery-m6": {"synth.generate", "features.table", "regression.fit_model",
                    "regression.filter_rows", "regression.ols"},
}


def test_all_workloads_report_every_metric_and_check():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    assert sorted(workloads) == sorted(CHECKS)

    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--seed", "3", "--seconds", "0", "--size", "toy"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] >= 1

    metrics = bench["end_to_end"] + bench["per_layer"]
    expected = {f"{w}/{m['name']}": m["unit"] for w in workloads for m in metrics}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
    for name, metric in final["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name

    for workload in workloads:
        for trace in (0, 1):
            path = ROOT / ".bench_work" / "results" / f"{workload}-seed3-trace{trace}.json"
            result = json.loads(path.read_text(encoding="utf-8"))
            assert set(result["checks"]) == CHECKS[workload], path
            assert all(c["passed"] >= 1 and c["failed"] == 0
                       for c in result["checks"].values()), result["checks"]
            for key in ("discussions", "posts", "posts_per_discussion_median",
                        "posts_per_discussion_max", "max_depth", "pairs",
                        "expected_requests", "cache_lines", "cache_bytes",
                        "duplicate_pair_share"):
                assert key in result["inputs"], key
            for key in ("nproc", "python", "numpy", "scipy", "git_sha"):
                assert key in result["machine"], key
            stats = result["stats"]
            assert all({"n", "median", "q1", "q3"} <= set(s) for s in stats.values())
            if trace:
                check_traced_shape(workload, result, path.parent)


def check_traced_shape(workload: str, result: dict, results_dir: Path) -> None:
    def exactly(name: str) -> float:
        s = result["stats"][name]
        assert s["q1"] == s["median"] == s["q3"], (workload, name, s)
        return s["median"]

    pairs = result["inputs"]["pairs"]
    if workload != "recovery-m6":
        assert exactly("regression.fit_calls") == 28
    if workload == "warm-deep":
        assert exactly("annotate.cache_hits") == pairs * 12
        assert exactly("annotate.cache_misses") == 0
        assert exactly("annotate.requests") == 0
    if workload == "cold-http":
        assert exactly("annotate.requests") == pairs * 4
        assert exactly("annotate.request_errors") == 0
        assert exactly("annotate.useful_ratio") == 1.0

    spans = json.loads((results_dir / f"{workload}-seed3-trace1-spans.json")
                       .read_text(encoding="utf-8"))
    fired = {row[0] for iteration in spans["iterations"] for row in iteration}
    assert EXPECTED_SPANS[workload] <= fired, EXPECTED_SPANS[workload] - fired
