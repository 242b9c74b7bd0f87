"""The benchmark's own tests, at the smoke size.

    python3 -m pytest perfbench -q -p no:cacheprovider

Each smoke run goes through the same code as a timed run: fresh child
interpreters, the golden gate, the two-worker determinism rerun and the
defect probes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from run import END_TO_END, PROBES, ROOT, WORKLOADS, end_to_end, per_layer_metrics
from tracer import LAYERS, aggregate, self_times

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == per_layer_metrics()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_and_goldens(workload):
    out = result_of(run_bench(workload, trace=0))
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == dict(END_TO_END)
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", ["search-main-p13-ckpt", "verify-file"])
def test_per_layer_metrics(workload):
    proc = run_bench(workload, trace=1)
    out = result_of(proc)
    assert out["correct"] is True
    assert {k: v["unit"] for k, v in out["metrics"].items()} == dict(per_layer_metrics())
    m = {k: v["value"] for k, v in out["metrics"].items()}
    layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    outside = m["trace.startup_s"] + m["trace.exit_s"]
    assert layers + outside == pytest.approx(m["trace.wall_s"], abs=1e-9)
    if workload == "verify-file":
        # every probe is an attempted operation; those that end in an
        # exception are the only failures
        probe_lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("probe ")]
        errored = sum(": errored:" in ln for ln in probe_lines)
        assert len(probe_lines) == len(PROBES)
        assert m["failed_share"] == errored / (out["attempted"] + len(PROBES))
        assert m["descent.selmer_calls"] > 0 and m["cli.pairs_enumerated"] == 0
    else:
        assert m["failed_share"] == 0
        assert m["cli.checkpoint_writes"] > 0 and m["curve.torsion_calls"] == 0


def test_self_times_partition_the_root_span():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["certify.certify_divisibility", 1.0, 6.0, 0, None],
        ["curve.has_rational_m_torsion", 2.0, 5.0, 1, None],
        ["arith.factorize", 3.0, 4.0, 2, None],
        ["heights.canonical_height", 7.0, 8.0, 0, None],
    ]
    assert self_times(spans) == [4.0, 2.0, 2.0, 1.0, 1.0]
    m = aggregate({"spans": spans, "counts": {}}, -2.0, 13.0, {"certified": 1})
    assert m["trace.startup_s"] == 2.0 and m["trace.exit_s"] == 1.0
    layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert layers + m["trace.startup_s"] + m["trace.exit_s"] == 13.0
    assert m["curve.torsion_s"] == 2.0 and m["arith.factorize_calls"] == 1


def test_time_metrics_keep_each_stretch_at_its_fastest():
    def invocation(spawned, wall, starts, verdicts, ok=True):
        return {"ok": ok, "spawned": spawned, "wall_s": wall, "verdict_start": starts,
                "verdict_s": verdicts, "outcomes": {"certified": 2},
                "setup_s": starts[0] - spawned, "peak_rss_kb": 2048}

    runs = [
        invocation(0.0, 10.0, [2.0, 5.0], [1.0, 3.0]),  # stretches 2, 3, 5
        invocation(100.0, 8.0, [103.0, 105.0], [2.0, 2.5]),  # stretches 3, 2, 3
        invocation(200.0, 1.0, [200.5, 200.6], [0.1, 0.1], ok=False),
    ]
    m = end_to_end(SimpleNamespace(tail=50.0), runs)
    assert m["records_per_s"] == pytest.approx(2 / (2 + 2 + 3) * 2 / 3)
    assert m["verdict_p50_ms"] == pytest.approx(1000.0 * (1.0 + 2.5) / 2)
    assert m["setup_s"] == 2.0 and m["peak_rss_mb"] == 2.0


def test_refuses_to_run_without_the_sources():
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("verify-file", trace=0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
