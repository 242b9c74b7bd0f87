"""ellcert benchmark: the real CLI, one fresh interpreter per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the package is taken from ``src/``, so
no install or build step exists.  Each run is a closed loop with one
client: it starts ``ellcert search`` or ``ellcert verify --file`` with
``--workers 1`` in a new interpreter, waits for it to exit, checks its
output against the committed goldens, and starts the next one while the
next still fits in S seconds.  A fresh interpreter per invocation means
each pays for imports and for filling the ``lru_cache`` tables in
``descent``, exactly as a user's run does.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced invocations and prints the per-layer metrics of
``tracer.py`` plus the tracing overhead (traced minus untraced wall).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

No system-level control is used: no CPU pinning, no cache dropping, no
cgroup or scheduler changes.  Only this process and its children are
timed, with ``time.monotonic``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "data" / "goldens.json"
POOL = HERE / "data" / "pool.jsonl"
CHILD_TIMEOUT_S = 150
MIN_INVOCATIONS = 3  # untraced invocations a run takes its floors over

sys.path.insert(0, str(HERE))
from tracer import LAYERS, aggregate  # noqa: E402

# Search inputs are fixed by their CLI arguments; the seed only drives the
# verify-file draw.  ``tail`` is the highest percentile (of 90, 95, 97.5,
# 98, 99, 99.5) with at least ten of an invocation's candidates beyond it.
# Two workloads, so that each run can be long: on a shared machine the
# floors of a long run move least (see README.md).  Together they reach
# every layer.  Torsion-bound search (--p 5) spreads too much from run to
# run there to hold a 25 % bound; torsion is measured inside verify-file.
WORKLOADS = {
    # no torsion and no descent: enumeration + cheap filter over M^2 pairs,
    # heights, local conditions, serialization, one checkpoint write per
    # candidate.  Mechanism for pair generation and checkpoint batching;
    # the workload where torsion or descent changes predict no change.
    "search-main-p13-ckpt": {
        "argv": ("search", "--mode", "main", "--p", "13", "--max-param", "400"),
        "smoke": ("search", "--mode", "main", "--p", "13", "--max-param", "200"),
        "checkpoint": True,
        "tail": 99.0,  # of 1110 candidates
    },
    # re-verification of a seeded draw from the committed pool: parse,
    # re-certify, compare; no enumeration.  Descent is its largest layer.
    "verify-file": {
        "draw": 240, "smoke_draw": 12,
        "tail": 95.0,  # of 240 records
    },
}

# Draw composition per pool class, as a share of the records drawn.
# Rank-one fragments and p >= 11 divisibility keep torsion a minor layer.
DRAW_WEIGHTS = {
    "rank-one": 0.45,
    "infinite-family": 0.15,
    "divisibility-p13": 0.15,
    "divisibility-p11": 0.10,
    "divisibility-p7": 0.05,
    "divisibility-p5": 0.05,
    "square-subfamily": 0.05,
}

# CLI inputs that end in a traceback at the commit the goldens come from
# (a factorize ValueError through the torsion check).  They are attempted operations
# of verify-file and count toward failed_share until the defect is fixed.
PROBES = (
    ("verify", "--mode", "main", "--p", "5", "--s", "1009", "--t", "50"),
    ("verify", "--mode", "main", "--p", "5", "--s", "1013", "--t", "50"),
    ("verify", "--mode", "main", "--p", "5", "--s", "1019", "--t", "50"),
    ("verify", "--mode", "main", "--p", "5", "--s", "1091", "--t", "50"),
    ("verify", "--mode", "main", "--p", "5", "--s", "1093", "--t", "50"),
    ("verify", "--mode", "main", "--p", "7", "--s", "1035", "--t", "98"),
)

# The workload whose stream is re-produced once per run with two workers.
DETERMINISM_WORKLOAD = "search-main-p13-ckpt"

END_TO_END = (
    ("records_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Names and units printed by ``--trace 1``, in order."""
    names = [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
             ("trace.overhead_s", "s"), ("trace.overhead_share", "share"),
             ("trace.startup_s", "s"), ("trace.exit_s", "s"), ("trace.spans", "count"),
             ("failed_share", "share")]
    sample = aggregate({"spans": [], "counts": {}}, 0.0, 0.0, {})
    for name in sample:
        if name.startswith("trace."):
            continue
        if name.endswith("_s"):
            names += [(name, "s"), (name[:-2] + "_share", "share")]
        elif name.endswith(("_ratio", "_share")):
            names.append((name, "share"))
        elif name.endswith("bytes_out"):
            names.append((name, "B"))
        else:
            names.append((name, "count"))
    return names


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.pop("ELLCERT_WORKERS", None)
    return env


def invoke(mode: str, argv, work: Path) -> dict:
    """One child interpreter; returns its result plus wall and setup time."""
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(result_path), *argv]
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        # own session, so that a timeout also ends the child's worker processes
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=work,
                                start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        wall = time.monotonic() - t0
    if proc.returncode != 0 or not result_path.exists():
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"benchmark child failed ({proc.returncode}): {tail}")
    res = json.loads(result_path.read_text())
    res["spawned"], res["wall_s"] = t0, wall
    first = res.get("first_dispatch")
    res["setup_s"] = first - t0 if first is not None else None
    return res


def search_argv(base: tuple, workers: int, out: Path, checkpoint: Path | None) -> tuple:
    argv = base + ("--workers", str(workers), "--out", str(out))
    if checkpoint is not None:
        argv += ("--checkpoint", str(checkpoint))
    return argv


class Workload:
    """One named workload at one size and seed: its CLI arguments and goldens."""

    def __init__(self, name: str, seed: int, smoke: bool, work: Path):
        spec = WORKLOADS[name]
        goldens = json.loads(GOLDENS.read_text())
        self.seed, self.work = seed, work
        self.tail = spec["tail"]
        self.min_invocations = 1 if smoke else MIN_INVOCATIONS
        self.out = work / "out.jsonl"
        self.checkpoint = work / "search.ck" if spec.get("checkpoint") else None
        if "draw" in spec:
            n = spec["smoke_draw"] if smoke else spec["draw"]
            self.golden = self._write_draw(goldens["pool"], n, work / "draw.jsonl")
            self.argv = ("verify", "--file", str(work / "draw.jsonl"), "--verbose")
        else:
            self.golden = goldens["search"][name]["smoke" if smoke else "full"]
            self.search = spec["smoke" if smoke else "argv"]
            self.argv = search_argv(self.search, 1, self.out, self.checkpoint)

    def _write_draw(self, pool_golden: dict, n: int, path: Path) -> dict:
        """Seeded draw from the pool: a fixed count per class, one record
        from each of that many consecutive blocks of the class, and the seed
        picks the record in each block and the order.  A class lists its
        records by increasing max(s, t), so blocks hold records of similar
        cost and the draw's cost varies little from seed to seed.  Returns
        the draw's golden."""
        if sha256_file(POOL) != pool_golden["sha256"]:
            raise RuntimeError("perfbench/data/pool.jsonl does not match its golden")
        lines = POOL.read_text().splitlines()
        by_class: dict[str, list[int]] = {}
        for i, cls in enumerate(pool_golden["classes"]):
            by_class.setdefault(cls, []).append(i)
        rng = random.Random(self.seed)
        picked = []
        for cls, weight in DRAW_WEIGHTS.items():
            members, k = by_class[cls], max(1, round(weight * n))
            bounds = [len(members) * j // k for j in range(k + 1)]
            picked += [members[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
        rng.shuffle(picked)
        path.write_text("".join(lines[i] + "\n" for i in picked))
        expected = "".join(
            f"line {j}: ok {pool_golden['verdicts'][i]}\n"
            for j, i in enumerate(picked, 1))
        expected += f"{len(picked)}/{len(picked)} certificates verified\n"
        return {
            "stdout_sha256": hashlib.sha256(expected.encode()).hexdigest(),
            "outcomes": {"certified": len(picked)},
        }

    def run_once(self, mode: str) -> dict:
        self.out.unlink(missing_ok=True)
        if self.checkpoint is not None:
            self.checkpoint.unlink(missing_ok=True)
        res = invoke(mode, self.argv, self.work)
        res["ok"] = self.matches_golden(res)
        return res

    def matches_golden(self, res: dict) -> bool:
        if res["exit_code"] != 0 or res["error"] is not None:
            return False
        if res["outcomes"] != self.golden["outcomes"]:
            return False
        if "stdout_sha256" in self.golden:
            return sha256_file(self.work / "stdout.txt") == self.golden["stdout_sha256"]
        if sha256_file(self.out) != self.golden["sha256"]:
            return False
        return (self.checkpoint is None
                or sha256_file(self.checkpoint) == self.golden["checkpoint_sha256"])

    def determinism_ok(self) -> bool:
        """Same stream with two workers as with one (untimed)."""
        self.out.unlink(missing_ok=True)
        if self.checkpoint is not None:
            self.checkpoint.unlink(missing_ok=True)
        res = invoke("plain", search_argv(self.search, 2, self.out, self.checkpoint),
                     self.work)
        return res["exit_code"] == 0 and sha256_file(self.out) == self.golden["sha256"]

    def probes(self) -> list[dict]:
        return invoke("probes", [json.dumps(PROBES)], self.work)["probes"]


def closed_loop(wl: Workload, seconds: float, modes: tuple[str, ...]) -> list[dict]:
    """Invoke, cycling through ``modes``, while the next invocation still
    fits in ``seconds``; at least ``wl.min_invocations`` untraced ones."""
    results: list[dict] = []
    start = time.monotonic()
    while True:
        results.append(wl.run_once(modes[len(results) % len(modes)]))
        elapsed = time.monotonic() - start
        untraced = sum(r["mode"] == "timed" for r in results)
        if (len(results) >= len(modes) and untraced >= wl.min_invocations
                and elapsed * (len(results) + 1) / len(results) > seconds):
            return results


def stretches(r: dict) -> list[float]:
    """An invocation cut at its dispatches: spawn to the first dispatch,
    each dispatch to the next (the verdict plus the enumeration, writing
    and checkpointing up to the next candidate), the last one to exit."""
    marks = [r["spawned"], *r["verdict_start"], r["spawned"] + r["wall_s"]]
    return [b - a for a, b in zip(marks, marks[1:])]


def end_to_end(wl: Workload, runs: list[dict]) -> dict:
    """Floors over the run's invocations, so that load from other tenants
    of the machine, which only ever slows a stretch of work down, moves
    neither the rates nor the verdict times.

    Every invocation that matches its golden dispatches the same candidates
    (or records) in the same order.  So each candidate's verdict time is its
    fastest over the invocations, and the p50 and the tail are taken over
    those.  The floor wall is the sum, over the stretches of ``stretches``,
    of the fastest time any invocation took for that stretch; certificates
    per second of it, scaled by the share of invocations that matched,
    is the throughput."""
    ok = [r for r in runs if r["ok"]]
    if ok:
        per_candidate = [min(times) for times in zip(*(r["verdict_s"] for r in ok))]
        floor_wall = sum(min(s) for s in zip(*map(stretches, ok)))
        rate = ok[0]["outcomes"].get("certified", 0) / floor_wall * len(ok) / len(runs)
    else:
        per_candidate, rate = [math.nan], 0.0
    return {
        "records_per_s": rate,
        "verdict_p50_ms": 1000.0 * statistics.median(per_candidate),
        "verdict_tail_ms": 1000.0 * percentile(per_candidate, wl.tail),
        "setup_s": statistics.median(
            r["setup_s"] for r in runs if r["setup_s"] is not None),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in runs) / 1024.0,
    }


def per_layer(runs: list[dict]) -> dict:
    """Layer numbers of the traced invocation with the median wall, so that
    its self times add up to its wall; overhead against the untraced median."""
    traced = sorted((r for r in runs if r["mode"] == "traced"), key=lambda r: r["wall_s"])
    r = traced[(len(traced) - 1) // 2]
    out = aggregate(r["trace"], r["spawned"], r["wall_s"], r["outcomes"])
    for name in list(out):
        if name.endswith("_s") and not name.startswith("trace."):
            out[name[:-2] + "_share"] = out[name] / r["wall_s"]
    untraced = statistics.median(r["wall_s"] for r in runs if r["mode"] == "timed")
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced
    out["trace.overhead_share"] = out["trace.overhead_s"] / untraced
    return out


def operations(r: dict) -> int:
    return sum(r["outcomes"].values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs with their own goldens, for the benchmark's tests")
    args = ap.parse_args(argv)
    if not (SRC / "ellcert" / "cli.py").is_file():
        print(f"no ellcert sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = Workload(args.workload, args.seed, args.smoke, work)
        modes = ("timed", "traced") if args.trace else ("timed",)
        runs = closed_loop(wl, args.seconds, modes)
        attempted = sum(operations(r) for r in runs)
        # an invocation that matches its golden has no errored outcome
        failed = sum(operations(r) for r in runs if not r["ok"])
        correct = all(r["ok"] for r in runs)
        if args.workload == DETERMINISM_WORKLOAD:
            correct = wl.determinism_ok() and correct
        probes = wl.probes() if "draw" in WORKLOADS[args.workload] else []
        probe_failed = sum(p["outcome"].startswith("errored") for p in probes)
        for p in probes:
            print(f"probe {' '.join(p['argv'])}: {p['outcome']}", file=sys.stderr)

        if args.trace:
            values = per_layer(runs)
            values["failed_share"] = (failed + probe_failed) / (attempted + len(probes))
            units = per_layer_metrics()
        else:
            values = end_to_end(wl, runs)
            units = END_TO_END
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for r in runs:
        print(f"{r['mode']} wall {r['wall_s']:.3f} s cpu {r['cpu_s']:.3f} s "
              f"setup {r['setup_s']} s ok {r['ok']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
