"""Regenerate perfbench/data: the verify-file record pool and all goldens.

    python3 perfbench/make_goldens.py

Run once, from a checkout root, at the commit the benchmark is anchored
to.  Every golden is what that commit's CLI printed; a later commit that
changes a certificate stream fails the benchmark's golden gate until the
change is deliberate and this script is rerun.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

from run import GOLDENS, POOL, ROOT, SRC, WORKLOADS, invoke, search_argv, sha256_file

# Pool classes: name -> CLI arguments that produce its records, and how
# many of them (in emission order) to keep.
POOL_SEARCHES = {
    "divisibility-p5": (("search", "--mode", "main", "--p", "5", "--max-param", "60"), 40),
    "divisibility-p7": (("search", "--mode", "main", "--p", "7", "--max-param", "80"), 40),
    "divisibility-p11": (("search", "--mode", "main", "--p", "11", "--max-param", "150"), 40),
    "divisibility-p13": (("search", "--mode", "main", "--p", "13", "--max-param", "200"), 60),
    "square-subfamily": (
        ("search", "--mode", "square_subfamily", "--p", "5", "--max-param", "40"), 40),
    "infinite-family": (("search", "--mode", "infinite", "--p", "5", "--max-param", "200"), 60),
}
RANK_ONE_COUNT = 240


def rank_one_pairs(count: int) -> list[tuple[int, int]]:
    """First (s, t) with s even, t = +-3 mod 8, gcd 1 and s^4 + t^2 prime,
    ordered by max(s, t) as the search enumerates them."""
    sys.path.insert(0, str(SRC))
    from ellcert.arith import is_prime

    out = []
    m = 1
    while len(out) < count:
        m += 1
        shell = [(s, m) for s in range(1, m)] + [(m, t) for t in range(1, m + 1)]
        for s, t in shell:
            if (s % 2 == 0 and t % 8 in (3, 5) and math.gcd(s, t) == 1
                    and is_prime(s**4 + t**2)):
                out.append((s, t))
    return out[:count]


def build_pool(work: Path) -> dict:
    lines: list[str] = []
    classes: list[str] = []
    out = work / "out.jsonl"
    for cls, (argv, keep) in POOL_SEARCHES.items():
        out.unlink(missing_ok=True)
        invoke("plain", search_argv(argv, 1, out, None), work)
        got = out.read_text().splitlines()[:keep]
        assert len(got) == keep, (cls, len(got))
        lines += got
        classes += [cls] * keep
    for s, t in rank_one_pairs(RANK_ONE_COUNT):
        out.unlink(missing_ok=True)
        invoke("plain", ("verify", "--mode", "rank", "--s", str(s), "--t", str(t),
                         "--out", str(out)), work)
        lines.append(out.read_text().strip())
        classes.append("rank-one")
    POOL.write_text("".join(line + "\n" for line in lines))

    res = invoke("timed", ("verify", "--file", str(POOL), "--verbose"), work)
    printed = (work / "stdout.txt").read_text().splitlines()
    assert res["exit_code"] == 0 and printed[-1] == f"{len(lines)}/{len(lines)} certificates verified"
    verdicts = []
    for j, row in enumerate(printed[:-1], 1):
        prefix = f"line {j}: ok "
        assert row.startswith(prefix), row
        verdicts.append(row[len(prefix):])
    return {"sha256": sha256_file(POOL), "classes": classes, "verdicts": verdicts}


def search_golden(base: tuple, checkpoint: bool, work: Path) -> dict:
    out, ck = work / "out.jsonl", work / "search.ck"
    out.unlink(missing_ok=True)
    ck.unlink(missing_ok=True)
    res = invoke("timed", search_argv(base, 1, out, ck if checkpoint else None), work)
    assert res["exit_code"] == 0 and res["error"] is None, res.get("error")
    golden = {"sha256": sha256_file(out), "outcomes": res["outcomes"]}
    if checkpoint:
        golden["checkpoint_sha256"] = sha256_file(ck)
    return golden


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        goldens = {"pool": build_pool(work), "search": {}}
        for name, spec in WORKLOADS.items():
            if "argv" not in spec:
                continue
            goldens["search"][name] = {
                size: search_golden(spec[key], spec.get("checkpoint", False), work)
                for size, key in (("full", "argv"), ("smoke", "smoke"))
            }
            print(name, goldens["search"][name]["full"]["outcomes"], file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
