"""The outcome grid: every CLI theorem over a box of small parameters.

The box is s, t in [-60, 60] for each (mode, p, n): main and infinite at
p in {5, 7, 13} and n in {1, 2}, the square subfamily at the same p
(n = 1, the only depth it takes) and rank once (it takes no p or n).
That is 16 boxes of 14,641 pairs, each certified through ``cli.outcome``
as every command is.  An outcome line is the jsonl record, or
``refused <reason>: <detail>`` for a named refusal.

``data/outcome_grid.json`` holds, per box, the sha256 of its outcome
lines (each ended by a newline, s-major) and the histogram of its
outcomes: the number of certificates and the count of each refusal
reason.  The stream goldens see only certificates; this file pins the
refusal paths as well, reason and detail.  Regenerate it only where an
outcome changes on purpose, with

    PYTHONPATH=src python tests/test_outcome_grid.py

The first two pairs of each outcome in a box also go through search's
worker, ``verify`` and ``verify --file``, which must say what
``cli.outcome`` says.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from ellcert import cli

GRID = Path(__file__).parent / "data" / "outcome_grid.json"
PARAMS = range(-60, 61)
BOXES = (
    [(mode, p, n) for mode in ("main", "infinite") for p in (5, 7, 13) for n in (1, 2)]
    + [("square_subfamily", p, 1) for p in (5, 7, 13)]
    + [("rank", None, None)]
)


def box_name(mode, p, n) -> str:
    return mode if p is None else f"{mode} p={p} n={n}"


def outcome(mode, s, t, p, n) -> tuple[str, str]:
    """(histogram key, outcome line) of one pair; an exception other than
    a named refusal is kept as ``raised <type>: <message>``."""
    try:
        result, line = cli.outcome((mode, s, t, p, n, "jsonl"))
    except Exception as exc:  # an outcome the grid must show, not a crash
        return "raised", f"raised {type(exc).__name__}: {exc}"
    if line is None:
        return result.reason, f"refused {result.reason}: {result.detail}"
    return "certificate", line


def compute_box(mode, p, n) -> tuple[dict, list[str], list[tuple[int, int]]]:
    """A box's entry, the lines of the exceptions it raised, and a sample
    of its pairs: the first two of each outcome key."""
    digest, counts, raised, sample = hashlib.sha256(), Counter(), [], []
    for s in PARAMS:
        for t in PARAMS:
            key, line = outcome(mode, s, t, p, n)
            digest.update(line.encode() + b"\n")
            counts[key] += 1
            if key == "raised":
                raised.append(f"(s,t)=({s},{t}): {line}")
            if counts[key] <= 2:
                sample.append((s, t))
    entry = {"sha256": digest.hexdigest(), "certificates": counts.pop("certificate", 0),
             "refusals": dict(sorted(counts.items()))}
    return entry, raised, sample


@pytest.fixture(scope="module")
def grid():
    return {box_name(*box): compute_box(*box) for box in BOXES}


def test_every_box_matches_the_recorded_grid(grid):
    recorded = json.loads(GRID.read_text(encoding="utf-8"))
    assert list(recorded) == [box_name(*box) for box in BOXES]
    for name, (entry, _, _) in grid.items():
        assert entry == recorded[name], name


def test_no_outcome_is_an_exception(grid):
    for name, (entry, raised, _) in grid.items():
        assert raised == [], name
        assert sum(entry["refusals"].values()) + entry["certificates"] == len(PARAMS) ** 2


def test_every_command_says_what_outcome_says(grid, tmp_path, capsys):
    """On each box's sample, search's worker gives ``cli.outcome``'s line in
    every format, ``verify --out`` writes its jsonl line or prints its
    refusal, and ``verify --file`` of the lines written says ok."""
    records = tmp_path / "records.jsonl"
    records.write_text("")
    lines, conclusions = [], []
    for mode, p, n in BOXES:
        flags = [] if p is None else [f"--p={p}", f"--n={n}"]
        for s, t in grid[box_name(mode, p, n)][2]:
            # rank included, though search does not run it
            for fmt in ("jsonl", "csv", "pretty"):
                task = (mode, s, t, p, n, fmt)
                assert cli.certify_candidate(task) == cli.outcome(task)[1], task
            result, line = cli.outcome((mode, s, t, p, n, "jsonl"))
            rc = cli.main(["verify", f"--mode={mode}", f"--s={s}", f"--t={t}", *flags,
                           f"--out={records}"])
            printed = capsys.readouterr().out
            if line is None:
                assert (rc, printed) == (
                    1, f"REFUSED at check '{result.reason}': {result.detail}\n")
            else:
                assert rc == 0
                lines.append(line)
                conclusions.append(result.conclusion)
            assert records.read_text(encoding="utf-8") == "".join(x + "\n" for x in lines)
    assert len(lines) > 10
    assert cli.main(["verify", f"--file={records}", "--verbose"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        *(f"line {i}: ok {c}" for i, c in enumerate(conclusions, 1)),
        f"{len(lines)}/{len(lines)} certificates verified"]


def test_every_pair_a_screen_rejects_is_refused():
    """Search drops a pair its theorem's screen rejects before certifying
    it, so the screen may reject only pairs the certifier refuses."""
    rejected = 0
    for mode, p, n in BOXES:
        screen = cli.THEOREMS[mode].screen
        for s in PARAMS:
            for t in PARAMS:
                if not screen(s, t):
                    rejected += 1
                    assert outcome(mode, s, t, p, n)[0] != "certificate", (mode, p, n, s, t)
    assert rejected  # the infinite family's congruences reject most pairs


if __name__ == "__main__":
    entries = {box_name(*box): compute_box(*box)[0] for box in BOXES}
    GRID.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
