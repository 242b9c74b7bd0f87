"""Committed golden records and refusal reasons.

``data/golden_records.jsonl`` holds one record per theorem shape: four
divisibility records (p = 5, 7, 11, 13), one square-subfamily, one
infinite-family and one rank-one fragment, each written by
``ellcert verify --out``.  ``data/golden_refusals.json`` maps direct
certifier calls to the reason each refuses with.  Both were recorded
before the theorem registry and the member context replaced the
per-mode dispatch, so they pin records and reasons byte for byte.
``data/selmer_table_3000.csv`` is ``ellcert selmer-table --max-ell 3000``
as written before ``descent.selmer`` kept one class pattern per residue
of l mod 16.  The full p = 13 search, with its checkpoint, is compared
with the benchmark's own goldens (``perfbench/data/goldens.json``, read
only), which pin all of its 1,107 index-square bounds.
``data/golden_ledgers.txt`` is the full stdout of single-shot ``verify``
for the subjects of ``golden_records.jsonl``, in order, and
``SEARCH_SHA256`` the digests of the square-subfamily and infinite-family
search streams (and a final checkpoint); both were recorded before each
witness was built in its record form, so the ledger text and the streams
are pinned against that earlier code, not only against themselves.
``FORMAT_SHA256`` pins the ``--format csv`` and ``--format pretty``
output the same way, recorded before those lines were read off the
certificate instead of its parsed record.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ellcert import cli, descent
from ellcert.errors import PreconditionFailure

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_records.jsonl"
LINES = GOLDEN.read_text(encoding="utf-8").splitlines()
REFUSALS = json.loads((DATA / "golden_refusals.json").read_text(encoding="utf-8"))
BENCH_GOLDENS = Path(__file__).parent.parent / "perfbench" / "data" / "goldens.json"

#: search arguments -> sha256 of the stream, and of the final checkpoint
#: where the search keeps one.  The checkpoint holds the configuration's
#: fingerprint, which keys the format only for csv and pretty runs, so a
#: jsonl checkpoint, this one and the benchmark's, keeps its bytes
SEARCH_SHA256 = {
    ("--mode", "square_subfamily", "--p", "5", "--max-param", "120"): (
        "ea48a049d14f97ee4af2c78c8fe9ff5bc57b7addd5f45903d9b6239917c57c6b", None),
    ("--mode", "infinite", "--p", "5", "--max-param", "300", "--checkpoint"): (
        "8d8a2c7bc27a0d634f5c26536a56b23a4d6b624b46a09c993398b898e26ed225",
        "555f761c0b6b5d46f86be6b046e3ec8f8d194bbbbc0d760cb56e965b755c2f73"),
}


#: search arguments -> sha256 of the ``--format csv`` and ``--format
#: pretty`` output, recorded while each line was still read back from its
#: JSON record; the same at one and two workers
FORMAT_SHA256 = {
    ("--mode", "main", "--p", "5", "--max-param", "60"): (
        "878bcf5c410eec344ec0cd7d923b9308ce379a7d240bfbdbbdc89cb6d77c08ec",
        "2c57dd4fccabdc156b348dc32fda578af2c8f57c99bd17583c9bac6c67f300f1"),
    ("--mode", "infinite", "--p", "5", "--max-param", "300"): (
        "e478339d6e0c61a8c5184049ab79627cb4572d0a5aa2c133a948efc7662e970a",
        "c33a934bf951926ae1ae33dec5c4c4d79add10c6aa92a2162a89f91157fbf88c"),
    ("--mode", "square_subfamily", "--p", "5", "--max-param", "120"): (
        "2dc866a8df8fde452fe8941891293f6809d5282886d415cda2eaff54e898093c",
        "4793f40f3f30526eab2843ca60a133d8ac6ccb098096876bceebd2de582470e6"),
}


def _verify_argv(record: dict) -> list[str]:
    """The single-shot verify arguments that reproduce a stored record."""
    sub = record["subject"]
    if record["theorem"] == "rank-one":
        return ["--mode", "rank", "--s", sub["s"], "--t", sub["t"]]
    mode, second = {
        "divisibility": ("main", "t"),
        "square-subfamily": ("square_subfamily", "tau"),
        "infinite-family": ("infinite", "t"),
    }[record["theorem"]]
    return ["--mode", mode, "--s", sub["s"], "--t", sub[second],
            "--p", sub["p"], "--n", sub["n"]]


def test_golden_file_covers_every_theorem():
    theorems = [json.loads(line)["theorem"] for line in LINES]
    assert theorems == ["divisibility"] * 4 + [
        "square-subfamily", "infinite-family", "rank-one",
    ]
    assert [json.loads(line)["subject"].get("p") for line in LINES[:4]] == [
        "5", "7", "11", "13",
    ]


def test_verify_file_reverifies_the_golden_records(capsys):
    assert cli.main(["verify", "--file", str(GOLDEN), "--verbose"]) == 0
    out = capsys.readouterr().out
    assert f"{len(LINES)}/{len(LINES)} certificates verified" in out
    assert "line 7: ok rank = 1" in out


@pytest.mark.parametrize("lineno", range(1, len(LINES) + 1))
def test_single_shot_verify_reproduces_each_line(lineno, tmp_path, capsys):
    line = LINES[lineno - 1]
    out = tmp_path / "one.jsonl"
    argv = ["verify", *_verify_argv(json.loads(line)), "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8") == line + "\n"


def test_single_shot_verify_prints_the_golden_ledgers(capsys):
    printed = []
    for line in LINES:
        assert cli.main(["verify", *_verify_argv(json.loads(line))]) == 0
        printed.append(capsys.readouterr().out)
    golden = (DATA / "golden_ledgers.txt").read_text(encoding="utf-8")
    assert "".join(printed) == golden
    # a list witness prints as the integers it holds
    assert "ramified=[2, 5641, 5]" in golden


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("args", list(SEARCH_SHA256), ids=lambda a: a[1])
def test_search_streams_match_their_recorded_digests(args, workers, tmp_path, capsys):
    stream_sha, checkpoint_sha = SEARCH_SHA256[args]
    out, ck = tmp_path / "out.jsonl", tmp_path / "search.ck"
    argv = ["search", *args, "--workers", workers, "--out", str(out)]
    if checkpoint_sha is not None:
        argv.insert(argv.index("--checkpoint") + 1, str(ck))
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == stream_sha
    if checkpoint_sha is not None:
        assert hashlib.sha256(ck.read_bytes()).hexdigest() == checkpoint_sha


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("fmt", ["csv", "pretty"])
@pytest.mark.parametrize("args", list(FORMAT_SHA256), ids=lambda a: a[1])
def test_csv_and_pretty_match_their_recorded_digests(args, fmt, workers, tmp_path, capsys):
    out = tmp_path / "out.txt"
    argv = ["search", *args, "--format", fmt, "--workers", workers, "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    want = FORMAT_SHA256[args][fmt == "pretty"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


@pytest.mark.parametrize(
    "row", REFUSALS, ids=[f"{r['certifier']}{tuple(r['args'])}" for r in REFUSALS]
)
def test_refusal_reasons_are_unchanged(row):
    with pytest.raises(PreconditionFailure) as err:
        getattr(cli, row["certifier"])(*row["args"])
    assert err.value.reason == row["reason"]


def test_refusal_table_covers_the_edge_inputs():
    by_certifier = {}
    for row in REFUSALS:
        by_certifier.setdefault(row["certifier"], set()).add(row["reason"])
    assert set(by_certifier) == {
        "certify_divisibility", "certify_square_subfamily",
        "certify_infinite_instance", "certify_rank_one",
    }
    reasons = set().union(*by_certifier.values())
    # degenerate, non-coprime, composite p, n = 0, not fourth-power-free
    assert {"degenerate-parameters", "coprime-parameters", "p-out-of-range",
            "depth-target", "fourth-power-free"} <= reasons


def test_selmer_table_matches_the_golden(monkeypatch, capsys):
    monkeypatch.setattr(descent, "_SELMER_CLASSES", {})
    assert cli.main(["selmer-table", "--max-ell", "3000"]) == 0
    golden = (DATA / "selmer_table_3000.csv").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_full_p13_search_matches_the_benchmark_goldens(tmp_path, capsys):
    golden = json.loads(BENCH_GOLDENS.read_text(encoding="utf-8"))
    golden = golden["search"]["search-main-p13-ckpt"]["full"]
    out, ck = tmp_path / "p13.jsonl", tmp_path / "p13.ck"
    argv = ["search", "--mode", "main", "--p", "13", "--max-param", "400",
            "--workers", "1", "--out", str(out), "--checkpoint", str(ck)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    records = out.read_text(encoding="utf-8").splitlines()
    assert len(records) == golden["outcomes"]["certified"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["sha256"]
    assert hashlib.sha256(ck.read_bytes()).hexdigest() == golden["checkpoint_sha256"]
