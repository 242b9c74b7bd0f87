"""End-to-end command-line behavior: search modes, exit codes, bulk
verification, checkpoint resume, and worker-count independence."""

import json

import pytest

from ellcert.cli import iter_parameter_pairs, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_enumeration_order():
    got = list(iter_parameter_pairs(3))
    assert got == [
        (0, 1, 1),
        (1, 1, 2), (2, 2, 1), (3, 2, 2),
        (4, 1, 3), (5, 2, 3), (6, 3, 1), (7, 3, 2), (8, 3, 3),
    ]


def test_search_main_jsonl(tmp_path, capsys):
    out = tmp_path / "main.jsonl"
    rc, _, err = run(
        capsys, "search", "--max-param", "25", "--out", str(out), "--workers", "1"
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert f"{len(lines)} certificate(s) from pairs with max(s,t) <= 25" in err
    pairs = {(int(r["subject"]["s"]), int(r["subject"]["t"])) for r in records}
    assert (2, 25) in pairs and (25, 2) in pairs
    assert all(r["schema"] == "1" and r["theorem"] == "divisibility" for r in records)
    # depth filter: every emitted pair has 25 | st with the factor on one side
    assert all((s * t) % 25 == 0 and (s % 5 == 0) != (t % 5 == 0) for s, t in pairs)


def test_search_empty_range_exits_one(tmp_path, capsys):
    # 25 <= 26 passes the config gate, but t = 25 fails t = +-3 mod 8 and
    # s = 25 is odd, so the infinite-family screen leaves nothing
    out = tmp_path / "none.jsonl"
    rc, _, err = run(
        capsys, "search", "--mode", "infinite", "--max-param", "26",
        "--out", str(out), "--workers", "1",
    )
    assert rc == 1
    assert out.read_text() == ""
    assert "0 certificate(s)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--max-param", "60", "--target-count", "0"),
        ("search", "--max-param", "20"),       # needs 5^2 <= max-param
        ("search", "--max-param", "60", "--p", "4"),
        ("search", "--max-param", "60", "--p", "3"),
        ("search", "--max-param", "60", "--n", "0"),
    ],
)
def test_search_config_errors(argv, capsys):
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("config error:")


def test_search_csv_format(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc, _, _ = run(
        capsys, "search", "--max-param", "25", "--target-count", "2",
        "--format", "csv", "--out", str(out), "--workers", "1",
    )
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "s,t,ell,p,n,theorem"
    assert len(rows) == 3
    assert rows[1].split(",")[5] == "divisibility"


def test_verify_single_then_bulk(tmp_path, capsys):
    rec = tmp_path / "one.jsonl"
    rc, out, _ = run(
        capsys, "verify", "--s", "2", "--t", "25", "--p", "5", "--out", str(rec)
    )
    assert rc == 0
    assert "theorem: divisibility" in out
    assert "[pass] primitive-point" in out
    assert "conclusion: 5^2 divides h(Q(E[5^1]))" in out
    stored = json.loads(rec.read_text())
    assert stored["subject"] == {"s": "2", "t": "25", "ell": "641", "p": "5", "n": "1"}

    rc, out, _ = run(capsys, "verify", "--file", str(rec))
    assert rc == 0
    assert "1/1 certificates verified" in out


def test_verify_refusal_exits_one(capsys):
    rc, out, _ = run(capsys, "verify", "--s", "1", "--t", "2", "--p", "5")
    assert rc == 1
    assert "REFUSED at check 'p-divides-exactly-one'" in out


def test_verify_large_parameters_reach_a_verdict(capsys):
    # both ended in a factorize ValueError inside the former
    # division-polynomial torsion check
    rc, out, _ = run(capsys, "verify", "--mode", "main", "--p", "5", "--s", "1009", "--t", "50")
    assert rc == 0
    assert json.loads(out.splitlines()[-1])["theorem"] == "divisibility"
    rc, out, _ = run(capsys, "verify", "--mode", "main", "--p", "7", "--s", "1035", "--t", "98")
    assert rc == 0 or (rc == 1 and "REFUSED at check '" in out)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--file", "x.jsonl", "--s", "2"),
        ("verify", "--t", "25", "--p", "5"),
        ("verify", "--s", "2", "--t", "25"),  # main mode needs --p
    ],
)
def test_verify_usage_errors(argv, capsys):
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err


def test_verify_rank_mode(tmp_path, capsys):
    rec = tmp_path / "rank.jsonl"
    rc, out, _ = run(
        capsys, "verify", "--mode", "rank", "--s", "2", "--t", "5", "--out", str(rec)
    )
    assert rc == 0
    assert "conclusion: rank = 1" in out
    stored = json.loads(rec.read_text())
    assert stored["theorem"] == "rank-one"
    assert stored["subject"]["ell"] == "41"
    assert stored["selmer"] == {"dim_forward": "1", "dim_dual": "2", "rank_upper": "1"}

    rc, out, _ = run(capsys, "verify", "--file", str(rec))
    assert rc == 0
    assert "1/1 certificates verified" in out


def test_verify_file_catches_tampering(tmp_path, capsys):
    rec = tmp_path / "mix.jsonl"
    rc, _, _ = run(
        capsys, "verify", "--s", "2", "--t", "75", "--p", "5",
        "--mode", "infinite", "--out", str(rec),
    )
    assert rc == 0
    data = json.loads(rec.read_text())
    data["unramified_rank_lower_bound"] = "2"
    rec.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    rc, out, _ = run(capsys, "verify", "--file", str(rec))
    assert rc == 1
    assert "MISMATCH" in out
    assert "0/1 certificates verified" in out


def test_verify_file_bad_inputs(tmp_path, capsys):
    rc, _, err = run(capsys, "verify", "--file", str(tmp_path / "absent.jsonl"))
    assert rc == 2
    assert "cannot read" in err

    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text("this is not json\n")
    rc, out, _ = run(capsys, "verify", "--file", str(garbled))
    assert rc == 1
    assert "not a certificate record" in out

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc, out, _ = run(capsys, "verify", "--file", str(empty))
    assert rc == 1
    assert "0/0" in out


def test_checkpoint_resume_is_byte_identical(tmp_path, capsys):
    base = ["search", "--mode", "infinite", "--max-param", "80", "--workers", "1"]
    full = tmp_path / "full.jsonl"
    rc, _, _ = run(capsys, *base, "--out", str(full))
    assert rc == 0

    part = tmp_path / "part.jsonl"
    ck = tmp_path / "ck.json"
    rc, _, _ = run(
        capsys, *base, "--out", str(part), "--checkpoint", str(ck),
        "--target-count", "2",
    )
    assert rc == 0
    assert len(part.read_text().splitlines()) == 2
    state = json.loads(ck.read_text())
    assert state["found"] == 2

    rc, _, _ = run(capsys, *base, "--out", str(part), "--checkpoint", str(ck))
    assert rc == 0
    assert part.read_bytes() == full.read_bytes()


def test_checkpoint_rejects_other_config(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    args = ["search", "--mode", "infinite", "--max-param", "80", "--workers", "1",
            "--target-count", "1", "--checkpoint", str(ck), "--out",
            str(tmp_path / "a.jsonl")]
    assert main(args) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["search", "--mode", "infinite", "--max-param", "90", "--workers", "1",
              "--checkpoint", str(ck), "--out", str(tmp_path / "b.jsonl")])


def test_worker_count_independence(tmp_path, capsys):
    one = tmp_path / "w1.jsonl"
    two = tmp_path / "w2.jsonl"
    argv = ["search", "--max-param", "25", "--target-count", "12"]
    assert main(argv + ["--workers", "1", "--out", str(one)]) == 0
    assert main(argv + ["--workers", "2", "--out", str(two)]) == 0
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()


def test_selmer_table_rows(capsys):
    rc, out, _ = run(capsys, "selmer-table", "--ells", "5,17,41,2")
    assert rc == 0
    rows = out.splitlines()
    assert rows[0] == "ell,mod16,dim_forward,dim_dual,rank_upper,residue_prediction"
    assert rows[1] == "5,5,1,2,1,1"
    assert rows[2] == "17,1,2,2,2,2"
    assert rows[3] == "41,9,1,2,1,1"
    assert rows[4] == "2,2,1,2,1,1"


def test_selmer_table_range(capsys):
    rc, out, _ = run(capsys, "selmer-table", "--max-ell", "13")
    assert rc == 0
    got = {int(r.split(",")[0]) for r in out.splitlines()[1:]}
    assert got == {2, 3, 5, 7, 11, 13}


def test_heights_report(capsys):
    rc, out, _ = run(capsys, "heights", "--s", "1", "--t", "2")
    assert rc == 0
    assert "ell = 5" in out
    assert "canonical height in [0.317" in out
    assert "index bound m^2 <=" in out
