"""End-to-end command-line behavior: search modes, exit codes, bulk
verification, checkpoint resume, and worker-count independence."""

import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ellcert
from ellcert import cli, descent, heights
from ellcert.cli import SearchConfig, cheap_filter, iter_parameter_pairs, main, run_search


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


def _all_pairs(max_param):
    """The full enumeration, written out independently of the module."""
    idx = 0
    for m in range(1, max_param + 1):
        for s in range(1, m):
            yield idx, s, m
            idx += 1
        for t in range(1, m + 1):
            yield idx, m, t
            idx += 1


def test_restricted_enumeration_is_the_filtered_full_one():
    full = list(_all_pairs(60))
    for q in (1, 4, 7, 25, 49, 169):
        for max_param in range(1, 61):
            want = [
                (i, s, t) for i, s, t in full
                if max(s, t) <= max_param and (s % q == 0 or t % q == 0)
            ]
            assert list(iter_parameter_pairs(max_param, q)) == want, (q, max_param)


def _valuation(x, p):
    if x == 0:
        return float("inf")
    v = 0
    while x % p == 0:
        x, v = x // p, v + 1
    return v


def _filter_by_definition(mode, p, n, s, t):
    """cheap_filter restated: coprime, and p divides exactly one of s, t
    (s, tau in square_subfamily mode) to depth n + 1, in every mode."""
    if math.gcd(s, t) != 1:
        return False
    vs, vt = _valuation(s, p), _valuation(t, p)
    if (vs > 0) == (vt > 0) or vs + vt < n + 1:
        return False
    return mode != "infinite" or (s % 2 == 0 and t % 8 in (3, 5))


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("n", [1, 2])
def test_cheap_filter_matches_its_definition(p, n):
    grid = [(s, t) for s in range(-30, 60) for t in range(-30, 60) if (s, t) != (0, 0)]
    grid += [(p**3 * u, 1) for u in (-2, -1, 1, 2)] + [(3, -(p**4))]
    grid += [(2 * p**3, 3), (-2 * p**3, -3)]  # deep enough for infinite mode at n = 2
    q = p ** (n + 1)
    for mode in ("main", "square_subfamily", "infinite"):
        passed = 0
        for s, t in grid:
            want = _filter_by_definition(mode, p, n, s, t)
            # the depth is the enumeration's: it yields only pairs with q | s or q | t
            deep = s % q == 0 or t % q == 0
            assert (deep and cheap_filter(mode, s, t)) == want, (mode, s, t)
            passed += want
        assert passed


def _stub_certifier(calls):
    # stands in for certification: refuses some candidates, and the record
    # names the task so the emitted sequence shows which ones were handled
    def certify(task):
        calls.append(task)
        _, s, t, *_ = task
        return None if (s + t) % 3 == 0 else json.dumps(task)

    return certify


@pytest.mark.parametrize("mode", ["main", "square_subfamily", "infinite"])
@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("n", [1, 2])
def test_search_matches_filter_all_oracle(mode, p, n, tmp_path, monkeypatch):
    depth = n + 1
    # two whole shells divisible by p^depth: at 7^3 infinite mode needs
    # the even s = 686
    max_param = 2 * p**depth + p
    oracle_tasks, oracle_records = [], []
    oracle = _stub_certifier(oracle_tasks)
    last = None
    for idx, s, t in _all_pairs(max_param):
        if _filter_by_definition(mode, p, n, s, t):
            line = oracle((mode, s, t, p, n, "jsonl"))
            if line is not None:
                oracle_records.append(line)
            last = idx
    assert oracle_tasks

    tasks, records = [], []
    monkeypatch.setattr(cli, "certify_candidate", _stub_certifier(tasks))
    ck = tmp_path / "ck.json"
    cfg = SearchConfig(mode, p, n, max_param, target_count=10**9, workers=1)
    found = run_search(cfg, records.append, checkpoint=str(ck))
    assert tasks == oracle_tasks
    assert records == oracle_records
    assert found == len(records)
    state = json.loads(ck.read_text())
    assert (state["next_index"], state["found"]) == (last + 1, found)


def test_checkpoint_written_per_batch_and_at_the_end(tmp_path, monkeypatch):
    writes = []
    save = cli._save_checkpoint

    def recording_save(path, fingerprint, next_index, found):
        writes.append((next_index, found))
        save(path, fingerprint, next_index, found)

    monkeypatch.setattr(cli, "_save_checkpoint", recording_save)
    ck = tmp_path / "ck.json"
    assert main(["search", "--max-param", "80", "--workers", "1",
                 "--checkpoint", str(ck), "--out", str(tmp_path / "o.jsonl")]) == 0
    handled = sum(
        1 for _, s, t in _all_pairs(80) if _filter_by_definition("main", 5, 1, s, t)
    )
    assert len(writes) == handled // 32 + (handled % 32 > 0)
    assert writes[-1] == (json.loads(ck.read_text())["next_index"], 278)


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
        # 5^7001 has 4,894 digits: its str() raised past Python's digit limit
        ("search", "--max-param", "100", "--n", "7000"),
        ("search", "--mode", "square_subfamily", "--max-param", "100", "--n", "2"),
        ("search", "--max-param", "0"),
        # both ran one worker and exited 0 with 48 certificates
        ("search", "--max-param", "30", "--workers", "0"),
        ("search", "--max-param", "30", "--workers", "-5"),
    ],
)
def test_search_config_errors(argv, capsys):
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("config error:")
    assert err.count("\n") == 1 and len(err) < 200


def test_search_refuses_a_huge_depth_without_building_its_power():
    # 5^(10^9 + 1) was built to compare it with max-param: still running
    # after 60 s
    proc = subprocess.run(
        [sys.executable, "-m", "ellcert.cli", "search", "--max-param", "100",
         "--n", str(10**9)],
        env=dict(os.environ, PYTHONPATH=str(Path(ellcert.__file__).parent.parent)),
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "config error: unsatisfiable: no parameter up to 100 can carry "
        "5-adic valuation 1000000001, as 5^1000000001 > 100\n")


def test_search_depth_gate_is_the_exact_power_comparison():
    # the gate refuses exactly when p^depth > max-param, at the edges of
    # its bit-length shortcut and of the power itself
    for p in (5, 7, 13):
        for depth in range(2, 12):
            edges = {p**depth - 1, p**depth, 2 ** (depth * (p.bit_length() - 1))}
            for max_param in {m + d for m in edges for d in (-1, 0, 1)}:
                args = cli.build_parser().parse_args(
                    ["search", "--p", str(p), "--n", str(depth - 1),
                     "--max-param", str(max_param)])
                problem = cli._search_config_error(args)
                assert (problem is not None) == (p**depth > max_param), (p, depth, max_param)


@pytest.mark.parametrize("argv,named", [
    (("--mode", "square_subfamily", "--p", "5", "--s", "25", "--t", "2", "--n", "3"),
     "--n 1 only"),
    (("--mode", "rank", "--s", "2", "--t", "5", "--p", "7", "--n", "4"), "--p/--n"),
    (("--mode", "rank", "--s", "2", "--t", "5", "--n", "1"), "--n"),
    (("--mode", "rank", "--s", "2", "--t", "5", "--p", "5"), "--p"),
], ids=["square-n-3", "rank-p-n", "rank-n", "rank-p"])
def test_verify_refuses_a_flag_its_theorem_does_not_take(argv, named, capsys):
    # each was dropped: the square subfamily certified n = 1 for --n 3, and
    # rank ignored --p and --n
    rc, out, err = run(capsys, "verify", *argv)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and named in err


UNPROVEN_P = "10000000000000000000000013"  # BPSW only, above psi_13


@pytest.mark.parametrize("mode", ["main", "square_subfamily", "infinite"])
def test_search_refuses_an_unproven_p_as_a_config_error(mode, capsys):
    square = str(int(UNPROVEN_P) ** 2)
    rc, out, err = run(capsys, "search", "--mode", mode, "--p", UNPROVEN_P,
                       "--max-param", square)
    assert rc == 2 and out == ""
    assert err == (
        f"config error: p-primality-unproven: p={UNPROVEN_P} "
        "is only a BPSW probable prime\n"
    )


def test_verify_refuses_an_unproven_p(capsys):
    square = str(int(UNPROVEN_P) ** 2)
    rc, out, _ = run(capsys, "verify", "--mode", "main", "--p", UNPROVEN_P,
                     "--s", square, "--t", "1")
    assert rc == 1
    assert out.splitlines() == [
        f"REFUSED at check 'p-primality-unproven': p={UNPROVEN_P} "
        "is only a BPSW probable prime"
    ]


def test_verify_square_subfamily_refuses_a_fourth_power_in_ell(capsys):
    # 25^4 + 149^4 = 17^4 * 5906, with 5^2 | s tau: the pair fails only
    # fourth-power-freeness, which the square subfamily tests before its depth
    rc, out, _ = run(capsys, "verify", "--mode", "square_subfamily", "--p", "5",
                     "--s", "25", "--t", "149")
    assert rc == 1
    assert out.splitlines() == ["REFUSED at check 'fourth-power-free': ell=493275026"]


def test_verify_square_subfamily_refuses_a_negative_tau(capsys):
    # tau and -tau give the same curve; the ledger sees only t = tau^2, so
    # the subfamily refuses tau < 1 itself, as main refuses t < 1
    rc, out, _ = run(capsys, "verify", "--mode", "square_subfamily", "--p", "5",
                     "--s", "25", "--t", "-2")
    assert rc == 1
    assert out.splitlines() == ["REFUSED at check 'degenerate-parameters': (s,tau)=(25,-2)"]


def test_search_modes_are_the_theorems_that_take_p(capsys):
    # rank takes no --p, so search has no rank mode
    with pytest.raises(SystemExit) as exc:
        main(["search", "--mode", "rank", "--max-param", "10"])
    assert exc.value.code == 2
    assert "invalid choice: 'rank'" in capsys.readouterr().err


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


def test_search_pretty_format(capsys):
    rc, out, err = run(
        capsys, "search", "--max-param", "25", "--target-count", "2",
        "--format", "pretty", "--workers", "1",
    )
    assert rc == 0
    assert out.splitlines() == [
        "s=1 t=25 ell=626: 5^2 divides h(Q(E[5^1])) [divisibility]",
        "s=2 t=25 ell=641: 5^2 divides h(Q(E[5^1])) [divisibility]",
    ]
    assert "2 certificate(s)" in err


def test_outcome_writes_the_rank_one_fragment_in_every_format():
    # the rank-one fragment takes no p or n, so its csv line leaves them empty
    lines = {fmt: cli.outcome(("rank", 2, 5, None, None, fmt))[1]
             for fmt in ("jsonl", "csv", "pretty")}
    assert lines["csv"] == "2,5,41,,,rank-one"
    assert lines["pretty"] == "s=2 t=5 ell=41: rank = 1 [rank-one]"
    assert lines["jsonl"] == GOLDEN.read_text(encoding="utf-8").splitlines()[-1]


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


@pytest.mark.parametrize("flag,value", [("--out", "g.jsonl"), ("--p", "5")])
def test_verify_file_refuses_out_and_p(flag, value, tmp_path, capsys, monkeypatch):
    # both were silently ignored: the run printed "7/7 certificates
    # verified", exited 0 and wrote no file
    monkeypatch.chdir(tmp_path)
    golden = Path(__file__).parent / "data" / "golden_records.jsonl"
    rc, out, err = run(capsys, "verify", "--file", str(golden), flag, value)
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and flag in err
    assert not (tmp_path / "g.jsonl").exists()


@pytest.mark.parametrize(
    "flags", [("--mode", "rank"), ("--n", "5"), ("--mode", "rank", "--n", "5"),
              ("--mode", "main"), ("--n", "1")])
def test_verify_file_refuses_mode_and_n(flags, capsys):
    # both were silently ignored: "--mode rank --n 5" printed "7/7
    # certificates verified" and exited 0; the default values are refused
    # too, since a stored record names its own theorem and depth
    golden = Path(__file__).parent / "data" / "golden_records.jsonl"
    rc, out, err = run(capsys, "verify", "--file", str(golden), *flags)
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1
    assert all(flag in err for flag in flags[::2])


def test_single_shot_verify_defaults_to_main_mode_and_depth_one(capsys):
    implicit = run(capsys, "verify", "--p", "5", "--s", "2", "--t", "25")
    explicit = run(capsys, "verify", "--p", "5", "--s", "2", "--t", "25",
                   "--mode", "main", "--n", "1")
    assert implicit == explicit
    assert implicit[0] == 0 and "theorem: divisibility" in implicit[1]


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


def test_verify_rank_mode_refuses_an_unproven_ell(capsys):
    # l = 1350000^4 + 29^2 > psi_13 passes only BPSW, which proves nothing
    rc, out, _ = run(capsys, "verify", "--mode", "rank", "--s", "1350000", "--t", "29")
    assert rc == 1
    # the reason is printed once, then the detail
    assert out.splitlines() == [
        "REFUSED at check 'ell-primality-unproven': "
        "ell=3321506250000000000000841 is only a BPSW probable prime"
    ]
    assert "rank = 1" not in out
    # l = 131072^4 + 75^2 ~ 2.95e20 is below psi_13: proved, and certified
    rc, out, _ = run(capsys, "verify", "--mode", "rank", "--s", "131072", "--t", "75")
    assert rc == 0
    assert "conclusion: rank = 1" in out


def test_verify_rank_mode_refuses_a_composite_ell_above_psi_13(capsys):
    # Miller-Rabin base 2, the first half of BPSW, proves this ell composite
    rc, out, _ = run(capsys, "verify", "--mode", "rank", "--s", "1350000", "--t", "11")
    assert rc == 1
    assert out.splitlines() == [
        "REFUSED at check 'ell-not-prime': ell=3321506250000000000000121"]


PSI_13 = "3317044064679887385961981"  # a strong pseudoprime to all 13 bases


@pytest.mark.parametrize("p", ["1", PSI_13], ids=["one", "psi-13"])
def test_verify_refuses_p_below_five_and_psi_13_as_out_of_range(p, capsys):
    # psi_13 passes Miller-Rabin base 2; the strong Lucas half of BPSW
    # proves it composite
    rc, out, _ = run(capsys, "verify", "--mode", "main", "--p", p, "--s", "2", "--t", "25")
    assert rc == 1
    assert out.splitlines() == [f"REFUSED at check 'p-out-of-range': p={p} must be a prime >= 5"]


def test_verify_refuses_an_unproven_p_whose_lucas_test_doubles(capsys):
    # p + 1 = 2^4 k: the strong Lucas test passes only after doublings of
    # V_k, and a pass above psi_13 is still only a probable prime
    p = "3317044064679887385962191"
    rc, out, _ = run(capsys, "verify", "--mode", "main", "--p", p, "--s", "1", "--t", "1")
    assert rc == 1
    assert out.splitlines() == [
        f"REFUSED at check 'p-primality-unproven': p={p} is only a BPSW probable prime"]


def test_verify_above_the_count_limit_proves_parity_by_two_torsion(capsys):
    # p = 10007 is past the point count's limit of 10^4, so the even order
    # rests on the rational point (0, 0) alone
    rc, out, _ = run(capsys, "verify", "--mode", "main", "--p", "10007",
                     "--s", "100140049", "--t", "2")
    assert rc == 0
    record = json.loads(out.splitlines()[-1])
    [depth] = [c for c in record["checks"] if c["name"] == "kernel-filtration-depth"]
    assert depth["witness"]["order_parity_method"] == "rational-two-torsion"
    assert record["conclusion"] == "10007^2 divides h(Q(E[10007^1]))"


def test_verify_certifies_a_30_digit_ell_past_the_gcd_table(capsys):
    # l has 99 bits, past the 2^80 below which the gcd layers decide alone:
    # the trial from 65537 to the cofactor's fifth root finds no factor
    rc, out, _ = run(capsys, "verify", "--mode", "main", "--p", "5",
                     "--s", "25000075", "--t", "7")
    assert rc == 0
    assert "  [pass] fourth-power-free  ell=390629687521093792187531640674" in out.splitlines()


def test_verify_refuses_a_fourth_power_of_a_prime_past_the_gcd_table(capsys):
    # l = 1 + t^2 = 65537 * 65557^4 * r with r coprime to both: the trial
    # past 2^16 divides out 65537 once, shrinks its bound and finds 65557^4
    t = 408156742691570465454481
    ell = 1 + t * t
    assert ell % 65537 == 0 and ell % 65537**2 and ell % 65557**4 == 0
    rc, out, _ = run(capsys, "verify", "--mode", "main", "--p", "5", "--s", "1", "--t", str(t))
    assert rc == 1
    assert out.splitlines() == [f"REFUSED at check 'fourth-power-free': ell={ell}"]


def test_verify_file_runs_one_exact_descent_per_residue(monkeypatch, capsys):
    pool = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pool.jsonl"
    monkeypatch.setattr(descent, "_SELMER_CLASSES", {})
    real, exact = descent._exact_selmer, []
    monkeypatch.setattr(descent, "_exact_selmer", lambda ell: exact.append(ell) or real(ell))
    rc, out, _ = run(capsys, "verify", "--file", str(pool))
    assert rc == 0
    assert "520/520 certificates verified" in out
    # every rank-one and infinite-family l is 9 mod 16
    assert [ell % 16 for ell in exact] == [9]


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
    assert out.splitlines()[0].endswith(" at unramified_rank_lower_bound")
    assert "0/1 certificates verified" in out


def test_verify_file_names_a_one_ulp_drift_in_the_index_bound(tmp_path, capsys):
    rec = tmp_path / "one.jsonl"
    rc, _, _ = run(
        capsys, "verify", "--s", "2", "--t", "75", "--p", "5", "--out", str(rec),
    )
    assert rc == 0
    data = json.loads(rec.read_text())
    witness = data["checks"][9]["witness"]
    witness["index_square_bound"] = math.nextafter(witness["index_square_bound"], 9.0)
    rec.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    rc, out, _ = run(capsys, "verify", "--file", str(rec))
    assert rc == 1
    assert out.splitlines()[0] == (
        "line 1: MISMATCH for subject "
        "{'s': '2', 't': '75', 'ell': '5641', 'p': '5', 'n': '1'} "
        "at checks[9].witness.index_square_bound"
    )


GOLDEN = Path(__file__).parent / "data" / "golden_records.jsonl"


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda d: json.dumps(dict(reversed(d.items()))),  # keys in another order
        lambda d: json.dumps(d, indent=None),  # ", " and ": " separators
        lambda d: " " + json.dumps(d, separators=(",", ":")) + "  ",  # padded
    ],
    ids=["reordered-keys", "spaced", "padded"],
)
@pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_verify_file_accepts_other_spellings_of_a_record(rewrite, ending, tmp_path, capsys):
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    batch = tmp_path / "batch.jsonl"
    batch.write_bytes("".join(rewrite(json.loads(line)) + ending for line in lines).encode())
    rc, out, _ = run(capsys, "verify", "--file", str(batch), "--verbose")
    assert rc == 0
    assert [row.split(": ok ")[0] for row in out.splitlines()[:-1]] == [
        f"line {i}" for i in range(1, len(lines) + 1)]
    assert out.endswith(f"{len(lines)}/{len(lines)} certificates verified\n")


def test_verify_file_parses_a_fresh_line_only_when_it_differs(monkeypatch, tmp_path, capsys):
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    parsed = []
    real = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: parsed.append(text) or real(text, **kw))
    rc, _, _ = run(capsys, "verify", "--file", str(GOLDEN))
    assert rc == 0
    assert parsed == []  # each head is read alone; no line in full, no fresh one
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text(json.dumps(real(lines[0])) + "\n", encoding="utf-8")
    parsed.clear()
    rc, _, _ = run(capsys, "verify", "--file", str(spaced))
    assert rc == 0
    assert parsed[1:] == [lines[0]]  # the fresh line, parsed to compare as a dict


@pytest.mark.parametrize("fmt", ["csv", "pretty"])
def test_search_writes_csv_and_pretty_lines_without_a_record(fmt, monkeypatch, tmp_path, capsys):
    # each line is read off the certificate; no record is written or parsed
    want = tmp_path / "want.txt"
    assert main(["search", "--mode", "infinite", "--max-param", "120", "--workers", "1",
                 "--format", fmt, "--out", str(want)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a record was written or parsed")
    monkeypatch.setattr(cli, "certificate_to_jsonl", refuse)
    monkeypatch.setattr(json, "loads", refuse)
    got = tmp_path / "got.txt"
    assert main(["search", "--mode", "infinite", "--max-param", "120", "--workers", "1",
                 "--format", fmt, "--out", str(got)]) == 0
    capsys.readouterr()
    assert got.read_bytes() == want.read_bytes()
    assert len(got.read_text().splitlines()) > 5


def test_first_difference_walks_objects_and_lists():
    stored = {"a": [1, {"b": 2}], "c": 3}
    assert cli._first_difference(stored, stored) is None
    assert cli._first_difference(stored, {"a": [1, {"b": 2.5}], "c": 3}) == "a[1].b"
    assert cli._first_difference(stored, {"a": [1], "c": 3}) == "a[1]"
    assert cli._first_difference(stored, {"a": [1, {"b": 2}]}) == "c"
    assert cli._first_difference(stored, {**stored, "d": 4}) == "d"


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


def test_verify_file_names_a_line_that_is_not_utf8(tmp_path, capsys):
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()[0].encode()
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\xff\xfe\n")  # a UTF-16 byte-order mark
    rc, out, err = run(capsys, "verify", "--file", str(bad))
    assert (rc, err) == (1, "")
    assert out.splitlines() == [
        "line 1: not a certificate record ('utf-8' codec can't decode byte 0xff in "
        "position 0: invalid start byte)",
        "0/1 certificates verified",
    ]
    # the lines around it are read as UTF-8, and a valid non-ASCII line is
    # no record either
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_bytes(golden + b"\n" + golden[:20] + b"\xe9\n\xc3\xa9\n" + golden + b"\n")
    rc, out, _ = run(capsys, "verify", "--file", str(mixed))
    assert rc == 1
    lines = out.splitlines()
    assert lines[0].startswith("line 2: not a certificate record ('utf-8' codec can't "
                               "decode byte 0xe9 in position 20")
    assert lines[1].startswith("line 3: not a certificate record (Expecting value")
    assert lines[2:] == ["2/4 certificates verified"]


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"schema":"1","theorem":"divisibility","subject":' + "[" * 100_000,
], ids=["a-list", "a-subject"])
def test_verify_file_names_a_deeply_nested_line(tmp_path, capsys, text):
    deep = tmp_path / "deep.jsonl"
    deep.write_text(text + "\n", encoding="utf-8")
    rc, out, err = run(capsys, "verify", "--file", str(deep))
    assert (rc, err) == (1, "")
    said, total = out.splitlines()
    assert said.startswith("line 1: not a certificate record (maximum recursion depth")
    assert total == "0/1 certificates verified"


def _verify_file_ends_in_a_named_verdict(path, capsys):
    """``verify --file path`` ends in exit 0 or 1, each bad line named and a
    count last; any exception, a traceback from the console script, fails."""
    rc = main(["verify", "--file", str(path)])
    out, err = capsys.readouterr()
    assert rc in (0, 1) and err == ""
    # a stored theorem is printed as it is, so a verdict may hold a newline
    *said, total, end = out.split("\n")
    assert end == "" and total.endswith(" certificates verified")
    verified, count = map(int, total.split()[0].split("/"))
    bad = [line for line in said if re.match(r"line \d+: ", line)]
    assert said[:1] == bad[:1] and verified + len(bad) == count
    assert rc == (0 if count and not bad else 1)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=st.binary(max_size=300))
def test_any_bytes_as_a_record_file_end_in_a_named_verdict(content, tmp_path, capsys):
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(content)
    _verify_file_ends_in_a_named_verdict(path, capsys)


def _edited(line: str, edit) -> str:
    at, text, cut = edit
    at %= len(line) + 1
    return line[:at] + text + line[at + cut:]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(st.one_of(
    st.text(max_size=60),
    st.tuples(st.sampled_from(GOLDEN.read_text(encoding="utf-8").splitlines()),
              st.tuples(st.integers(0, 2000), st.text(max_size=3), st.integers(0, 3))),
), max_size=4))
def test_any_text_lines_as_a_record_file_end_in_a_named_verdict(lines, tmp_path, capsys):
    # arbitrary text, and golden records with a few characters edited
    path = tmp_path / "fuzz.jsonl"
    text = "\n".join(_edited(*line) if isinstance(line, tuple) else line for line in lines)
    path.write_text(text, encoding="utf-8")
    _verify_file_ends_in_a_named_verdict(path, capsys)


_RANK_ONE_WITHOUT_T = {
    "schema": "1", "theorem": "rank-one", "subject": {"s": "2", "ell": "41"},
}
_T_NOT_AN_INTEGER = {
    "schema": "1", "theorem": "divisibility",
    "subject": {"s": "2", "t": "x", "ell": "641", "p": "5", "n": "1"},
}


@pytest.mark.parametrize(
    "line",
    [
        '{"schema":"2","theorem":"divisibility"}',
        "[1,2]",
        json.dumps(_RANK_ONE_WITHOUT_T),
        json.dumps(_T_NOT_AN_INTEGER),
    ],
    ids=["other-schema", "json-array", "rank-one-without-t", "t-not-an-integer"],
)
def test_verify_file_refuses_malformed_records_by_name(line, tmp_path, capsys):
    # each of these ended in a traceback; a good record after it still counts
    good = run(capsys, "verify", "--s", "2", "--t", "5", "--mode", "rank",
               "--out", str(tmp_path / "good.jsonl"))[0]
    assert good == 0
    batch = tmp_path / "batch.jsonl"
    batch.write_text(line + "\n" + (tmp_path / "good.jsonl").read_text())
    rc, out, _ = run(capsys, "verify", "--file", str(batch))
    assert rc == 1
    assert out.splitlines()[0].startswith("line 1: not a certificate record (")
    assert "1/2 certificates verified" in out


def test_verify_file_skips_blank_lines(tmp_path, capsys):
    line = Path(__file__).parent.joinpath("data", "golden_records.jsonl").read_text(
        encoding="utf-8").splitlines()[0]
    batch = tmp_path / "blank.jsonl"
    batch.write_text("\n" + line + "\n  \n")
    rc, out, _ = run(capsys, "verify", "--file", str(batch), "--verbose")
    assert rc == 0
    assert out.splitlines()[0].startswith("line 2: ok ")
    assert out.splitlines()[-1] == "1/1 certificates verified"


def test_verify_file_names_a_missing_key_and_a_longer_list(tmp_path, capsys):
    lines = Path(__file__).parent.joinpath("data", "golden_records.jsonl").read_text(
        encoding="utf-8").splitlines()
    less = json.loads(lines[0])
    del less["conclusion_basis"]
    longer = json.loads(lines[5])
    assert longer["ramified_primes"] == ["2", "5641", "5"]
    longer["ramified_primes"].append("7")
    batch = tmp_path / "shapes.jsonl"
    batch.write_text(json.dumps(less) + "\n" + json.dumps(longer) + "\n")
    rc, out, _ = run(capsys, "verify", "--file", str(batch))
    assert rc == 1
    assert out.splitlines() == [
        "line 1: MISMATCH for subject {'s': '2', 't': '25', 'ell': '641', 'p': '5', 'n': '1'}"
        " at conclusion_basis",
        "line 2: MISMATCH for subject {'s': '2', 't': '75', 'ell': '5641', 'p': '5', 'n': '1'}"
        " at ramified_primes[3]",
        "0/2 certificates verified",
    ]


def test_verify_file_names_a_refused_line(tmp_path, capsys):
    golden = Path(__file__).parent / "data" / "golden_records.jsonl"
    record = json.loads(golden.read_text(encoding="utf-8").splitlines()[0])
    assert record["subject"]["t"] == "25"
    record["subject"]["t"] = "5"  # v_5(s t) = 1 < n + 1
    batch = tmp_path / "refused.jsonl"
    batch.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    rc, out, _ = run(capsys, "verify", "--file", str(batch))
    assert rc == 1
    assert out.splitlines() == [
        "line 1: REFUSED at check 'insufficient-depth'",
        "0/1 certificates verified",
    ]


@pytest.mark.parametrize("cut", [lambda line: line[:-1], lambda line: line + "]"],
                         ids=["tail-cut-short", "tail-with-extra-data"])
@pytest.mark.parametrize("t", ["25", "5"], ids=["valid-head", "refused-subject"])
def test_verify_file_parses_a_broken_tail_before_any_outcome_but_ok(t, cut, tmp_path, capsys):
    # the head alone names a task that certifies (t = 25) or is refused
    # (t = 5); the line is still named as no record, as a full parse names it
    line = GOLDEN.read_text(encoding="utf-8").splitlines()[0]
    assert '"t":"25"' in line
    broken = cut(line.replace('"t":"25"', f'"t":"{t}"', 1))
    with pytest.raises(json.JSONDecodeError) as parse_error:
        json.loads(broken)
    batch = tmp_path / "broken.jsonl"
    batch.write_text(broken + "\n")
    rc, out, _ = run(capsys, "verify", "--file", str(batch), "--verbose")
    assert rc == 1
    assert out.splitlines() == [
        f"line 1: not a certificate record ({parse_error.value})",
        "0/1 certificates verified",
    ]


def test_verify_file_names_an_unknown_theorem(tmp_path, capsys):
    # a list or a number is no theorem name either, and no traceback; the
    # name is printed as JSON text, so one holding U+0085 or a newline
    # keeps its verdict on one line
    batch = tmp_path / "unknown.jsonl"
    batch.write_text('{"schema":"1","theorem":"sha-order","subject":{"s":"2"}}\n'
                     '{"schema":"1","theorem":[1],"subject":{}}\n'
                     '{"schema":"1","theorem":7,"subject":{}}\n'
                     '{"schema":"1","theorem":"\\u0085divisibility","subject":{}}\n'
                     '{"schema":"1","theorem":"a\\nb","subject":{}}\n')
    rc, out, _ = run(capsys, "verify", "--file", str(batch))
    assert rc == 1
    assert out.splitlines() == [
        'line 1: unknown theorem "sha-order"',
        "line 2: unknown theorem [1]",
        "line 3: unknown theorem 7",
        'line 4: unknown theorem "\\u0085divisibility"',
        'line 5: unknown theorem "a\\nb"',
        "0/5 certificates verified",
    ]


def test_verify_file_lets_a_soundness_alarm_propagate(tmp_path, capsys, monkeypatch):
    rec = tmp_path / "rank.jsonl"
    assert run(capsys, "verify", "--s", "2", "--t", "5", "--mode", "rank",
               "--out", str(rec))[0] == 0

    def alarm(s, t):
        raise AssertionError("descent gave rank cap 2, expected 1")

    monkeypatch.setattr(cli, "certify_rank_one", alarm)
    with pytest.raises(AssertionError, match="rank cap 2"):
        main(["verify", "--file", str(rec)])


@pytest.mark.parametrize(
    "mode,name,s,t,p",
    [
        ("main", "certify_divisibility", 2, 25, 5),
        ("square_subfamily", "certify_square_subfamily", 25, 2, 5),
        ("infinite", "certify_infinite_instance", 2, 75, 5),
        ("rank", "certify_rank_one", 2, 5, None),
    ],
)
def test_registry_looks_each_certifier_up_by_name(mode, name, s, t, p, monkeypatch, capsys):
    # profilers and benchmarks rebind cli.certify_*; every dispatch must see it
    calls = []
    real = getattr(cli, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, name, spy)
    line = cli.certify_candidate((mode, s, t, p, 1, "jsonl"))
    argv = ["verify", "--mode", mode, "--s", str(s), "--t", str(t)]
    rc, out, _ = run(capsys, *argv, *(["--p", str(p)] if p else []))
    assert rc == 0 and out.splitlines()[-1] == line
    assert len(calls) == 2


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


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_resume_after_crash_past_checkpoint_is_byte_identical(fmt, tmp_path, capsys):
    base = ["search", "--max-param", "80", "--workers", "1", "--format", fmt]
    full = tmp_path / "full"
    assert main(base + ["--out", str(full)]) == 0
    full_lines = full.read_text().splitlines(keepends=True)

    part = tmp_path / "part"
    ck = tmp_path / "ck.json"
    assert main(base + ["--out", str(part), "--checkpoint", str(ck),
                        "--target-count", "40"]) == 0
    assert json.loads(ck.read_text())["found"] == 40
    # a record emitted after the last checkpoint write, and half of the next
    header = 1 if fmt == "csv" else 0
    with open(part, "a", encoding="utf-8") as fh:
        fh.write(full_lines[header + 40] + full_lines[header + 41][:20])

    assert main(base + ["--out", str(part), "--checkpoint", str(ck)]) == 0
    capsys.readouterr()
    assert part.read_bytes() == full.read_bytes()


def test_resume_after_crash_mid_batch_is_byte_identical(tmp_path, capsys, monkeypatch):
    base = ["search", "--max-param", "80", "--workers", "1"]
    full = tmp_path / "full.jsonl"
    assert main(base + ["--out", str(full)]) == 0

    real = cli.certify_candidate
    calls = []

    def crashing(task):
        calls.append(task)
        if len(calls) == 45:
            raise RuntimeError("simulated crash")
        return real(task)

    part = tmp_path / "part.jsonl"
    ck = tmp_path / "ck.json"
    monkeypatch.setattr(cli, "certify_candidate", crashing)
    with pytest.raises(RuntimeError):
        main(base + ["--out", str(part), "--checkpoint", str(ck)])
    # the checkpoint vouches for the first batch; more records were written
    assert json.loads(ck.read_text())["found"] < len(part.read_text().splitlines())

    monkeypatch.setattr(cli, "certify_candidate", real)
    assert main(base + ["--out", str(part), "--checkpoint", str(ck)]) == 0
    capsys.readouterr()
    assert part.read_bytes() == full.read_bytes()


def test_resume_from_an_empty_checkpoint_writes_the_csv_header(tmp_path, capsys):
    base = ["search", "--max-param", "25", "--workers", "1", "--format", "csv"]
    full = tmp_path / "full.csv"
    assert main(base + ["--out", str(full)]) == 0
    ck = tmp_path / "ck.json"
    fingerprint = SearchConfig("main", 5, 1, 25, target_count=1, workers=1,
                               fmt="csv").fingerprint()
    cli._save_checkpoint(str(ck), fingerprint, 0, 0)
    part = tmp_path / "part.csv"
    part.write_text("s,t,e")  # a header cut short
    assert main(base + ["--out", str(part), "--checkpoint", str(ck)]) == 0
    capsys.readouterr()
    assert part.read_bytes() == full.read_bytes()


@pytest.mark.parametrize("first,then", [("csv", "jsonl"), ("jsonl", "csv"), ("csv", "pretty")])
def test_resume_in_another_format_is_refused_and_leaves_the_file(first, then, tmp_path, capsys):
    # csv then jsonl exited 0 and left the csv header, one csv line and two
    # jsonl lines, losing the record (2, 25); jsonl then csv was refused
    # as a file holding fewer records than the checkpoint vouches for
    base = ["search", "--max-param", "30", "--workers", "1"]
    out, ck = tmp_path / "out", tmp_path / "ck.json"
    assert main(base + ["--format", first, "--target-count", "2",
                        "--checkpoint", str(ck), "--out", str(out)]) == 0
    written, saved = out.read_bytes(), ck.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(base + ["--format", then, "--target-count", "4",
                     "--checkpoint", str(ck), "--out", str(out)])
    assert exc.value.code == 2
    assert (f"checkpoint error: {ck} belongs to a different search configuration"
            in capsys.readouterr().err)
    assert out.read_bytes() == written and ck.read_bytes() == saved


def test_resume_refuses_output_shorter_than_checkpoint(tmp_path, capsys):
    base = ["search", "--max-param", "80", "--workers", "1"]
    part = tmp_path / "part.jsonl"
    ck = tmp_path / "ck.json"
    assert main(base + ["--out", str(part), "--checkpoint", str(ck),
                        "--target-count", "5"]) == 0
    short = "".join(part.read_text().splitlines(keepends=True)[:3])
    part.write_text(short)
    with pytest.raises(SystemExit) as exc:
        main(base + ["--out", str(part), "--checkpoint", str(ck)])
    assert exc.value.code == 2
    assert "vouches for" in capsys.readouterr().err
    assert part.read_text() == short


def test_checkpoint_rejects_other_config(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    args = ["search", "--mode", "infinite", "--max-param", "80", "--workers", "1",
            "--target-count", "1", "--checkpoint", str(ck), "--out",
            str(tmp_path / "a.jsonl")]
    assert main(args) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["search", "--mode", "infinite", "--max-param", "90", "--workers", "1",
              "--checkpoint", str(ck), "--out", str(tmp_path / "b.jsonl")])
    assert exc.value.code == 2
    assert "belongs to a different search configuration" in capsys.readouterr().err


@pytest.mark.parametrize("content,why", [
    (b"not json", "Expecting value"),
    (b"[1]", "not a JSON object holding config, next_index and found"),
    (b'{"config": "x", "next_index": 0}', "not a JSON object holding"),
    (b'{"config": "x", "next_index": "3", "found": 0}', "must be integers >= 0"),
    (b'{"config": "x", "next_index": 3, "found": -1}', "must be integers >= 0"),
    (b'{"config": "x", "next_index": 3, "found": true}', "must be integers >= 0"),
    (b"\xff\xfe", "can't decode"),
    (b"[" * 100_000, "recursion"),
], ids=["not-json", "a-list", "no-found", "string-count", "negative-count", "bool-count",
        "not-utf8", "deep-nesting"])
def test_a_malformed_checkpoint_is_a_usage_error_that_leaves_both_files(
        content, why, tmp_path, capsys):
    # "not json" ended in JSONDecodeError and "[1]" in AttributeError
    ck, out = tmp_path / "ck.json", tmp_path / "out.jsonl"
    ck.write_bytes(content)
    out.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        main(["search", "--p", "5", "--max-param", "30", "--checkpoint", str(ck),
              "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"checkpoint error: {ck} is no checkpoint: ") and why in err, err
    assert ck.read_bytes() == content and out.read_text() == "kept\n"


def test_a_malformed_checkpoint_is_refused_when_the_search_writes_to_stdout(
        tmp_path, capsys):
    ck = tmp_path / "ck.json"
    ck.write_text("[1]")
    with pytest.raises(SystemExit) as exc:
        main(["search", "--p", "5", "--max-param", "30", "--checkpoint", str(ck)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "is no checkpoint" in captured.err


def test_a_directory_as_checkpoint_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--p", "5", "--max-param", "30", "--checkpoint", str(tmp_path),
              "--out", str(tmp_path / "out.jsonl")])
    assert exc.value.code == 2
    assert f"checkpoint error: {tmp_path} is no checkpoint" in capsys.readouterr().err


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=st.binary(max_size=200))
def test_any_bytes_as_a_checkpoint_end_in_a_search_or_a_named_usage_error(
        content, tmp_path, capsys):
    ck, out = tmp_path / "fuzz.ck", tmp_path / "fuzz.jsonl"
    ck.write_bytes(content)
    out.write_bytes(b"")
    try:
        code = main(["search", "--p", "5", "--max-param", "25", "--checkpoint", str(ck),
                     "--out", str(out)])
    except SystemExit as exc:
        assert exc.code == 2, content
        assert f"checkpoint error: {ck} " in capsys.readouterr().err, content
        assert ck.read_bytes() == content and out.read_bytes() == b"", content
    else:
        assert code == 0, content
        capsys.readouterr()


def test_worker_count_independence(tmp_path, capsys):
    one = tmp_path / "w1.jsonl"
    two = tmp_path / "w2.jsonl"
    argv = ["search", "--max-param", "25", "--target-count", "12"]
    assert main(argv + ["--workers", "1", "--out", str(one)]) == 0
    assert main(argv + ["--workers", "2", "--out", str(two)]) == 0
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()


def test_one_worker_search_certifies_nothing_past_the_target(tmp_path, capsys, monkeypatch):
    # one worker maps each batch lazily: the last candidate certified is
    # the one that reaches the target, although its batch holds more
    real = cli.certify_candidate
    lines = []
    monkeypatch.setattr(cli, "certify_candidate",
                        lambda task: lines.append(real(task)) or lines[-1])
    assert main(["search", "--max-param", "80", "--workers", "1", "--target-count", "3",
                 "--out", str(tmp_path / "t.jsonl")]) == 0
    capsys.readouterr()
    assert lines[-1] is not None and sum(line is not None for line in lines) == 3
    assert len(lines) < cli._BATCH


def test_worker_pool_is_capped_at_the_batch_size(tmp_path, capsys, monkeypatch):
    seen = []

    class InlinePool:
        # records the requested size and runs the tasks in this process
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # the pool is imported inside run_search, so patch it where it lives
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    one = tmp_path / "w1.jsonl"
    many = tmp_path / "many.jsonl"
    argv = ["search", "--max-param", "25", "--target-count", "12"]
    assert main(argv + ["--workers", "1", "--out", str(one)]) == 0
    assert main(argv + ["--workers", "1000", "--out", str(many)]) == 0
    assert main(argv + ["--workers", "3", "--out", str(many)]) == 0
    capsys.readouterr()
    assert seen == [32, 3]
    assert many.read_bytes() == one.read_bytes()


def test_module_runs_as_script(tmp_path):
    out = tmp_path / "m.jsonl"
    env = dict(os.environ)
    src = str(Path(ellcert.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ellcert.cli", "search", "--max-param", "30",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_size > 0
    assert json.loads(out.read_text().splitlines()[0])["theorem"] == "divisibility"


def test_verify_file_loads_no_pool_hashlib_or_dataclasses(tmp_path):
    # -S keeps site-packages hooks from loading modules of their own; no
    # certificate takes a Fraction or a Decimal logarithm, so neither a
    # verify --file run nor a one-worker search loads fractions or decimal
    golden = Path(__file__).parent / "data" / "golden_records.jsonl"
    out = tmp_path / "p13.jsonl"
    search = ["search", "--mode", "main", "--p", "13", "--max-param", "200",
              "--workers", "1", "--out", str(out)]
    script = (
        "import json, sys\n"
        "import ellcert.cli\n"
        f"rc = ellcert.cli.main(['verify', '--file', {str(golden)!r}])\n"
        f"rc += ellcert.cli.main({search!r})\n"
        "heavy = ('concurrent.futures', 'multiprocessing', 'hashlib', 'dataclasses',\n"
        "         'fractions', 'decimal', 'numbers')\n"
        "print(json.dumps([rc, [m for m in heavy if m in sys.modules]]))\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = str(Path(ellcert.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
    assert len(out.read_text(encoding="utf-8").splitlines()) > 0


def test_heights_report_loads_no_fractions():
    # the base point (-s^2, s t) is integral, and so is every doubling
    script = (
        "import json, sys\n"
        "import ellcert.cli\n"
        "rc = ellcert.cli.main(['heights', '--s', '2', '--t', '75', '--iterations', '7'])\n"
        "print(json.dumps([rc, [m for m in ('fractions', 'decimal') if m in sys.modules]]))\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = str(Path(ellcert.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]


def test_checkpoint_fingerprints_are_stable():
    # checkpoints written by earlier releases must still resume
    assert SearchConfig("main", 5, 1, 25, 1, 1).fingerprint() == "ea044ea46dc9c413"
    # a jsonl key is the same as before formats were keyed; csv and pretty
    # runs key their format, so neither resumes the other's checkpoint
    assert SearchConfig("main", 5, 1, 25, 1, 1, "jsonl").fingerprint() == "ea044ea46dc9c413"
    keys = {SearchConfig("main", 5, 1, 25, 1, 1, fmt).fingerprint()
            for fmt in ("jsonl", "csv", "pretty")}
    assert len(keys) == 3
    assert (
        SearchConfig("square_subfamily", 13, 1, 400, 10**9, 4).fingerprint()
        == "040ccd1792f90d70"
    )
    # target_count and workers are not part of the key
    assert SearchConfig("main", 13, 1, 400, 7, 2).fingerprint() == "034cd9ec40069822"
    assert SearchConfig("main", 13, 1, 400, 1, 1).fingerprint() == "034cd9ec40069822"


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


@pytest.mark.parametrize(
    "ells,reason",
    [
        ("3321506250000000000000841", "ell-primality-unproven"),  # above psi_13
        ("5,15", "ell-not-prime"),
    ],
)
def test_selmer_table_refuses_an_ell_not_proved_prime(ells, reason, capsys):
    rc, out, _ = run(capsys, "selmer-table", "--ells", ells)
    assert rc == 1
    # every entry is checked before the header, so no row is printed
    assert out.startswith(f"REFUSED at check '{reason}': ")
    assert len(out.splitlines()) == 1


@pytest.mark.parametrize("max_ell", ["1", "0", "-3"])
def test_selmer_table_max_ell_below_two_is_a_usage_error(max_ell, capsys):
    # no prime lies below 2, so the table would be a bare header
    rc, out, err = run(capsys, "selmer-table", "--max-ell", max_ell)
    assert rc == 2
    assert out == ""
    assert "--max-ell must be at least 2" in err


def test_selmer_table_non_integer_ell_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selmer-table", "--ells", "abc"])
    assert exc.value.code == 2
    assert "'abc' is not a comma-separated list of integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("--s", "0", "--t", "0"),
        ("--s", "1", "--t", "2", "--iterations", "0"),
    ],
)
def test_heights_usage_errors(argv, capsys):
    rc, out, err = run(capsys, "heights", *argv)
    assert rc == 2
    assert out == "" and err


def test_heights_refuses_a_doubling_past_the_bit_budget(monkeypatch, capsys):
    # the real budget refuses (2, 75) at its tenth doubling; the proven
    # lower bound on h(2^k P) refuses before the doublings in between
    monkeypatch.setattr(heights, "_X_BITS_BUDGET", 5000)
    rc, out, _ = run(capsys, "heights", "--s", "2", "--t", "75", "--iterations", "600")
    assert rc == 1
    assert out == (
        "REFUSED at check 'height-digit-budget': "
        "the doubling to x(2^6 P) could pass the budget of 5000 bits: by the height "
        "gaps and hhat(2^k P) = 4^k hhat(P), x(2^5 P) has more than 2873.758 bits\n"
    )


def test_heights_refuses_the_next_doubling_by_its_own_bound(monkeypatch, capsys):
    # where the lower bound does not reach the budget, the bound of the
    # next doubling refuses it just before it starts
    monkeypatch.setattr(heights, "_X_BITS_BUDGET", 6250)
    rc, out, _ = run(capsys, "heights", "--s", "2", "--t", "75", "--iterations", "5")
    assert rc == 1
    assert out == (
        "REFUSED at check 'height-digit-budget': "
        "x(2^5 P) could reach 6421 bits, past the budget of 6250\n"
    )


def test_heights_2_75_at_40_iterations_refuses_after_one_doubling(capsys, monkeypatch):
    # the tenth doubling would pass 2^21 bits; a check of each bound just
    # before its doubling let nine doublings (about 5 s) run first
    done = []
    real = heights._x_double
    monkeypatch.setattr(heights, "_x_double", lambda a, u, w: done.append(1) or real(a, u, w))
    rc, out, _ = run(capsys, "heights", "--s", "2", "--t", "75", "--iterations", "40")
    assert rc == 1
    assert out.startswith("REFUSED at check 'height-digit-budget': "
                          "the doubling to x(2^10 P) could pass")
    assert len(done) == 1


@pytest.mark.parametrize("s,t", [("1", "0"), ("0", "1")])
def test_heights_refuses_a_torsion_base_point(s, t, capsys):
    rc, out, _ = run(capsys, "heights", "--s", s, "--t", t)
    assert rc == 1
    assert out.startswith("REFUSED at check 'torsion-point': ")
    assert len(out.splitlines()) == 1


def test_heights_reports_no_floor_for_an_ell_with_a_fourth_power(capsys):
    # s and t need not be coprime here: ell = 2^4 + 4^2 = 2^5
    rc, out, _ = run(capsys, "heights", "--s", "2", "--t", "4")
    assert rc == 0
    assert out.splitlines()[0] == "ell = 32"
    assert out.splitlines()[-1] == (
        "height floor unavailable: vy_lower_bound: a=-32 is not fourth-power-free")


def test_heights_of_a_1200_digit_ell_reports_no_floor_and_ends():
    # the floor's fourth-power test trial-divided ell to ell^(1/5): still
    # running after 60 s; past _VY_MAX_BITS it is refused before it starts
    proc = subprocess.run(
        [sys.executable, "-m", "ellcert.cli", "heights", "--s", str(10**300), "--t", "1",
         "--iterations", "3"],
        env=dict(os.environ, PYTHONPATH=str(Path(ellcert.__file__).parent.parent)),
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[2].startswith("canonical height in [") and len(lines) == 5
    assert lines[-1] == ("height floor unavailable: vy_lower_bound: a has 3987 bits, "
                         "past the 100 up to which its fourth-power-freeness is tested")
