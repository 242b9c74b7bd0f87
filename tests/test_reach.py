"""Reach guard: every executable line of ``src/ellcert`` is executed by
some CLI run, or is named here as one that stays although no input meets
it.

One fresh interpreter runs under ``sys.settrace``, started before
``ellcert`` is imported, so module-level lines count, and warm
``lru_cache``s and the Selmer memo left by earlier tests cannot hide a
line that only runs on a cache miss.  It runs the argv of ``_cli_runs``,
of ``REFUSAL_TESTS`` and of ``_branch_runs``, the certifier calls of
``golden_refusals.json``, and the module as a script.  Each executable
line, from ``co_lines()`` of every code object that compiling a module
makes, must then meet one of these:

* it was executed;
* it lies in an ``ALLOWED`` function, a reference oracle the tests
  cross-check against (no run may enter one);
* it is a soundness alarm: part of a ``raise AssertionError(...)`` or of
  an ``assert``'s message, as the AST shows;
* it lies in a statement that ``LINE_ALLOWED`` names, with its reason.

A line that meets none is dead: a re-check of what every caller has
already proved, or a guard of an input no caller can pass.  Delete it,
or say here why it stays.

An import guard sits beside it: no module in the package imports
``decimal``, whose logarithm is only the tests' oracle (``ln_oracle``).

A third guard does for refusal sites what the first does for lines:
every (module, function, reason) at which the package raises a
``PreconditionFailure`` is met by some input,
from the outcome grid (``test_outcome_grid.py``), ``golden_refusals.json``
or the CLI argv of a test that ``REFUSAL_TESTS`` names.  The guard runs
those inputs and records the function that raised each refusal, so a
dead site cannot hide behind a live one with the same reason.  A site no
input meets is a re-check of what a caller has already refused: make it
an assertion of the caller's contract, or delete it.
"""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from test_outcome_grid import BOXES, compute_box

import ellcert
from ellcert import cli
from ellcert.certify import batch_distinctness, certify_divisibility
from ellcert.cli import SearchConfig
from ellcert.errors import PreconditionFailure

PACKAGE = Path(ellcert.__file__).resolve().parent
DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_records.jsonl"

#: (module, function) -> why it stays although no CLI run enters it.
ALLOWED = {
    # the group law and the small-point search: oracles that the tests
    # use to cross-check the closed forms (2P, torsion, primitivity); no
    # command builds a Fraction point, the heights report included
    ("curve", "on_curve"): "group-law oracle: the constructor and the sums check with it",
    ("curve", "point"): "group-law oracle",
    ("curve", "neg"): "group-law oracle",
    ("curve", "_add_raw"): "group-law oracle",
    ("curve", "add"): "group-law oracle",
    ("curve", "smul"): "group-law oracle; the benchmark tracer binds it",
    ("curve", "translate_by_torsion"): "group-law oracle",
    ("curve", "rational_points_up_to_height"): (
        "small-point oracle; the benchmark tracer binds it"),
    ("arith", "factorize"): "factoring oracle; the benchmark tracer binds it",
    ("certify", "certificate_from_dict"): (
        "parse oracle of the record round trip; the benchmark tracer binds it"),
    ("certify", "certificate_to_dict"): (
        "a certificate's record as a dict, for the tests; the benchmark tracer binds it"),
    ("descent", "search_torsor_point"): "global-point oracle for torsors",
    ("certify", "batch_distinctness"): (
        "the pairwise distinctness verdict, kept for the batch check of "
        "infinite-family records"),
}

#: (module, function, first line of a statement, stripped) -> why the
#: statement stays although no run executes all of it.  ``<module>`` is
#: a module's own code.  Each key names one statement.
LINE_ALLOWED = {
    # BPSW branches no known input meets; a prime above psi_13 whose
    # Lucas test enters the doubling loop is run instead (``_branch_runs``)
    ("arith", "_strong_lucas_prp", "if j == 0 and abs(d_candidate) != n:"): (
        "a D sharing a factor with n proves n composite; no known n that "
        "passes Miller-Rabin base 2 above psi_13 meets one"),
    ("arith", "primality_info", "if is_square(n):"): (
        "the Lucas D search needs a non-square; no known square above "
        "psi_13 passes Miller-Rabin base 2"),
    # rows of cited tables
    ("curve", "reduction_at", "return ReductionData(True, None, None)"): (
        "good-reduction row of the cited table; the one caller asks at l, "
        "which divides a"),
    ("curve", "reduction_at", 'return ReductionData(False, "unclassified", None)'): (
        "the table's other bad rows; l = 9 mod 16 always gives type III"),
    ("heights", "_vy_log2_coeff", "return -1"): (
        "the Voutier-Yabuta row a = 4, 52 mod 64; no a = -(s^4 + t^2) is "
        "in it (certify_primitive's lemma), but the cited table has it"),
    # answers the oracles feed
    ("curve", "is_torsion_point", "return True"): (
        "O is torsion; the group-law oracles' sums reach it, and the "
        "certifiers and the report pass affine points"),
    ("heights", "naive_height_bounds", "return 0.0, 0.0"): (
        "h(O) = 0 for the oracles' points; the report passes an affine point"),
    ("arith", "is_square", "return False"): (
        "no negative number is a square; every caller in the package "
        "passes n >= 0"),
    # the proved procedures, whole
    ("heights", "x_multiple_reduced", "if bound > _X_BITS_BUDGET:"): (
        "the exact bound behind the early refusal; Python's 4,300-digit "
        "cap on parsing an integer argument is the only reason no input "
        "reaches it"),
    ("descent", "_soluble_at_two", "if f0 == 0:"): (
        "a root at a disk's centre, a case of the proved recursion; no "
        "torsor of a prime l has one, as -beta/alpha has odd l-adic valuation"),
    # imports for annotations only
    ("curve", "<module>", "if TYPE_CHECKING:"): "a type checker's import of Fraction",
    ("primitivity", "<module>", "if TYPE_CHECKING:"): (
        "a type checker's import of Member, which would be circular at run time"),
}

_RUNNER = r"""
import json, os, runpy, sys, warnings

root, plan = sys.argv[1], json.loads(sys.argv[2])
hit = set()

def line(frame, event, arg):
    hit.add((frame.f_code.co_filename, frame.f_lineno))
    return line

def call(frame, event, arg):
    if not frame.f_code.co_filename.startswith(root):
        return None
    hit.add((frame.f_code.co_filename, frame.f_lineno))
    return line

sys.settrace(call)
import ellcert.cli as cli

for argv in plan["argv"]:
    try:
        cli.main(argv)
    except SystemExit:
        pass
for name, args in plan["calls"]:
    try:
        getattr(cli, name)(*args)
    except cli.PreconditionFailure:
        pass
# the module as a script, as ``python -m ellcert.cli`` runs it
sys.argv = ["ellcert", *plan["script"]]
warnings.simplefilter("ignore", RuntimeWarning)  # cli is imported already
try:
    runpy.run_module("ellcert.cli", run_name="__main__")
except SystemExit:
    pass
sys.settrace(None)
print(json.dumps(sorted(
    [os.path.basename(path)[:-3], n] for path, n in hit
    if os.path.dirname(os.path.abspath(path)) == root
)))
"""


def _cli_runs(tmp: Path) -> list[list[str]]:
    ck, out = str(tmp / "run.ckpt"), str(tmp / "run.jsonl")
    # a stored record that no longer re-verifies: the MISMATCH names a path
    drifted = json.loads(GOLDEN.read_text(encoding="utf-8").splitlines()[0])
    drifted["checks"][-1]["citation"] = "edited"
    (tmp / "drift.jsonl").write_text(json.dumps(drifted) + "\n", encoding="utf-8")
    return [
        # --verbose prints each fresh certificate's conclusion, the rank-one one's too
        ["verify", "--file", str(GOLDEN), "--verbose"],
        ["verify", "--file", str(tmp / "drift.jsonl")],
        ["verify", "--mode", "main", "--p", "5", "--s", "2", "--t", "25",
         "--out", str(tmp / "one.jsonl")],
        ["verify", "--mode", "square_subfamily", "--p", "5", "--s", "25", "--t", "2"],
        ["verify", "--mode", "infinite", "--p", "5", "--s", "2", "--t", "75"],
        ["verify", "--mode", "rank", "--s", "2", "--t", "5"],
        # a checkpointed search stopped early, then resumed
        ["search", "--p", "5", "--max-param", "40", "--target-count", "3",
         "--checkpoint", ck, "--out", out],
        ["search", "--p", "5", "--max-param", "40", "--checkpoint", ck, "--out", out],
        ["search", "--mode", "square_subfamily", "--p", "5", "--max-param", "30",
         "--format", "csv", "--out", str(tmp / "sq.csv")],
        ["search", "--mode", "infinite", "--p", "5", "--max-param", "80",
         "--format", "pretty", "--out", str(tmp / "inf.txt")],
        ["selmer-table", "--ells", "5,17,41,2"],
        ["heights", "--s", "1", "--t", "2"],
    ]


def _write_lines(path: Path, lines) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def _branch_runs(tmp: Path) -> dict[str, list[list[str]]]:
    """A test -> its argv that meet a usage, I/O or refusal branch, or a
    case of a proof, that no run of ``_cli_runs`` meets.  The files they
    read are written here as the tests write them."""
    first = GOLDEN.read_text(encoding="utf-8").splitlines()[0]
    record = json.loads(first)
    refused = dict(record, subject=dict(record["subject"], t="5"))
    infinite = json.loads(GOLDEN.read_text(encoding="utf-8").splitlines()[5])
    less = dict(record)
    longer = dict(infinite, ramified_primes=[*infinite["ramified_primes"], "7"])
    del less["conclusion_basis"]
    ck_other, ck_short, ck_empty = (str(tmp / f"{name}.ck") for name in ("o", "s", "e"))
    main_p5 = ["search", "--p", "5", "--workers", "1"]
    cli._save_checkpoint(ck_short, SearchConfig("main", 5, 1, 80, 1, 1).fingerprint(), 0, 5)
    cli._save_checkpoint(ck_empty, SearchConfig("main", 5, 1, 25, 1, 1, "csv").fingerprint(),
                         0, 0)
    (tmp / "part.csv").write_text("s,t,e")  # a header cut short
    (tmp / "empty.jsonl").write_text("")
    (tmp / "utf16.jsonl").write_bytes(b"\xff\xfe\n")
    return {
        "test_cli.py::test_search_config_errors": [
            ["search", "--max-param", "60", "--target-count", "0"],
            ["search", "--max-param", "0"],
            ["search", "--max-param", "20"],
            ["search", "--max-param", "60", "--p", "4"],
            ["search", "--max-param", "60", "--n", "0"],
            ["search", "--mode", "square_subfamily", "--max-param", "100", "--n", "2"],
            ["search", "--max-param", "30", "--workers", "0"],
        ],
        "test_cli.py::test_search_pretty_format": [  # to stdout
            ["search", "--max-param", "25", "--target-count", "2", "--format", "pretty"]],
        "test_cli.py::test_worker_count_independence": [
            ["search", "--max-param", "25", "--target-count", "12", "--workers", "2",
             "--out", str(tmp / "w2.jsonl")]],
        "test_cli.py::test_checkpoint_rejects_other_config": [
            [*main_p5, "--max-param", "30", "--target-count", "1", "--checkpoint", ck_other,
             "--out", str(tmp / "a.jsonl")],
            [*main_p5, "--max-param", "31", "--checkpoint", ck_other,
             "--out", str(tmp / "b.jsonl")]],
        "test_cli.py::test_resume_refuses_output_shorter_than_checkpoint": [
            [*main_p5, "--max-param", "80", "--checkpoint", ck_short,
             "--out", _write_lines(tmp / "short.jsonl", [first] * 3)]],
        "test_cli.py::test_resume_from_an_empty_checkpoint_writes_the_csv_header": [
            [*main_p5, "--max-param", "25", "--format", "csv", "--checkpoint", ck_empty,
             "--out", str(tmp / "part.csv")]],
        "test_cli.py::test_verify_refuses_a_flag_its_theorem_does_not_take": [
            ["verify", "--mode", "square_subfamily", "--p", "5", "--s", "25", "--t", "2",
             "--n", "3"],
            ["verify", "--mode", "rank", "--s", "2", "--t", "5", "--p", "5"]],
        "test_cli.py::test_verify_usage_errors": [
            ["verify", "--file", "x.jsonl", "--s", "2"],
            ["verify", "--t", "25", "--p", "5"],
            ["verify", "--s", "2", "--t", "25"]],
        "test_cli.py::test_verify_file_bad_inputs": [
            ["verify", "--file", str(tmp / "absent.jsonl")],
            ["verify", "--file", _write_lines(tmp / "garbled.jsonl", ["this is not json"])],
            ["verify", "--file", str(tmp / "empty.jsonl")]],
        "test_cli.py::test_verify_file_names_a_line_that_is_not_utf8": [
            ["verify", "--file", str(tmp / "utf16.jsonl")]],
        "test_cli.py::test_verify_file_names_a_deeply_nested_line": [
            ["verify", "--file", _write_lines(tmp / "deep.jsonl", [
                "[" * 100_000, first[:first.index('"subject":') + 10] + "[" * 100_000])]],
        "test_cli.py::test_verify_file_skips_blank_lines": [
            ["verify", "--file", _write_lines(tmp / "blank.jsonl", ["", first, "  "])]],
        "test_cli.py::test_verify_file_refuses_malformed_records_by_name": [
            ["verify", "--file", _write_lines(tmp / "malformed.jsonl", [
                '{"schema":"2","theorem":"divisibility"}', "[1,2]",
                '{"schema":"1","theorem":"rank-one","subject":{"s":"2","ell":"41"}}',
                first.replace('"t":"25"', '"t":"x"', 1)])]],
        "test_cli.py::test_verify_file_names_an_unknown_theorem": [
            ["verify", "--file", _write_lines(tmp / "unknown.jsonl", [
                '{"schema":"1","theorem":"sha-order","subject":{"s":"2"}}',
                '{"schema":"1","theorem":"a\\nb","subject":{}}'])]],
        "test_cli.py::test_verify_file_names_a_refused_line": [
            ["verify", "--file", _write_lines(tmp / "refused.jsonl", [json.dumps(refused)])]],
        "test_cli.py::test_verify_file_parses_a_broken_tail_before_any_outcome_but_ok": [
            ["verify", "--file", _write_lines(tmp / "broken.jsonl", [first[:-1]])]],
        "test_cli.py::test_verify_file_accepts_other_spellings_of_a_record": [
            ["verify", "--file", _write_lines(tmp / "spaced.jsonl", [json.dumps(record)])]],
        "test_cli.py::test_verify_file_names_a_missing_key_and_a_longer_list": [
            ["verify", "--file", _write_lines(tmp / "shapes.jsonl", [
                json.dumps(less), json.dumps(longer)])]],
        # every residue of l mod 16 runs its exact descent at its first prime
        "test_golden.py::test_selmer_table_matches_the_golden": [
            ["selmer-table", "--max-ell", "3000"]],
        "test_cli.py::test_selmer_table_max_ell_below_two_is_a_usage_error": [
            ["selmer-table", "--max-ell", "1"]],
        "test_cli.py::test_selmer_table_refuses_an_ell_not_proved_prime": [
            ["selmer-table", "--ells", "5,15"]],
        "test_cli.py::test_selmer_table_non_integer_ell_is_a_usage_error": [
            ["selmer-table", "--ells", "abc"]],
        "test_cli.py::test_heights_usage_errors": [
            ["heights", "--s", "0", "--t", "0"],
            ["heights", "--s", "1", "--t", "2", "--iterations", "0"]],
        "test_cli.py::test_heights_reports_no_floor_for_an_ell_with_a_fourth_power": [
            ["heights", "--s", "2", "--t", "4"]],
        "test_cli.py::test_heights_of_a_1200_digit_ell_reports_no_floor_and_ends": [
            ["heights", "--s", str(10**300), "--t", "1", "--iterations", "3"]],
        "test_cli.py::test_verify_rank_mode_refuses_a_composite_ell_above_psi_13": [
            ["verify", "--mode", "rank", "--s", "1350000", "--t", "11"]],
        # p = 1 is decided by the small table, psi_13 by the strong Lucas test
        "test_cli.py::test_verify_refuses_p_below_five_and_psi_13_as_out_of_range": [
            ["verify", "--mode", "main", "--p", "1", "--s", "2", "--t", "25"],
            ["verify", "--mode", "main", "--p", "3317044064679887385961981",
             "--s", "2", "--t", "25"]],
        # a prime above psi_13 whose Lucas test doubles V_k before it passes
        "test_cli.py::test_verify_refuses_an_unproven_p_whose_lucas_test_doubles": [
            ["verify", "--mode", "main", "--p", "3317044064679887385962191",
             "--s", "1", "--t", "1"]],
        "test_cli.py::test_verify_above_the_count_limit_proves_parity_by_two_torsion": [
            ["verify", "--mode", "main", "--p", "10007", "--s", "100140049", "--t", "2"]],
        "test_cli.py::test_verify_square_subfamily_refuses_a_negative_tau": [
            ["verify", "--mode", "square_subfamily", "--p", "5", "--s", "25", "--t", "-2"]],
        # the fourth-power test's trial division past the 2^16 gcd table:
        # one l finds no factor there, the other 65537 and then 65557^4
        "test_cli.py::test_verify_certifies_a_30_digit_ell_past_the_gcd_table": [
            ["verify", "--mode", "main", "--p", "5", "--s", "25000075", "--t", "7"]],
        "test_cli.py::test_verify_refuses_a_fourth_power_of_a_prime_past_the_gcd_table": [
            ["verify", "--mode", "main", "--p", "5", "--s", "1",
             "--t", "408156742691570465454481"]],
        "test_cli.py::test_a_malformed_checkpoint_is_a_usage_error_that_leaves_both_files": [
            [*main_p5, "--max-param", "30", "--checkpoint", _write_lines(tmp / name, [text]),
             "--out", str(tmp / "kept.jsonl")]
            for name, text in (("text.ck", "not json"), ("list.ck", "[1]"),
                               ("count.ck", '{"config":"x","next_index":"3","found":0}'))],
    }


def _executable_lines(path: Path) -> dict[int, str]:
    """Line -> name of the innermost code object holding it, for every
    line ``co_lines()`` gives in the code that compiling ``path`` makes."""
    out: dict[int, tuple[int, str]] = {}

    def walk(code: types.CodeType, depth: int) -> None:
        for *_, line in code.co_lines():
            if line is not None and out.get(line, (-1, ""))[0] < depth:
                out[line] = (depth, code.co_name)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, depth + 1)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), 0)
    return {line: name for line, (_, name) in out.items()}


def _span(node: ast.AST) -> set[int]:
    return set(range(node.lineno, node.end_lineno + 1))


def _named_lines(path: Path) -> tuple[dict, set[int], dict]:
    """From the AST of one module: the lines of each function by name, as
    (its whole span, decorators included; its body), the soundness-alarm
    lines, and the lines of each statement by (function, stripped first
    line) and first line."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    functions, alarms, statements = {}, set(), {}

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                functions[inner] = (set(range(first, child.end_lineno + 1)),
                                    set(range(child.body[0].lineno, child.end_lineno + 1)))
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    alarms.update(_span(child))
            if isinstance(child, ast.Assert) and child.msg is not None:
                alarms.update(_span(child.msg))
            if isinstance(child, ast.stmt):
                key = (where, lines[child.lineno - 1].strip())
                statements.setdefault(key, {})[child.lineno] = _span(child)
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return functions, alarms, statements


def _traced_lines(tmp: Path) -> set[tuple[str, int]]:
    """(module, line) of every line the traced interpreter executed."""
    argv = _cli_runs(tmp) + [argv for _, argv in REFUSAL_TESTS.values()]
    argv += [a for runs in _branch_runs(tmp).values() for a in runs]
    plan = {
        "argv": argv,
        "calls": [[row["certifier"], row["args"]] for row in json.loads(
            (DATA / "golden_refusals.json").read_text(encoding="utf-8"))],
        "script": ["selmer-table", "--ells", "5"],
    }
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(PACKAGE), json.dumps(plan)],
        env=env, cwd=tmp, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {tuple(hit) for hit in json.loads(proc.stdout.splitlines()[-1])}


def test_every_line_is_reached_or_named(tmp_path):
    missing = [where for where in _branch_runs(tmp_path) if not _test_exists(where)]
    assert missing == [], "_branch_runs names tests that do not exist"
    hit = _traced_lines(tmp_path)
    unnamed, entered, running = [], set(), set(LINE_ALLOWED)
    for path in sorted(PACKAGE.glob("*.py")):
        module, source = path.stem, path.read_text(encoding="utf-8").splitlines()
        executed = {line for mod, line in hit if mod == module}
        functions, named, statements = _named_lines(path)  # named: the alarms so far
        for mod, name in ALLOWED:
            if mod == module:
                span, body = functions[name]
                named |= span
                if body & executed:
                    entered.add((mod, name))
        for key in LINE_ALLOWED:
            if key[0] == module:
                found = statements.get(key[1:], {})
                assert len(found) == 1, f"LINE_ALLOWED names no one statement: {key}"
                [lines] = found.values()
                named |= lines
                if lines - executed:
                    running.discard(key)
        unnamed += [f"{module}:{line} [{name}] {source[line - 1].strip()}"
                    for line, name in sorted(_executable_lines(path).items())
                    if line not in executed | named]
    assert unnamed == [], "lines no run executes and nothing here names:\n" + "\n".join(unnamed)
    # an oracle that a run enters is no longer test-only, and a named
    # statement that every run executes in full needs no name
    assert entered == set(), "ALLOWED functions a run enters"
    assert running == set(), "LINE_ALLOWED statements every line of which runs"


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_no_module_imports_decimal():
    # every logarithm is the integer enclosure in heights; a lazy import
    # inside a function counts as well
    sources = sorted(PACKAGE.glob("*.py"))
    assert {"math", "json"} <= set().union(*map(_imported_modules, sources))
    assert [p.name for p in sources if "decimal" in _imported_modules(p)] == []


#: reason -> a test that meets a site of it that neither the outcome grid
#: nor golden_refusals.json meets, and that test's CLI argv, which the
#: guard runs
REFUSAL_TESTS = {
    "ell-primality-unproven": (
        "test_cli.py::test_verify_rank_mode_refuses_an_unproven_ell",
        ["verify", "--mode", "rank", "--s", "1350000", "--t", "29"]),
    "p-primality-unproven": (
        "test_cli.py::test_verify_refuses_an_unproven_p",
        ["verify", "--mode", "main", "--p", "10000000000000000000000013",
         "--s", str(10000000000000000000000013**2), "--t", "1"]),
    "height-digit-budget": (
        "test_cli.py::test_heights_2_75_at_40_iterations_refuses_after_one_doubling",
        ["heights", "--s", "2", "--t", "75", "--iterations", "40"]),
    "torsion-point": (
        "test_cli.py::test_heights_refuses_a_torsion_base_point",
        ["heights", "--s", "1", "--t", "0"]),
    # no grid pair has a fourth power in s^4 + tau^4; 17^4 | 25^4 + 149^4
    "fourth-power-free": (
        "test_cli.py::test_verify_square_subfamily_refuses_a_fourth_power_in_ell",
        ["verify", "--mode", "square_subfamily", "--p", "5", "--s", "25", "--t", "149"]),
}

#: raise sites in an ``ALLOWED`` oracle, which no CLI run enters -> the
#: test that meets each; the guard makes the same call
ORACLE_REFUSALS = {
    ("certify", "batch_distinctness", "not-an-infinite-family-certificate"): (
        "test_certify.py::test_batch_distinctness"),
}

#: reasons that re-checked what every caller refuses first, and the
#: refusals that could never fail; they are assertions now, or gone
RETIRED_REASONS = {
    "not-family-tagged", "p-not-odd-prime", "p-not-prime", "seven-torsion",
    "twist-five-torsion", "eleven-isogeny-j",
}


def _refusal_sites() -> set[tuple[str, str, str]]:
    """(module, function, reason) of every ``PreconditionFailure`` call in
    the package; each reason must be a string literal, so the scan sees
    it."""
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "PreconditionFailure" and node.args):
                    continue
                arg = node.args[0]
                assert isinstance(arg, ast.Constant) and isinstance(arg.value, str), (
                    f"{path.name}:{node.lineno} passes a reason that is no literal")
                sites.add((path.stem, func.name, arg.value))
    return sites


def _test_exists(where: str) -> bool:
    module, name = where.split("::")
    return f"def {name}(" in (Path(__file__).parent / module).read_text(encoding="utf-8")


def test_every_refusal_site_is_reached(monkeypatch, capsys):
    met = set()
    init = PreconditionFailure.__init__

    def recording(self, reason, detail=""):
        frame = sys._getframe(1)
        met.add((Path(frame.f_code.co_filename).stem, frame.f_code.co_name, reason))
        init(self, reason, detail)

    monkeypatch.setattr(PreconditionFailure, "__init__", recording)
    for box in BOXES:
        compute_box(*box)
    for row in json.loads((DATA / "golden_refusals.json").read_text(encoding="utf-8")):
        try:
            getattr(cli, row["certifier"])(*row["args"])
        except PreconditionFailure:
            pass
    for reason, (where, argv) in REFUSAL_TESTS.items():
        before = set(met)
        assert _test_exists(where) and cli.main(argv) == 1, where
        assert capsys.readouterr().out.startswith(f"REFUSED at check '{reason}'"), where
        # each entry meets a site, of its reason, that no input before it met
        assert {site[2] for site in met - before} == {reason}, where
    try:
        batch_distinctness([certify_divisibility(2, 25, 5, 1)])
    except PreconditionFailure:
        pass
    sites = _refusal_sites()
    assert sites - met == set(), "refusal sites no input meets"
    assert met <= sites, "a refusal raised outside the scanned sites"
    for (module, name, _), where in ORACLE_REFUSALS.items():
        assert (module, name) in ALLOWED and _test_exists(where)


def test_retired_reasons_are_gone():
    assert {reason for *_, reason in _refusal_sites()} & RETIRED_REASONS == set()
    text = "".join(p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py")))
    for reason in RETIRED_REASONS - {"eleven-isogeny-j"}:  # also a check's name
        assert f'"{reason}"' not in text, reason
