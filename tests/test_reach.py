"""Reach guard: every function in ``src/ellcert`` is entered by some CLI
run, or is a named reference oracle that the tests cross-check against.

The CLI runs happen in a fresh interpreter, so warm ``lru_cache``s and
the Selmer memo left by earlier tests cannot hide a function that only
runs on a cache miss.  A function that no run enters and no allow-list
entry names is dead code: delete it, or say here why it stays.

An import guard sits beside it: no module in the package imports
``decimal``, whose logarithm is only the tests' oracle (``ln_oracle``).

A third guard does for refusal reasons what the first does for
functions: every reason the package can raise is met by some input, in
the outcome grid (``test_outcome_grid.py``), in ``golden_refusals.json``
or in a CLI test that ``REFUSAL_TESTS`` names.  A reason no input meets
is a re-check of what a caller has already refused: make it an
assertion of the caller's contract, or delete it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import ellcert

PACKAGE = Path(ellcert.__file__).resolve().parent
DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_records.jsonl"

#: (module, function) -> why it stays although no CLI run enters it.
ALLOWED = {
    # the group law and the small-point search: oracles that the tests
    # use to cross-check the closed forms (2P, torsion, primitivity); no
    # command builds a Fraction point, the heights report included
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
    ("certify", "__setattr__"): (
        "Check's write guard: a declared check is shared by every certificate"),
    # the public, checked entry points of the descent, whose unchecked
    # cores (_torsors, _soluble_at) the certifiers call directly
    ("descent", "make_torsors"): "descent oracle: checks that ell is prime",
    ("descent", "locally_soluble"): "descent oracle: checks the place",
    ("descent", "search_torsor_point"): "global-point oracle for torsors",
    ("certify", "batch_distinctness"): (
        "the pairwise distinctness verdict, kept for the batch check of "
        "infinite-family records"),
    ("cli", "entry"): "the console script; the runs call cli.main",
}

_RUNNER = r"""
import json, os, sys

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
import ellcert.cli as cli

for argv in json.loads(sys.argv[1]):
    try:
        cli.main(argv)
    except SystemExit:
        pass
sys.setprofile(None)
root = os.path.dirname(os.path.abspath(cli.__file__))
print(json.dumps(sorted(
    [os.path.basename(code.co_filename)[:-3], code.co_firstlineno]
    for code in entered
    if os.path.dirname(os.path.abspath(code.co_filename)) == root
)))
"""


def _cli_runs(tmp: Path) -> list[list[str]]:
    ck, out = str(tmp / "run.ckpt"), str(tmp / "run.jsonl")
    # a stored record that no longer re-verifies: the MISMATCH names a path
    drifted = json.loads(GOLDEN.read_text(encoding="utf-8").splitlines()[0])
    drifted["checks"][-1]["citation"] = "edited"
    (tmp / "drift.jsonl").write_text(json.dumps(drifted) + "\n", encoding="utf-8")
    return [
        # --verbose prints each fresh result's conclusion (RankCert's too)
        ["verify", "--file", str(GOLDEN), "--verbose"],
        ["verify", "--file", str(tmp / "drift.jsonl")],
        ["verify", "--mode", "main", "--p", "5", "--s", "2", "--t", "25",
         "--out", str(tmp / "one.jsonl")],
        ["verify", "--mode", "square_subfamily", "--p", "5", "--s", "25", "--t", "2"],
        ["verify", "--mode", "infinite", "--p", "5", "--s", "2", "--t", "75"],
        ["verify", "--mode", "rank", "--s", "2", "--t", "5"],
        # refused: ell is above psi_13, so only BPSW speaks for it
        ["verify", "--mode", "rank", "--s", "1350000", "--t", "29"],
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


def _defs() -> dict[tuple[str, int], str]:
    """(module, first line) -> name of every def in the package; the first
    line is that of the first decorator, as in the code object."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(path.stem, first)] = node.name
    return out


def test_every_function_is_reached_or_an_allowed_oracle(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("ELLCERT_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, json.dumps(_cli_runs(tmp_path))],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(key) for key in json.loads(proc.stdout.splitlines()[-1])}
    defs = _defs()
    names = {(mod, name) for (mod, _), name in defs.items()}
    assert set(ALLOWED) <= names, "an allow-list entry names no function"
    reached = {(mod, defs[(mod, line)]) for mod, line in entered if (mod, line) in defs}
    unreached = {(mod, name) for (mod, line), name in defs.items()
                 if (mod, line) not in entered}
    assert unreached - set(ALLOWED) == set(), "functions no CLI run enters"
    # an oracle that a run does enter is no longer test-only
    assert reached & set(ALLOWED) == set(), "allow-list entries the CLI reaches"


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


#: reason -> the test that meets it, where neither the outcome grid nor
#: golden_refusals.json does
REFUSAL_TESTS = {
    "ell-primality-unproven": "test_cli.py::test_verify_rank_mode_refuses_an_unproven_ell",
    "p-primality-unproven": "test_cli.py::test_verify_refuses_an_unproven_p",
    "height-digit-budget": (
        "test_cli.py::test_heights_2_75_at_40_iterations_refuses_after_one_doubling"),
    "torsion-point": "test_cli.py::test_heights_refuses_a_torsion_base_point",
    # batch_distinctness is an allowed oracle above, with no CLI path yet
    "not-an-infinite-family-certificate": "test_certify.py::test_batch_distinctness",
}

#: reasons that re-checked what every caller refuses first, and the
#: refusals that could never fail; they are assertions now, or gone
RETIRED_REASONS = {
    "not-family-tagged", "p-not-odd-prime", "p-not-prime", "seven-torsion",
    "twist-five-torsion", "eleven-isogeny-j",
}


def _refusal_reasons() -> set[str]:
    """Every reason that the package passes to ``PreconditionFailure`` or
    ``_require``; each must be a string literal, so the scan sees it."""
    reasons = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_require":
                node.body = []  # it passes its caller's reason on
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                position = {"PreconditionFailure": 0, "_require": 1}.get(node.func.id)
                if position is None or len(node.args) <= position:
                    continue
                arg = node.args[position]
                assert isinstance(arg, ast.Constant) and isinstance(arg.value, str), (
                    f"{path.name}:{node.lineno} passes a reason that is no literal")
                reasons.add(arg.value)
    return reasons


def test_every_refusal_reason_is_reached():
    grid = json.loads((DATA / "outcome_grid.json").read_text(encoding="utf-8"))
    met = {reason for box in grid.values() for reason in box["refusals"]}
    golden = json.loads((DATA / "golden_refusals.json").read_text(encoding="utf-8"))
    met |= {row["reason"] for row in golden}
    reasons = _refusal_reasons()
    assert reasons - met - set(REFUSAL_TESTS) == set(), "reasons no input meets"
    # an entry names a live reason that only its test meets, and a test
    # that exists
    assert set(REFUSAL_TESTS) <= reasons - met
    for where in REFUSAL_TESTS.values():
        module, name = where.split("::")
        assert f"def {name}(" in (Path(__file__).parent / module).read_text(encoding="utf-8")


def test_retired_reasons_are_gone():
    assert _refusal_reasons() & RETIRED_REASONS == set()
    text = "".join(p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py")))
    for reason in RETIRED_REASONS - {"eleven-isogeny-j"}:  # also a check's name
        assert f'"{reason}"' not in text, reason
