"""Reach guard: every function in ``src/ellcert`` is entered by some CLI
run, or is a named reference oracle that the tests cross-check against.

The CLI runs happen in a fresh interpreter, so warm ``lru_cache``s and
the Selmer memo left by earlier tests cannot hide a function that only
runs on a cache miss.  A function that no run enters and no allow-list
entry names is dead code: delete it, or say here why it stays.

An import guard sits beside it: no module in the package imports
``decimal``, whose logarithm is only the tests' oracle (``ln_oracle``).

A third guard does for refusal sites what the first does for
functions: every (module, function, reason) at which the package raises
a ``PreconditionFailure`` (or calls ``_require``) is met by some input,
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
from pathlib import Path

from test_outcome_grid import BOXES, compute_box

import ellcert
from ellcert import cli
from ellcert.certify import batch_distinctness, certify_divisibility
from ellcert.errors import PreconditionFailure

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
    """(module, function, reason) of every ``PreconditionFailure`` or
    ``_require`` call in the package; each reason must be a string
    literal, so the scan sees it.  ``_require`` passes its caller's reason
    on, so its own raise is no site."""
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef) or func.name == "_require":
                continue
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                    continue
                position = {"PreconditionFailure": 0, "_require": 1}.get(node.func.id)
                if position is None or len(node.args) <= position:
                    continue
                arg = node.args[position]
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
        if frame.f_code.co_name == "_require":
            frame = frame.f_back
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
