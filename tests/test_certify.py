"""Certificate assembly: frozen ledgers, refusal reasons, serialization
round-trips, and batch distinctness."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellcert import arith, certify, cli, descent, heights, primitivity
from ellcert import curve as curve_module
from ellcert.certify import (
    SCHEMA_VERSION,
    batch_distinctness,
    certificate_from_dict,
    certificate_to_dict,
    certificate_to_jsonl,
    certify_divisibility,
    certify_infinite_instance,
    certify_rank_one,
    certify_square_subfamily,
    cohomology_vanishing_checks,
    member,
)
from ellcert.curve import ReductionData, make_family
from ellcert.errors import PreconditionFailure

MAIN_CHECK_NAMES = [
    "coprime-parameters",
    "fourth-power-free",
    "nonsquare-ell",
    "parameter-depth",
    "good-reduction-at-p",
    "integral-j",
    "kernel-filtration-depth",
    "twist-five-torsion-free",
    "mod-five-irreducibility",
    "primitive-point",
    "filtration-to-class-group",
]


def _hand_built(theorem, subject, ledger, *tail):
    """A certificate of these fields whose plan holds no constant, as
    ``certificate_from_dict`` builds one: every value is a slot."""
    plan = certify._ledger_plan(
        theorem, tuple((key, certify.SLOT) for key in subject),
        tuple((check, (certify.SLOT,) * len(values)) for check, values in ledger),
        (certify.SLOT,) * len(tail))
    return certify.Certificate(plan, (*subject.values(), *(v for _, vs in ledger for v in vs),
                                      *tail))


def test_divisibility_frozen_ledger():
    cert = certify_divisibility(2, 25, 5, 1).fields()
    assert cert.theorem == "divisibility"
    assert cert.subject == {"s": 2, "t": 25, "ell": 641, "p": 5, "n": 1}
    assert [check.name for check, _ in cert.checks] == MAIN_CHECK_NAMES
    assert all(check.status in ("pass", "cited-assumption") for check, _ in cert.checks)
    cited = {check.name for check, _ in cert.checks if check.status == "cited-assumption"}
    assert cited == {"mod-five-irreducibility", "filtration-to-class-group"}
    assert cert.conclusion == "5^2 divides h(Q(E[5^1]))"
    assert cert.unramified_rank_lower_bound == 1
    assert cert.ramified_primes is None and cert.distinctness_key is None


def test_divisibility_depth_two():
    cert = certify_divisibility(2, 125, 5, 2)
    assert cert.conclusion == "5^4 divides h(Q(E[5^2]))"
    # deeper depth monotonically satisfies shallower targets
    assert certify_divisibility(2, 125, 5, 1).conclusion == "5^2 divides h(Q(E[5^1]))"


@pytest.mark.parametrize(
    "s,t,p,expected_entry",
    [
        (2, 49, 7, "seven-torsion-free"),
        (2, 121, 11, "eleven-isogeny-j"),
        (2, 169, 13, "mod-p-image-large-prime"),
    ],
)
def test_larger_p_branches(s, t, p, expected_entry):
    cert = certify_divisibility(s, t, p, 1).fields()
    assert expected_entry in {check.name for check, _ in cert.checks}
    assert cert.conclusion == f"{p}^2 divides h(Q(E[{p}^1]))"


def test_cohomology_checks_standalone():
    entries = cohomology_vanishing_checks(member(2, 25), 5)
    assert [check.name for check, _ in entries] == [
        "twist-five-torsion-free",
        "mod-five-irreducibility",
    ]
    # check_p refuses these first in every certifier: a soundness alarm here
    with pytest.raises(AssertionError):
        cohomology_vanishing_checks(member(2, 25), 3)
    with pytest.raises(AssertionError):
        cohomology_vanishing_checks(member(2, 25), 9)


@pytest.mark.parametrize(
    "args,reason",
    [
        ((2, 25, 5, 0), "depth-target"),
        ((2, 25, 3, 1), "p-out-of-range"),
        ((2, 25, 4, 1), "p-out-of-range"),
        ((5, 25, 5, 1), "coprime-parameters"),
        ((1, 182, 5, 1), "fourth-power-free"),  # ell = 5^4 * 53
        ((2, 3, 5, 1), "nonsquare-ell"),        # ell = 25
        ((1, 2, 5, 1), "p-divides-exactly-one"),
        ((2, 5, 5, 1), "insufficient-depth"),
    ],
)
def test_divisibility_refusals(args, reason):
    with pytest.raises(PreconditionFailure) as err:
        certify_divisibility(*args)
    assert err.value.reason == reason


# a BPSW probable prime above psi_13 ~ 3.32e24, so never proved prime
UNPROVEN_P = 10000000000000000000000013


@pytest.mark.parametrize(
    "certifier,args",
    [
        (certify_divisibility, (UNPROVEN_P**2, 1, UNPROVEN_P, 1)),
        (certify_square_subfamily, (UNPROVEN_P, 1, UNPROVEN_P)),
        (certify_infinite_instance, (2 * UNPROVEN_P**2, 3, UNPROVEN_P, 1)),
    ],
)
def test_p_above_psi_13_is_refused_before_the_member(monkeypatch, certifier, args):
    assert arith.primality_info(UNPROVEN_P) == (True, "baillie-psw-probable-prime")
    built = _count_calls(monkeypatch, certify.member)
    with pytest.raises(PreconditionFailure) as err:
        certifier(*args)
    assert err.value.reason == "p-primality-unproven"
    assert err.value.detail == f"p={UNPROVEN_P} is only a BPSW probable prime"
    assert built == []


def test_square_subfamily_frozen():
    cert = certify_square_subfamily(2, 25, 5).fields()
    assert cert.theorem == "square-subfamily"
    assert cert.subject["tau"] == 25 and cert.subject["t"] == 625
    assert cert.conclusion == "5^4 divides h(Q(E[5]))"
    assert cert.unramified_rank_lower_bound == 2
    names = [check.name for check, _ in cert.checks]
    assert "second-point-depth" in names
    assert "independent-points" in names
    second = next(check for check, _ in cert.checks if check.name == "second-point-depth")
    assert second.status == "pass"


@pytest.mark.parametrize(
    "args,reason",
    [
        ((2, 5, 5), "square-depth"),
        ((5, 25, 5), "coprime-parameters"),
        ((2, 25, 9), "p-out-of-range"),
        ((2, 9, 3), "p-out-of-range"),
    ],
)
def test_square_subfamily_refusals(args, reason):
    with pytest.raises(PreconditionFailure) as err:
        certify_square_subfamily(*args)
    assert err.value.reason == reason


def test_infinite_instance_frozen():
    cert = certify_infinite_instance(2, 75, 5, 1).fields()
    assert cert.theorem == "infinite-family"
    assert cert.subject["ell"] == 5641
    assert cert.ramified_primes == (2, 5641, 5)
    assert cert.distinctness_key == 5641
    names = [check.name for check, _ in cert.checks]
    for needed in ("rank-exactly-one", "kodaira-type-at-ell", "division-field-ramification"):
        assert needed in names
    assert "rank E(Q) = 1" in cert.conclusion


def test_infinite_instance_refuses_non_rank_pairs():
    with pytest.raises(PreconditionFailure) as err:
        certify_infinite_instance(1, 50, 5, 1)  # s odd
    assert err.value.reason == "s-not-even-positive"


def test_torsion_second_point_is_a_soundness_alarm(monkeypatch):
    # l is not a square by then, so the torsion is {O, (0, 0)} and the
    # second point (-tau^2, s^2 tau) is never in it: no refusal reason
    monkeypatch.setattr(certify, "is_torsion_point", lambda c, pt: True)
    with pytest.raises(AssertionError, match=r"\(s,tau\)=\(2,25\), p=5"):
        certify_square_subfamily(2, 25, 5)


def test_other_reduction_at_ell_is_a_soundness_alarm(monkeypatch):
    # l prime and 9 mod 16 always gives type III with Tamagawa number 2
    monkeypatch.setattr(
        certify, "reduction_at", lambda c, q: ReductionData(False, "unclassified", None)
    )
    with pytest.raises(AssertionError, match=r"ell=5641, \(s,t\)=\(2,75\), p=5"):
        certify_infinite_instance(2, 75, 5, 1)


def test_batch_distinctness():
    pairs = [(2, 75), (4, 75), (2, 525), (2, 925)]
    certs = [certify_infinite_instance(s, t, 5, 1) for s, t in pairs]
    report = batch_distinctness(certs)
    assert report["count"] == 4
    assert report["distinct"] == 4
    assert report["pairwise_distinct"] is True
    assert report["duplicate_keys"] == []

    doubled = batch_distinctness([certs[0], certs[0]])
    assert doubled["pairwise_distinct"] is False
    assert doubled["duplicate_keys"] == [(5641, 5, 1)]

    # one ell, two fields: Q(E[5]) and Q(E[7]) are ramified at 5 and 7
    # apart, and Q(E[5]) is strictly inside Q(E[25])
    for one, other in [((50, 147, 5, 1), (50, 147, 7, 1)), ((2, 125, 5, 1), (2, 125, 5, 2))]:
        report = batch_distinctness([certify_infinite_instance(*one),
                                     certify_infinite_instance(*other)])
        assert report == {"count": 2, "distinct": 2, "pairwise_distinct": True,
                          "duplicate_keys": []}, (one, other)

    with pytest.raises(PreconditionFailure):
        batch_distinctness([certify_divisibility(2, 25, 5, 1)])


def test_batch_distinctness_is_linear():
    class Key(int):
        """An int key that counts the equality tests made on it."""

        compared = 0

        def __eq__(self, other):
            Key.compared += 1
            return int(self) == other

        __hash__ = int.__hash__

    def infinite(key):
        return _hand_built("infinite-family", {"p": 5, "n": 1}, (), "", "", 1, None, key)

    keys = [Key(k) for k in range(10_000)]
    certs = [infinite(k) for k in keys] + [infinite(Key(4321))]
    report = batch_distinctness(certs)
    assert report == {
        "count": 10_001, "distinct": 10_000, "pairwise_distinct": False,
        "duplicate_keys": [(4321, 5, 1)],
    }
    # one lookup per key; counting each key's copies in the list would
    # take about 10^8 comparisons
    assert Key.compared < 3 * len(certs)


def test_jsonl_round_trip():
    cert = certify_infinite_instance(2, 75, 5, 1)
    line = certificate_to_jsonl(cert)
    assert certificate_to_jsonl(certificate_from_dict(json.loads(line))) == line
    data = json.loads(line)
    assert data["schema"] == SCHEMA_VERSION
    assert list(data) == [
        "schema",
        "theorem",
        "subject",
        "checks",
        "conclusion",
        "conclusion_basis",
        "unramified_rank_lower_bound",
        "ramified_primes",
        "distinctness_key",
    ]
    # ints serialize as decimal strings so arbitrary precision survives
    assert data["subject"]["ell"] == "5641"
    assert data["distinctness_key"] == "5641"
    rebuilt = certificate_from_dict(certificate_to_dict(cert))
    assert certificate_to_dict(rebuilt) == certificate_to_dict(cert)


GOLDEN = Path(__file__).parent / "data" / "golden_records.jsonl"


def test_every_golden_record_round_trips_through_the_parse():
    # all four theorems, the rank-one fragment included
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 7
    for line in lines:
        assert certificate_to_jsonl(certificate_from_dict(json.loads(line))) == line


def _clear_memos():
    for module in (arith, curve_module, descent, heights, primitivity):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    descent._SELMER_CLASSES.clear()


def test_golden_subjects_certify_in_integers_only(monkeypatch):
    """From cold memos, every golden subject certifies with no Fraction
    made and ``decimal`` unimportable, to the golden record."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    tasks = [cli._head_task(line)[:5] for line in lines]

    def no_fraction(cls, *args, **kwargs):
        raise AssertionError(f"Fraction{args} made on the certificate path")

    _clear_memos()
    monkeypatch.setitem(sys.modules, "decimal", None)  # unimportable
    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    with pytest.raises(AssertionError):
        Fraction(1, 2)
    got = [certificate_to_jsonl(cli.THEOREMS[mode].certify(s, t, p, n))
           for mode, s, t, p, n in tasks]
    monkeypatch.undo()
    assert got == lines
    assert Fraction(1, 2) * 2 == 1


def test_from_dict_rejects_unknown_schema():
    cert = certify_divisibility(2, 25, 5, 1)
    data = certificate_to_dict(cert)
    data["schema"] = "999"
    with pytest.raises(ValueError):
        certificate_from_dict(data)


def test_member_facts():
    m = member(2, 25)
    assert (m.s, m.t, m.ell) == (2, 25, 641)
    assert m.curve == make_family(2, 25)
    assert m.fourth_power_free and not m.ell_is_square
    assert not member(1, 182).fourth_power_free  # 5^4 * 53
    # 3 divides both parameters; the gcd layers strip every prime below
    # 2^16, 3 mod 4 or not, so member needs no gcd of s and t: 3^4 * 5
    assert not member(3, 18).fourth_power_free
    assert member(2, 3).ell_is_square  # 25


def test_records_are_immutable_values():
    cert = certify_divisibility(2, 25, 5, 1)
    m = member(2, 25)
    for obj, field in ((cert, "theorem"), (cert.fields().checks[0][0], "status"),
                       (m, "ell"), (m.curve, "a")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    # a ledger entry is a (check, values) pair of tuples
    assert all(type(entry) is tuple and type(entry[1]) is tuple
               for entry in cert.fields().checks)
    assert certify_divisibility(2, 25, 5, 1) == cert
    assert hash(member(2, 25).curve) == hash(m.curve)


def _count_calls(monkeypatch, fn):
    """Wrap fn in every ellcert namespace that binds it; return the call log."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name == "ellcert" or name.startswith("ellcert."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return calls


@pytest.mark.parametrize(
    "certify,args,curves",
    [
        (certify_divisibility, (2, 25, 5, 1), [(2, 25)]),
        (certify_divisibility, (2, 169, 13, 1), [(2, 169)]),
        # the second point's depth is read off (tau, s^2), with no second curve
        (certify_square_subfamily, (25, 2, 5), [(25, 4)]),
        (certify_infinite_instance, (2, 75, 5, 1), [(2, 75)]),
    ],
)
def test_member_facts_are_worked_out_once(certify, args, curves, monkeypatch):
    made = _count_calls(monkeypatch, curve_module.make_family)
    fourth = _count_calls(monkeypatch, arith.kth_power_free)
    certify(*args)
    assert made == curves
    # once for the member, with the coprime family's step; the height floor
    # trusts its verdict
    ell = curves[0][0] ** 4 + curves[0][1] ** 2
    assert fourth == [(ell, 4, 4)]


def test_square_subfamily_counts_points_at_p_once(monkeypatch):
    # the base points of (s, tau^2) and of (tau, s^2) lie on the same
    # curve, so their counts at p share one character sum
    curve_module._count_points.cache_clear()
    counts = _count_calls(monkeypatch, curve_module.count_points_mod_p)
    certify_square_subfamily(2, 25, 5)
    at_p = [c.a for c, p in counts if p == 5]
    assert at_p == [-(2**4 + 625**2)] * 2
    info = curve_module._count_points.cache_info()
    assert info.misses == len({(c.a % p, p) for c, p in counts}) < len(counts)


#: The encoder that wrote every record before the per-check templates;
#: kept here as the oracle of the template writer.
OLD_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _old_value(kind, value):
    """A witness value in record form, as the certifiers once built it."""
    if kind == certify.INT:
        return str(value)
    if kind == certify.INTS:
        return [str(v) for v in value]
    return value


def _old_entry(check, values) -> dict:
    return {
        "name": check.name,
        "status": check.status,
        "witness": {key: _old_value(kind, v) for (key, kind), v in zip(check.witness, values)},
        "citation": check.citation,
    }


def _old_record(cert) -> dict:
    """The record as the old ``certificate_to_dict`` built it, field by
    field from the certificate, with ``str`` for every integer."""
    cert = cert.fields()
    if cert.theorem == "rank-one":
        return {
            "schema": SCHEMA_VERSION, "theorem": "rank-one",
            "subject": {k: str(v) for k, v in cert.subject.items()},
            "ell_mod_16": str(cert.ell_mod_16), "t_mod_8": str(cert.t_mod_8),
            "selmer": {k: str(v) for k, v in cert.selmer.items()},
            "rank": str(cert.rank), "base_point_nontorsion": cert.base_point_nontorsion,
        }
    ram, key = cert.ramified_primes, cert.distinctness_key
    return {
        "schema": SCHEMA_VERSION,
        "theorem": cert.theorem,
        "subject": {k: str(v) for k, v in cert.subject.items()},
        "checks": [_old_entry(check, values) for check, values in cert.checks],
        "conclusion": cert.conclusion,
        "conclusion_basis": cert.conclusion_basis,
        "unramified_rank_lower_bound": str(cert.unramified_rank_lower_bound),
        "ramified_primes": None if ram is None else [str(q) for q in ram],
        "distinctness_key": None if key is None else str(key),
    }


_AWKWARD_TEXT = ['', '"', "\\", '%', '%s%%d%(x)s', "\x00\x1f\x7f", "tab\there\nnew",
                 "é ü ñ", " ", "日本", "😀", '{"a":[1]}', "null"]
_AWKWARD_FLOATS = [1e-07, 5e+16, -0.0, 0.1, 5.4755797146897915, 1.7976931348623157e308,
                   5e-324, -2.5, 1e22, 123456789.0]


def _one_check_lines(check, values, conclusion="c"):
    """The line of a record whose ledger is the one check, written by the
    templates and by the compact ``json.dumps`` of its old record form."""
    cert = _hand_built(
        "divisibility", dict(zip(("s", "t", "ell", "p", "n"), (1, -2, 10**30, 4, 5))),
        ((check, values),), conclusion, conclusion[::-1], -1, (2, -3), 7)
    return certificate_to_jsonl(cert), json.dumps(_old_record(cert), separators=(",", ":"))


def test_template_kernel_on_awkward_constants_and_values():
    for text in _AWKWARD_TEXT:
        witness = {"i": certify.INT, "s": certify.STR, "f": certify.FLOAT, "l": certify.INTS,
                   "b": certify.BOOL, "k" + text: certify.STR}
        check = certify.declare(f"n{text}", text, text or None, **witness)
        for x in _AWKWARD_FLOATS:
            values = (-(10**40) - 7, text, x, (-3, 0, 10**30), x > 0, text[::-1])
            got, want = _one_check_lines(check, values, conclusion=text)
            assert got == want, (text, x)


@settings(max_examples=300, deadline=None)
@given(
    st.text(), st.text(), st.text(),
    st.integers(), st.text(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(), max_size=4), st.booleans(),
)
def test_template_kernel_is_the_compact_encoder(name, key, citation, i, s, f, ints, b):
    check = certify.declare(name, "pass", citation, **{
        key + "i": certify.INT, key + "s": certify.STR, key + "f": certify.FLOAT,
        key + "l": certify.INTS, key + "b": certify.BOOL})
    got, want = _one_check_lines(check, (i, s, f, tuple(ints), b), conclusion=s)
    assert got == want


def _grid_tasks():
    """(mode, s, t, p, n) of the four modes over s, t in [1, 40] and p in
    {5, 7, 11, 13}, then of every golden record and every pool record."""
    for mode, theorem in cli.THEOREMS.items():
        for p in (5, 7, 11, 13) if theorem.flags else (None,):
            for s in range(1, 41):
                for t in range(1, 41):
                    yield mode, s, t, p, 1
    for line in GOLDEN.read_text(encoding="utf-8").splitlines() + POOL.read_text(
            encoding="utf-8").splitlines():
        yield cli._head_task(line)[:5]


def _grid_certificates():
    """Every certificate of ``_grid_tasks``; the grid's refusals are skipped."""
    for mode, s, t, p, n in _grid_tasks():
        try:
            yield cli.THEOREMS[mode].certify(s, t, p, n)
        except PreconditionFailure:
            pass


POOL = Path(__file__).parent.parent / "perfbench" / "data" / "pool.jsonl"


def test_every_grid_certificate_is_the_old_encoders_line():
    theorems = Counter()
    for cert in _grid_certificates():
        line = certificate_to_jsonl(cert)
        record = json.loads(line)
        assert OLD_ENCODER(record) == line
        assert OLD_ENCODER(_old_record(cert)) == line
        assert certificate_to_dict(cert) == record
        assert certificate_to_jsonl(certificate_from_dict(record)) == line
        theorems[record["theorem"]] += 1
    assert set(theorems) == {"divisibility", "square-subfamily", "infinite-family", "rank-one"}
    assert sum(theorems.values()) > 177 + 520


def test_every_check_of_the_registry_is_written_somewhere():
    names = set()
    for line in POOL.read_text(encoding="utf-8").splitlines():
        names.update(ch["name"] for ch in json.loads(line).get("checks", ()))
    assert names == set(certify.CHECKS)
    assert all(name == check.name for name, check in certify.CHECKS.items())


def test_a_certificate_writes_no_witness_dict_and_no_decimal_string(monkeypatch):
    # a certifier records raw values; only the writer makes decimal text
    cert = certify_divisibility(2, 169, 13, 1)
    values = [v for _, vs in cert.fields().checks for v in vs]
    assert not any(isinstance(v, dict) for v in values)
    assert [v for v in values if isinstance(v, str)] == ["t", "counted", "height-ratio"]
    assert 28577 in values and 13 in values


def test_from_dict_reads_each_check_through_the_registry():
    data = certificate_to_dict(certify_divisibility(2, 25, 5, 1))
    cert = certificate_from_dict(data)
    assert all(check is certify.CHECKS[check.name] for check, _ in cert.fields().checks)
    data["checks"][0]["name"] = "no-such-check"
    with pytest.raises(KeyError):
        certificate_from_dict(data)


def _certified_tasks():
    tasks = []
    for task in _grid_tasks():
        try:
            cli.THEOREMS[task[0]].certify(*task[1:])
        except PreconditionFailure:
            continue
        tasks.append(task)
    return tasks


#: Writes the line of each task of the JSON list in argv[1], each from a
#: plan made for it alone, in a fresh interpreter.
_FRESH_LINES = """
import json, sys
from ellcert import certify, cli
lines = []
for mode, s, t, p, n in json.loads(sys.argv[1]):
    certify.plan_for.cache_clear()
    lines.append(certify.certificate_to_jsonl(cli.THEOREMS[mode].certify(s, t, p, n)))
print(json.dumps(lines))
"""


def test_plans_met_in_any_order_write_what_a_fresh_process_writes():
    tasks = _certified_tasks()
    shuffled = list(tasks)
    random.Random(29).shuffle(shuffled)
    certify.plan_for.cache_clear()
    # each plan's template is rendered by the first of its members that
    # the shuffle meets, then filled for the others
    here = {task: certificate_to_jsonl(cli.THEOREMS[task[0]].certify(*task[1:]))
            for task in shuffled}
    assert len({task[0::3] + task[4:] for task in tasks if task[0] != "rank"}) == 6
    env = dict(os.environ, PYTHONPATH=str(Path(certify.__file__).parent.parent))
    fresh = json.loads(subprocess.run(
        [sys.executable, "-c", _FRESH_LINES, json.dumps(tasks)], env=env, check=True,
        capture_output=True, text=True).stdout)
    assert [here[task] for task in tasks] == fresh


def _layout(plan) -> dict:
    """A plan's top-level fields: key -> constant, ``SLOT`` or nested fields."""
    return {key: value for key, _, value in plan.fields}


def _leaves(fields):
    """Every leaf value of a field tree, in record order."""
    for _, kind, value in fields:
        if kind == certify.OBJECT:
            yield from _leaves(value)
        elif kind == certify.LEDGER:
            for _, values in value:
                yield from values
        else:
            yield value


def test_the_plan_cache_is_bounded():
    certify.plan_for.cache_clear()
    bound = certify.plan_for.cache_info().maxsize
    assert bound is not None
    line = certificate_to_jsonl(certify_divisibility(2, 13 * 13, 13, 1))
    made = certify.plan_for("divisibility", 13, 1)
    primes = [q for q in range(17, 2000) if arith.is_prime(q)][:bound]
    for q in primes:
        subject = _layout(certify.plan_for("divisibility", q, 1))["subject"]
        assert subject[3] == ("p", certify.INT, q)
    assert certify.plan_for.cache_info().currsize == bound
    # the least recently used plan was dropped; it is made again, and
    # writes the same line
    again = certify_divisibility(2, 13 * 13, 13, 1)
    assert again.plan is not made and again.plan is certify.plan_for("divisibility", 13, 1)
    assert certificate_to_jsonl(again) == line == OLD_ENCODER(_old_record(again))


def test_a_plan_runs_what_depends_on_p_and_n_alone_once(monkeypatch):
    certify.plan_for.cache_clear()
    checked = _count_calls(monkeypatch, certify.check_p)
    cohomology = _count_calls(monkeypatch, certify.cohomology_vanishing_checks)
    local = _count_calls(monkeypatch, certify.check_local)
    members = [(2, 169), (2, 507), (4, 169), (1, 338), (3, 338)]
    for s, t in members:
        certify_divisibility(s, t, 13, 1)
    assert checked == [(13,)] and [p for _, p in cohomology] == [13]
    assert cohomology[0][0] is None  # no member is read at p = 13
    assert len(local) == len(members)  # every member's own checks run
    # at p = 5 the mod-5 image is settled for each member
    for s, t in ((2, 25), (2, 75)):
        certify_divisibility(s, t, 5, 1)
    assert [p for _, p in cohomology] == [13, 5, 5]
    assert checked == [(13,), (5,)]


def test_a_divisibility_record_has_fourteen_slots_at_p_13():
    plan = certify_divisibility(2, 169, 13, 1).plan
    form, args, convert = plan.shape or plan.render()
    # 15 runs of constant JSON text around the member's 14 values
    assert len(args) == 29 and args[1::2] == (None,) * 14
    assert form == "%s" + "%s".join(["%d"] * 7 + ["%s"] + ["%d"] * 4 + ["%s", "%r"]) + "%s"
    assert [i for i, _ in convert] == [15, 25]  # the flagged parameter, the parity method
    layout = _layout(plan)
    constants = [check.name for check, values in layout["checks"]
                 if certify.SLOT not in values]
    assert constants == ["good-reduction-at-p", "integral-j", "mod-p-image-large-prime",
                         "filtration-to-class-group"]
    assert [layout[key] for key, _ in certify._TAIL] == [
        "13^2 divides h(Q(E[13^1]))", "verified checks plus the cited criterion", 1, None, None]
    assert plan.conclusion == layout["conclusion"]


def test_a_plan_less_certificate_writes_the_same_line():
    for cert in (certify_divisibility(2, 25, 5, 1), certify_divisibility(2, 121, 11, 1),
                 certify_square_subfamily(25, 2, 5), certify_infinite_instance(2, 75, 5, 1)):
        line = certificate_to_jsonl(cert)
        bare = certificate_from_dict(json.loads(line))
        plan = bare.plan
        assert plan is not cert.plan
        assert set(_leaves(plan.fields)) == {certify.SLOT}
        assert certificate_to_jsonl(bare) == line
        assert bare.fields() == cert.fields()
        assert bare.conclusion == cert.conclusion == cert.fields().conclusion
    # a rank-one record is read through the one rank-one plan, its
    # constants included
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()[-1]
    rank = certificate_from_dict(json.loads(golden))
    assert rank == certify_rank_one(2, 5) and rank.plan is certify.RANK_ONE_PLAN
    assert rank.conclusion == "rank = 1"
    pool = [line for line in POOL.read_text(encoding="utf-8").splitlines()
            if json.loads(line)["theorem"] == "rank-one"]
    assert len(pool) == 240
    for line in pool:
        assert certificate_to_jsonl(certificate_from_dict(json.loads(line))) == line
    data = json.loads(golden)
    del data["selmer"]
    with pytest.raises(KeyError):
        certificate_from_dict(data)
    data = json.loads(golden)
    data["rank"] = "2"
    with pytest.raises(ValueError, match="rank is '2', not 1"):
        certificate_from_dict(data)
