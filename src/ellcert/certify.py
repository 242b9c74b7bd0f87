"""Assemble machine-checked certificates for class-number divisibility.

Every certificate is a ledger: named checks with witnesses, each either
verified here in exact arithmetic or explicitly marked as a cited
assumption from the literature.  A certificate is only built when every
check passes; a candidate failing any check raises PreconditionFailure
naming the check, so downstream consumers never see a half-valid ledger.

Four theorem shapes are produced:

* "divisibility": p^(2n) divides the class number of the p^n division
  field of E_{s,t}, from one primitive point deep in the filtration.
* "square-subfamily": t = tau^2 members carry a second rational point;
  with p^2 | s tau both points sit deep enough and the exponent doubles.
* "infinite-family": divisibility plus exact rank 1 plus the ramification
  fingerprint {2, l, p} that separates division fields of distinct members.
* "rank-one": the rank-1 half of the infinite family on its own, from
  ``descent.certify_rank_one``'s Selmer report (``certify_rank_one``).

Plans.  A ``Plan`` lays out one theorem's record as a tree of (key, kind,
value) fields.  A value is a constant or ``SLOT``, a value each member
gives; an ``OBJECT`` field holds fields of its own, and a ``LEDGER``
field (the record's ``checks``) the ledger's (check, values) entries.  The three divisibility-based
theorems apply at one (p, n) across a whole family, and so does a search.
``plan_for`` makes, once per (theorem, p, n) in a process (cached,
bounded), the plan that their certificates share: it refuses n and p
(``check_p``) before any member is built, runs the checks that read p and
n alone (the p >= 11 mod-p image conditions, j = 1728), and works out the
constants (the constant ledger entries, the conclusion and its basis).
The rank-one record's plan, ``RANK_ONE_PLAN``, is one constant.  A
``Certificate`` is its plan and its member's values, in slot order; every
check that reads a member value runs for every member.  ``fields()``
gives the certificate in full, and ``conclusion`` its conclusion alone.

Records.  Each ledger check is declared once, as a module-level ``Check``
made by ``declare``: its name, status, citation and witness keys, each
key with the kind of value it holds (a decimal integer, a string, a
float, a list of decimal integers or a bool).  A certifier records raw
values, so it builds no witness dict and no decimal string.  A plan
renders its record on its first write: the constants as JSON text,
encoded once, with a ``%`` code for each value (14 of a divisibility
record's 29 at p >= 13).  ``certificate_to_jsonl`` fills it in one
``%``: it is the one writer of the compact JSON line, for all four
theorems.  Integers become decimal strings there, so arbitrary precision
survives any JSON parser.  ``certificate_to_dict`` is that line parsed,
so the dict and the line cannot disagree; no command calls it, as the
CLI parses the line it has written.  ``certificate_from_dict`` reads a
record back, through ``RANK_ONE_PLAN`` or, for the other theorems,
through ``CHECKS``, the registry of declared checks by name, into a plan
that holds no constant; either way it is written as every other one is.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from types import SimpleNamespace
from typing import NamedTuple

from . import descent
from .arith import is_prime, is_square, kth_power_free, primality_info, vp
from .curve import (
    Curve,
    has_rational_m_torsion,
    is_torsion_point,
    j_invariant,
    make_family,
    reduction_at,
)
from .errors import PreconditionFailure
from .localcond import check_local
from .primitivity import certify_primitive

SCHEMA_VERSION = "1"

CITATIONS = {
    "divisibility-criterion": (
        "cited divisibility criterion: a primitive point n+1 deep in the "
        "kernel-of-reduction filtration forces p^(2n) in the class number"
    ),
    "mod-five-irreducibility": "DGJJU, Theorem 7",
    "independent-points": "Fujita-Terai, Theorem 1.5(1)",
    "division-field-ramification": "Serre-Tate, Theorem 1",
}
# j-invariants of the two curves with a rational 11-isogeny and CM by -11
_ELEVEN_ISOGENY_J = (-32768, -24729001)


class Member(NamedTuple):
    """One family member E_{s,t}: the one holder of its parameters s, t
    and ell = s^4 + t^2, with the facts about ell that its ledger checks
    consume, each worked out once."""

    s: int
    t: int
    ell: int
    curve: Curve  # y^2 = x^3 - ell x
    fourth_power_free: bool
    ell_is_square: bool


def member(s: int, t: int) -> Member:
    """The member for coprime (s, t).  Every certifier refuses any other
    pair first, as ``coprime-parameters``, (0, 0) included, which gives no
    curve; so the gcd is taken there, once.

    For coprime s, t an odd prime q dividing ell divides neither s nor t, so
    (t / s^2)^2 is -1 mod q and q is 1 mod 4.  The fourth-power test strips
    every prime below 2^16 by gcds, whatever its step; past that table it
    tries only 65537, 65541, 65545, ... (``kth_power_free`` with step 4).
    The step matters only there, for an ell above 2^80: below it no trial
    division runs, and the member of any pair, coprime or not, is right.
    """
    c = make_family(s, t)
    ell = -c.a
    return Member(s, t, ell, c, kth_power_free(ell, 4, 4), is_square(ell))


#: The kinds of value a record field holds.  ``OPT_INTS`` and ``OPT_INT``
#: are a list of decimal integers and a decimal integer that may be null:
#: a record's ramified primes and its distinctness key.  An ``OBJECT``
#: field holds fields of its own, and a ``LEDGER`` field (the record's
#: ``checks``) the ledger's (check, values) entries.
INT, STR, FLOAT, INTS, BOOL, OPT_INTS, OPT_INT, OBJECT, LEDGER = (
    "int", "str", "float", "ints", "bool", "ints?", "int?", "object", "ledger")

_encode_str = json.encoder.encode_basestring_ascii  # the quoted, escaped text
_JSON_BOOL = {True: "true", False: "false"}


def _encode_ints(values) -> str:
    """The items of a JSON list of decimal strings."""
    return '"%s"' % '","'.join(map(str, values)) if values else ""


#: kind -> (the ``%`` code that formats a value, the JSON text around it
#: with ``%s`` where the value goes, the converter a value goes through
#: first, or None, and the reader that takes the value back from a parsed
#: record).  A float takes a finite float, whose repr is its JSON text.
_LEAVES = {
    INT: ("%d", '"%s"', None, int),
    STR: ("%s", "%s", _encode_str, lambda v: v),
    FLOAT: ("%r", "%s", None, lambda v: v),
    INTS: ("%s", "[%s]", _encode_ints, lambda v: tuple(map(int, v))),
    BOOL: ("%s", "%s", _JSON_BOOL.__getitem__, lambda v: v),
    OPT_INTS: ("%s", "%s", lambda v: "null" if v is None else "[%s]" % _encode_ints(v),
               lambda v: None if v is None else tuple(map(int, v))),
    OPT_INT: ("%s", "%s", lambda v: "null" if v is None else '"%d"' % v,
              lambda v: None if v is None else int(v)),
}
#: Where a value goes in a rendered record: no JSON text holds a raw NUL.
_MARK = "\x00"


def _object(fields) -> str:
    """A JSON object's text from (key, value text) pairs."""
    return "{%s}" % ",".join([f"{json.dumps(key)}:{text}" for key, text in fields])


class Check(NamedTuple):
    """One ledger check: its name, status and citation, and its witness
    keys in record order, each with the kind of value its slot takes.  A
    check is a constant shared by every certificate, so it is a tuple."""

    name: str
    status: str
    citation: str | None
    witness: tuple[tuple[str, str], ...]


def declare(name: str, status: str, citation: str | None = None, /, **witness: str) -> Check:
    """The check ``name``, each witness key given as ``key=KIND``."""
    return Check(name, status, citation, tuple(witness.items()))


PASS, CITED = "pass", "cited-assumption"
COPRIME_PARAMETERS = declare("coprime-parameters", PASS, s=INT, t=INT)
FOURTH_POWER_FREE = declare("fourth-power-free", PASS, ell=INT)
NONSQUARE_ELL = declare("nonsquare-ell", PASS, ell=INT)
PARAMETER_DEPTH = declare("parameter-depth", PASS, p=INT, n=INT, flagged=STR, v_st=INT)
GOOD_REDUCTION_AT_P = declare("good-reduction-at-p", PASS, p=INT)
INTEGRAL_J = declare("integral-j", PASS, j=INT)
KERNEL_FILTRATION_DEPTH = declare(
    "kernel-filtration-depth", PASS, depth=INT, x_doubled_valuation=INT,
    y_doubled_valuation=INT, order_parity_method=STR)
MOD_P_IMAGE_LARGE_PRIME = declare("mod-p-image-large-prime", PASS, p=INT)
ELEVEN_ISOGENY_J = declare("eleven-isogeny-j", PASS, j=INT, excluded_j=INTS)
SEVEN_TORSION_FREE = declare("seven-torsion-free", PASS, ell=INT)
TWIST_FIVE_TORSION_FREE = declare("twist-five-torsion-free", PASS, twist_a=INT)
MOD_FIVE_IRREDUCIBILITY = declare(
    "mod-five-irreducibility", CITED, CITATIONS["mod-five-irreducibility"], ell=INT)
PRIMITIVE_POINT = declare("primitive-point", PASS, method=STR, index_square_bound=FLOAT)
FILTRATION_TO_CLASS_GROUP = declare(
    "filtration-to-class-group", CITED, CITATIONS["divisibility-criterion"], p=INT, n=INT)
SECOND_POINT_DEPTH = declare(
    "second-point-depth", PASS, point=STR, depth=INT, flagged_parameter=STR)
INDEPENDENT_POINTS = declare(
    "independent-points", CITED, CITATIONS["independent-points"], s=INT, tau=INT, ell=INT)
RANK_EXACTLY_ONE = declare(
    "rank-exactly-one", PASS, ell_mod_16=INT, selmer_forward=INTS, selmer_dual=INTS,
    rank_upper=INT)
KODAIRA_TYPE_AT_ELL = declare("kodaira-type-at-ell", PASS, ell=INT, kodaira=STR, tamagawa=INT)
DIVISION_FIELD_RAMIFICATION = declare(
    "division-field-ramification", CITED, CITATIONS["division-field-ramification"],
    ramified=INTS)

#: name -> declared check: the registry ``certificate_from_dict`` reads
#: a record's entries through.
CHECKS = {check.name: check for check in (
    COPRIME_PARAMETERS, FOURTH_POWER_FREE, NONSQUARE_ELL, PARAMETER_DEPTH,
    GOOD_REDUCTION_AT_P, INTEGRAL_J, KERNEL_FILTRATION_DEPTH,
    MOD_P_IMAGE_LARGE_PRIME, ELEVEN_ISOGENY_J, SEVEN_TORSION_FREE,
    TWIST_FIVE_TORSION_FREE, MOD_FIVE_IRREDUCIBILITY, PRIMITIVE_POINT,
    FILTRATION_TO_CLASS_GROUP, SECOND_POINT_DEPTH, INDEPENDENT_POINTS,
    RANK_EXACTLY_ONE, KODAIRA_TYPE_AT_ELL, DIVISION_FIELD_RAMIFICATION,
)}

#: One ledger entry: a declared check and its raw witness values.
Entry = tuple[Check, tuple]
_witness = itemgetter(1)

#: In a plan, the place of a value that each certificate gives itself.
SLOT = object()

#: A ledger record's fields after its checks, each with the kind of its value.
_TAIL = (("conclusion", STR), ("conclusion_basis", STR), ("unramified_rank_lower_bound", INT),
         ("ramified_primes", OPT_INTS), ("distinctness_key", OPT_INT))


def _witness_fields(check: Check, values: tuple) -> list:
    """The fields of a ledger entry's witness object."""
    return [(key, kind, value) for (key, kind), value in zip(check.witness, values)]


class Plan:
    """What every certificate of one theorem (at one (p, n), for the three
    divisibility-based ones) has in common: ``fields``, the record's layout
    after its schema and theorem, as a tree of (key, kind, value) fields in
    record order.  A value is a constant or ``SLOT``; an ``OBJECT`` field's
    value is its own fields and a ``LEDGER`` field's its (check, values)
    entries.  ``conclusion`` is the conclusion, or the position among the
    certificate's values of the one that holds it.  ``shape`` is None until
    the first write renders it (``render``)."""

    __slots__ = ("theorem", "fields", "conclusion", "shape")

    def __init__(self, theorem: str, fields: tuple, conclusion: str | int):
        self.theorem, self.fields, self.conclusion = theorem, fields, conclusion
        self.shape = None

    def render(self) -> tuple[str, tuple, tuple]:
        """Render the record once, keep it as ``shape`` and return it.

        The record's constant JSON text is cut into runs at the member's
        values.  ``shape`` holds a short ``%`` format, with ``%s`` for each
        run and the value's own code between two runs, its arguments with
        the runs in place and None where a value goes, and the (argument
        index, converter) pairs of the values a converter encodes first.
        A run is an argument, so ``%`` copies it whole instead of scanning
        it for codes.
        """
        codes, converters = [], []

        def text(kind, value):
            if kind == OBJECT:
                return _object([(key, text(kind, value)) for key, kind, value in value])
            if kind == LEDGER:
                return "[%s]" % ",".join([_object([
                    ("name", json.dumps(check.name)),
                    ("status", json.dumps(check.status)),
                    ("witness", text(OBJECT, _witness_fields(check, values))),
                    ("citation", json.dumps(check.citation)),
                ]) for check, values in value])
            code, around, convert, _ = _LEAVES[kind]
            if value is SLOT:
                codes.append(code)
                converters.append(convert)
                return around % _MARK
            return around % (code % (value if convert is None else convert(value)))

        record = text(OBJECT, (("schema", STR, SCHEMA_VERSION), ("theorem", STR, self.theorem),
                               *self.fields))
        args = [None] * (2 * len(codes) + 1)
        args[::2] = record.split(_MARK)
        self.shape = "%s" + "".join([code + "%s" for code in codes]), tuple(args), tuple(
            (2 * i + 1, convert) for i, convert in enumerate(converters) if convert is not None)
        return self.shape


def _ledger_plan(theorem: str, subject: tuple, ledger: tuple, tail: tuple) -> Plan:
    """The plan of a ledger record: its subject's (key, value) pairs, each a
    decimal integer, its ``checks`` entries, and the values of ``_TAIL``'s
    fields, the first of them the conclusion."""
    return Plan(theorem, (
        ("subject", OBJECT, tuple([(key, INT, value) for key, value in subject])),
        ("checks", LEDGER, ledger),
        *[(key, kind, value) for (key, kind), value in zip(_TAIL, tail)],
    ), -tail.count(SLOT) if tail[0] is SLOT else tail[0])


#: The rank-one record.  Every value that ell's residue fixes today is a
#: slot all the same; the rank and the base point's verdict are constants,
#: as ``descent.certify_rank_one`` refuses or raises otherwise.
RANK_ONE_PLAN = Plan("rank-one", (
    ("subject", OBJECT, (("s", INT, SLOT), ("t", INT, SLOT), ("ell", INT, SLOT))),
    ("ell_mod_16", INT, SLOT),
    ("t_mod_8", INT, SLOT),
    ("selmer", OBJECT, (("dim_forward", INT, SLOT), ("dim_dual", INT, SLOT),
                        ("rank_upper", INT, SLOT))),
    ("rank", INT, 1),
    ("base_point_nontorsion", BOOL, True),
), "rank = 1")


class Certificate(NamedTuple):
    """A certificate: its plan, and its own values in the order of the
    plan's slots; ``fields()`` gives it in full."""

    plan: Plan
    values: tuple

    def fields(self) -> SimpleNamespace:
        """The certificate with every value in place: its theorem and its
        record's fields by key, an object's as a dict and the ledger's as
        (check, values) pairs."""
        given = iter(self.values)

        def fill(kind, value):
            if kind == OBJECT:
                return {key: fill(kind, value) for key, kind, value in value}
            if kind == LEDGER:
                return tuple([(check, tuple([next(given) if v is SLOT else v for v in values]))
                              for check, values in value])
            return next(given) if value is SLOT else value

        return SimpleNamespace(theorem=self.plan.theorem, **fill(OBJECT, self.plan.fields))

    @property
    def conclusion(self) -> str:
        """The conclusion alone, as ``verify --file`` reads it off every
        certificate: the plan's, or the value at the position it gives."""
        conclusion = self.plan.conclusion
        return conclusion if isinstance(conclusion, str) else self.values[conclusion]


#: j of every family curve: y^2 = x^3 + a x has j = 1728 whatever a is
FAMILY_J = j_invariant(Curve(-1))


def cohomology_vanishing_checks(m: Member | None, p: int) -> list[Entry]:
    """Mod-p image conditions on the member's curve that feed the
    divisibility criterion, for a p that ``check_p`` has passed.

    p >= 13 needs nothing beyond the prime itself; 11 is settled by
    comparing j = 1728 against the two rational-11-isogeny j-invariants;
    7 by the absence of rational 7-torsion; 5 by the same check on the
    quartic twist by 25 together with a cited irreducibility theorem.
    For p >= 11 nothing of the member is read, as every family curve has
    the one j, so ``plan_for`` runs them once for its p, with m None; 5
    and 7 run for each member (``_MEMBER_COHOMOLOGY``).

    None of these can fail.  The torsion checks use a supersingular-
    reduction witness at q = 3, which divides neither l nor 25 l: #E(F_3)
    = 4, recounted at run time, and the torsion of E(Q) injects into
    E(F_3) under good reduction at an odd prime [Silverman AEC, VII.3.1],
    so m not dividing 4 leaves no rational m-torsion.
    ``has_rational_m_torsion`` returns False or raises AssertionError, a
    soundness alarm, as does a j among the 11-isogeny ones.
    """
    assert p >= 5 and is_prime(p), p
    if p >= 13:
        return [(MOD_P_IMAGE_LARGE_PRIME, (p,))]
    if p == 11:
        assert FAMILY_J not in _ELEVEN_ISOGENY_J, FAMILY_J
        return [(ELEVEN_ISOGENY_J, (FAMILY_J, _ELEVEN_ISOGENY_J))]
    if p == 7:
        has_rational_m_torsion(m.curve, 7)
        return [(SEVEN_TORSION_FREE, (m.ell,))]
    # p == 5: the relevant quartic twist must avoid rational 5-torsion
    twist = Curve(-25 * m.ell)
    has_rational_m_torsion(twist, 5)
    return [(TWIST_FIVE_TORSION_FREE, (twist.a,)), (MOD_FIVE_IRREDUCIBILITY, (m.ell,))]


#: p -> the checks of ``cohomology_vanishing_checks`` whose values each
#: member gives, for the p it runs per member
_MEMBER_COHOMOLOGY = {5: (TWIST_FIVE_TORSION_FREE, MOD_FIVE_IRREDUCIBILITY),
                      7: (SEVEN_TORSION_FREE,)}


def check_p(p: int) -> None:
    """Refuse a p that is not a prime >= 5 (``p-out-of-range``) or that is
    only a BPSW probable prime, above psi_13 (``p-primality-unproven``).

    Every certifier, and ``search`` before it enumerates, runs this before
    a member is built (``plan_for``): an unproved p would leave the record
    resting on a probable prime, and the parameters such a p forces
    (p^(n+1) | s t) make ell too large to test for fourth powers in any
    useful time.
    """
    prime, method = primality_info(p)
    if p < 5 or not prime:
        raise PreconditionFailure("p-out-of-range", f"p={p} must be a prime >= 5")
    if method == "baillie-psw-probable-prime":
        raise PreconditionFailure("p-primality-unproven",
                                  f"p={p} is only a BPSW probable prime")


_BASIS = "verified checks plus the cited criterion"


@lru_cache(maxsize=64)
def plan_for(theorem: str, p: int, n: int) -> Plan:
    """The plan of ``theorem``'s certificates at (p, n), for the three
    divisibility-based theorems; cached per process (bounded), so a search
    at one (p, n) makes one.

    It refuses an n below 1 (``depth-target``) and a p that ``check_p``
    refuses, before any member is built, and works out once what of the
    record depends on p and n alone: the constant ledger entries, the
    p >= 11 mod-p image conditions, the conclusion and its basis.  A
    refusal is not cached.  Every ledger begins with the divisibility
    checks, whose member values ``_divisibility_values`` gives.
    """
    if n < 1:
        raise PreconditionFailure("depth-target", f"n={n} must be >= 1")
    check_p(p)
    member_checks = _MEMBER_COHOMOLOGY.get(p)
    cohomology = (cohomology_vanishing_checks(None, p) if member_checks is None else
                  [(check, (SLOT,) * len(check.witness)) for check in member_checks])
    ledger = [
        (COPRIME_PARAMETERS, (SLOT, SLOT)),
        (FOURTH_POWER_FREE, (SLOT,)),
        (NONSQUARE_ELL, (SLOT,)),
        (PARAMETER_DEPTH, (p, n, SLOT, SLOT)),
        (GOOD_REDUCTION_AT_P, (p,)),
        (INTEGRAL_J, (FAMILY_J,)),
        (KERNEL_FILTRATION_DEPTH, (SLOT,) * 4),
        *cohomology,
        (PRIMITIVE_POINT, ("height-ratio", SLOT)),
        (FILTRATION_TO_CLASS_GROUP, (p, n)),
    ]
    subject = (("s", SLOT), ("t", SLOT), ("ell", SLOT), ("p", p), ("n", n))
    if theorem == "divisibility":
        conclusion = f"{p}^{2 * n} divides h(Q(E[{p}^{n}]))"
        return _ledger_plan(theorem, subject, tuple(ledger), (conclusion, _BASIS, 1, None, None))
    if theorem == "square-subfamily":
        ledger += [(SECOND_POINT_DEPTH, (SLOT,) * 3), (INDEPENDENT_POINTS, (SLOT,) * 3)]
        subject = (("s", SLOT), ("tau", SLOT), *subject[1:])
        return _ledger_plan(theorem, subject, tuple(ledger), (
            f"{p}^4 divides h(Q(E[{p}]))", "two independent deep points double the exponent",
            2, None, None))
    # the Kodaira type and Tamagawa number are asserted for each member
    ledger += [(RANK_EXACTLY_ONE, (SLOT,) * 4), (KODAIRA_TYPE_AT_ELL, (SLOT, "III", 2)),
               (DIVISION_FIELD_RAMIFICATION, (SLOT,))]
    return _ledger_plan(theorem, subject, tuple(ledger), (SLOT, _BASIS, 1, SLOT, SLOT))


def _coprime(s: int, t: int) -> None:
    if math.gcd(s, t) != 1:
        raise PreconditionFailure("coprime-parameters", f"gcd({s},{t}) != 1")


def _divisibility_values(subject: tuple, m: Member, p: int, n: int) -> tuple:
    """The subject's values, then those the member gives the divisibility
    checks of its plan, in slot order, once n, p and the gcd have passed.
    A refusal's detail is formatted only on the branch that refuses."""
    s, t, ell, _, fourth_power_free, ell_is_square = m
    if not fourth_power_free:
        raise PreconditionFailure("fourth-power-free", f"ell={ell}")
    if ell_is_square:
        raise PreconditionFailure("nonsquare-ell", f"ell={ell}")
    # raises with its own reasons if violated
    flagged, v_st, xv, yv, depth, parity_method = check_local(s, t, p, n)
    cohomology = (chain.from_iterable(map(_witness, cohomology_vanishing_checks(m, p)))
                  if p in _MEMBER_COHOMOLOGY else ())
    return (*subject, s, t, ell, ell, flagged, v_st, depth, xv, yv, parity_method, *cohomology,
            certify_primitive(m))


def certify_divisibility(s: int, t: int, p: int, n: int) -> Certificate:
    """Certificate that p^(2n) divides h of the p^n division field of E_{s,t}."""
    plan = plan_for("divisibility", p, n)
    _coprime(s, t)
    m = member(s, t)
    return Certificate(plan, _divisibility_values((s, t, m.ell), m, p, n))


def certify_square_subfamily(s: int, tau: int, p: int) -> Certificate:
    """t = tau^2 member with two deep points: p^4 divides h(Q(E[p])).

    The curve for (s, tau^2) equals the one for (tau, s^2), as s^4 + tau^4
    is symmetric, and the two parametrizations contribute the two rational
    points (-s^2, s tau^2) and (-tau^2, s^2 tau).  Their independence is
    the cited rank result; both filtration depths are machine-checked, the
    second as the base point's of the parameters (tau, s^2).  s and tau
    must be at least 1, as s and t must in the other modes; otherwise the
    member is refused as ``degenerate-parameters``.
    """
    _coprime(s, tau)
    plan = plan_for("square-subfamily", p, 1)
    t = tau * tau
    m = member(s, t)
    ell = m.ell
    if not m.fourth_power_free:
        raise PreconditionFailure("fourth-power-free", f"ell={ell}")
    depth = vp(s * tau, p)
    if depth < 2:
        raise PreconditionFailure("square-depth", f"v_p(s*tau)={depth} < 2")

    values = _divisibility_values((s, tau, t, ell), m, p, 1)
    # the ledger refuses s < 1, but it sees only t = tau^2, the same for
    # tau and -tau; a tau < 1 would reach the second point
    if tau < 1:
        raise PreconditionFailure("degenerate-parameters", f"(s,tau)=({s},{tau})")
    second = check_local(tau, s * s, p, 1)
    first = "s" if vp(s, p) > 0 else "tau"
    # l is not a square here, so the torsion is {O, (0, 0)}, and
    # y(second) = s^2 tau is not 0 since tau = 0 would force l = 1
    if is_torsion_point(m.curve, (-tau * tau, s * s * tau)):
        raise AssertionError(f"torsion second point at (s,tau)=({s},{tau}), p={p}")
    return Certificate(plan, (*values, f"(-{tau}^2, {s}^2*{tau})", second.depth, first,
                              s, tau, ell))


def certify_infinite_instance(s: int, t: int, p: int, n: int) -> Certificate:
    """One member of the infinite pairwise-distinct list: divisibility,
    rank exactly 1, and the ramification set {2, l, p} keyed by l."""
    plan = plan_for("infinite-family", p, n)
    _coprime(s, t)
    m = member(s, t)
    ell = m.ell
    values = _divisibility_values((s, t, ell), m, p, n)
    # enforces s even, t = +-3 mod 8, l prime
    rep = descent.certify_rank_one(s, t)
    # l is a prime = 9 mod 16, so l does not divide 48, v_l(c4) = 1 and
    # v_l(Delta) = 3: the table always gives type III with Tamagawa number 2
    red = reduction_at(m.curve, ell)
    if (red.kodaira, red.tamagawa) != ("III", 2):
        raise AssertionError(
            f"kodaira={red.kodaira} at ell={ell}, (s,t)=({s},{t}), p={p}"
        )
    ramified = (2, ell, p)
    conclusion = (f"{p}^{2 * n} divides h(Q(E[{p}^{n}])), rank E(Q) = 1, "
                  f"and the division field is ramified exactly at 2, {ell}, {p}")
    return Certificate(plan, (
        *values, ell % 16, rep.sel_forward, rep.sel_dual, rep.rank_upper,
        ell, ramified, conclusion, ramified, ell))


def certify_rank_one(s: int, t: int) -> Certificate:
    """Certificate that rank E_{s,t}(Q) = 1, for s even and positive,
    t = +-3 mod 8 and l = s^4 + t^2 proved prime; the refusals and the
    proof are ``descent.certify_rank_one``'s."""
    rep = descent.certify_rank_one(s, t)
    ell = s**4 + t**2
    return Certificate(RANK_ONE_PLAN, (s, t, ell, ell % 16, t % 8, rep.dim_forward,
                                       rep.dim_dual, rep.rank_upper))


def batch_distinctness(certs: list[Certificate]) -> dict:
    """Confirm pairwise distinct division fields Q(E[p^n]), keyed by
    (l, p, n): l from ``distinctness_key``, p and n from the subject.

    l alone does not name the field.  The same curve at two values of p
    has two fields, ramified at {2, l, p} for each p, and at two values of
    n it has Q(E[p^n]) inside Q(E[p^(n+1)]), a strictly larger field.  The
    curve is y^2 = x^3 - l x, so equal (l, p, n) from different (s, t) is
    one field twice, a true duplicate.
    """
    keys = []
    for cert in certs:
        fields = cert.fields()
        if fields.theorem != "infinite-family" or fields.distinctness_key is None:
            raise PreconditionFailure(
                "not-an-infinite-family-certificate", fields.theorem
            )
        keys.append((fields.distinctness_key, fields.subject["p"], fields.subject["n"]))
    counts = Counter(keys)
    return {
        "count": len(keys),
        "distinct": len(counts),
        "pairwise_distinct": len(counts) == len(keys),
        "duplicate_keys": sorted(k for k, c in counts.items() if c > 1),
    }


def record_head(theorem: str) -> str:
    """The text every record of ``theorem`` begins with, up to the colon
    before its subject; ``verify --file`` reads a stored line's theorem
    off it."""
    return '{"schema":"%s","theorem":"%s","subject":' % (SCHEMA_VERSION, theorem)


def certificate_to_jsonl(cert: Certificate) -> str:
    """The record of a certificate as one compact JSON line, the same text
    as ``json.dumps(record, separators=(",", ":"))``: its plan's template
    (rendered on the plan's first write) filled with the certificate's own
    values, the constants being in the template."""
    plan, values = cert
    form, args, convert = plan.shape or plan.render()
    args = list(args)
    args[1::2] = values
    for i, f in convert:
        args[i] = f(args[i])
    return form % tuple(args)


def certificate_to_dict(cert: Certificate) -> dict:
    """The record of a certificate: its line, parsed."""
    return json.loads(certificate_to_jsonl(cert))


def certificate_from_dict(data: dict) -> Certificate:
    """The certificate whose record ``data`` is; the inverse of
    ``certificate_to_dict`` for all four theorems.  A rank-one record is
    read through ``RANK_ONE_PLAN``, and one that does not hold a constant
    of that plan raises ValueError.  Any other record is read into a plan
    that holds no constant, each check through ``CHECKS``, so an unknown
    check raises KeyError.  A missing field raises KeyError too.  Either
    way the certificate's line is written as every other one is."""
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {data.get('schema')!r}")
    plan = RANK_ONE_PLAN if data["theorem"] == RANK_ONE_PLAN.theorem else _ledger_plan(
        data["theorem"], tuple((key, SLOT) for key in data["subject"]),
        tuple((check, (SLOT,) * len(check.witness))
              for check in [CHECKS[entry["name"]] for entry in data["checks"]]),
        (SLOT,) * len(_TAIL))
    values = []

    def read(key, kind, value, item):
        if kind == OBJECT:
            for field in value:
                read(*field, item[field[0]])
        elif kind == LEDGER:
            for (check, given), entry in zip(value, item):
                read("witness", OBJECT, _witness_fields(check, given), entry["witness"])
        elif value is SLOT:
            values.append(_LEAVES[kind][3](item))
        elif _LEAVES[kind][3](item) != value:
            raise ValueError(f"{key} is {item!r}, not {value!r}")

    read(None, OBJECT, plan.fields, data)
    return Certificate(plan, tuple(values))
