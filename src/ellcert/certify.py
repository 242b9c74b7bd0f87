"""Assemble machine-checked certificates for class-number divisibility.

Every certificate is a ledger: named checks with witnesses, each either
verified here in exact arithmetic or explicitly marked as a cited
assumption from the literature.  A certificate is only built when every
check passes; a candidate failing any check raises PreconditionFailure
naming the check, so downstream consumers never see a half-valid ledger.

Three theorem shapes are produced:

* "divisibility": p^(2n) divides the class number of the p^n division
  field of E_{s,t}, from one primitive point deep in the filtration.
* "square-subfamily": t = tau^2 members carry a second rational point;
  with p^2 | s tau both points sit deep enough and the exponent doubles.
* "infinite-family": divisibility plus exact rank 1 plus the ramification
  fingerprint {2, l, p} that separates division fields of distinct members.

A fourth, the "rank-one" fragment, is ``descent.certify_rank_one``'s
result on its own.

Records.  Each ledger check is declared once, as a module-level ``Check``:
its name, status, citation and witness keys, each key with the kind of
value it holds (a decimal integer, a string, a float, a list of decimal
integers or a bool).  A certifier records (check, values) pairs holding
the raw values, so it builds no witness dict and no decimal string.  Each
ledger shape (a theorem, its subject keys and its checks, in order) gets
one record template on first use: the checks' constant JSON text encoded
once, ``%`` escaped, with one ``%`` slot per value.  ``certificate_to_jsonl``
fills the shape's template in one ``%``: it is the one writer of the
compact JSON line, for all four theorems.  Integers become decimal strings
there, so arbitrary precision survives any JSON parser.
``certificate_to_dict`` is that line parsed, so the dict and the line
cannot disagree, and ``certificate_from_dict`` reads a record back through
``CHECKS``, the registry of declared checks by name.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .arith import is_prime, is_square, kth_power_free, primality_info, vp
from .curve import (
    Curve,
    has_rational_m_torsion,
    is_torsion_point,
    j_invariant,
    make_family,
    reduction_at,
)
from .descent import RankCert, SelmerReport, certify_rank_one
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


#: The kinds of witness value a check slot holds.
INT, STR, FLOAT, INTS, BOOL = "int", "str", "float", "ints", "bool"

_encode_str = json.encoder.encode_basestring_ascii  # the quoted, escaped text
_JSON_BOOL = {True: "true", False: "false"}


def _encode_ints(values) -> str:
    """The items of a JSON list of decimal strings."""
    return '"%s"' % '","'.join(map(str, values)) if values else ""


#: kind -> (its slot in a template, the converter a value goes through
#: first, or None where ``%`` formats the value itself).  A float slot
#: takes a finite float, whose repr is its JSON text.
_SLOTS = {
    INT: ('"%d"', None),
    STR: ("%s", _encode_str),
    FLOAT: ("%r", None),
    INTS: ("[%s]", _encode_ints),
    BOOL: ("%s", _JSON_BOOL.__getitem__),
}


def _const(value) -> str:
    """A constant's JSON text, with ``%`` escaped for a template."""
    return json.dumps(value).replace("%", "%%")


def _object(fields) -> str:
    """The template of a JSON object from (key, template text) pairs."""
    return "{%s}" % ",".join([f"{_const(key)}:{text}" for key, text in fields])


class Check:
    """One ledger check, declared once: its name, status and citation, and
    its witness keys in record order, each with the kind of value its slot
    takes (``key=KIND``).  A check is a constant shared by every
    certificate, so its attributes cannot be set."""

    __slots__ = ("name", "status", "citation", "witness")

    def __init__(self, name: str, status: str, citation: str | None = None, **witness: str):
        for attr, value in (("name", name), ("status", status), ("citation", citation),
                            ("witness", tuple(witness.items()))):
            object.__setattr__(self, attr, value)

    def __setattr__(self, attr, value):
        raise AttributeError(f"a Check is immutable: cannot set {attr!r}")

    def template(self) -> str:
        """The check's JSON object with one ``%`` slot per witness value."""
        return _object([
            ("name", _const(self.name)),
            ("status", _const(self.status)),
            ("witness", _object([(key, _SLOTS[kind][0]) for key, kind in self.witness])),
            ("citation", _const(self.citation)),
        ])


PASS, CITED = "pass", "cited-assumption"
COPRIME_PARAMETERS = Check("coprime-parameters", PASS, s=INT, t=INT)
FOURTH_POWER_FREE = Check("fourth-power-free", PASS, ell=INT)
NONSQUARE_ELL = Check("nonsquare-ell", PASS, ell=INT)
PARAMETER_DEPTH = Check("parameter-depth", PASS, p=INT, n=INT, flagged=STR, v_st=INT)
GOOD_REDUCTION_AT_P = Check("good-reduction-at-p", PASS, p=INT)
INTEGRAL_J = Check("integral-j", PASS, j=INT)
KERNEL_FILTRATION_DEPTH = Check(
    "kernel-filtration-depth", PASS, depth=INT, x_doubled_valuation=INT,
    y_doubled_valuation=INT, order_parity_method=STR)
MOD_P_IMAGE_LARGE_PRIME = Check("mod-p-image-large-prime", PASS, p=INT)
ELEVEN_ISOGENY_J = Check("eleven-isogeny-j", PASS, j=INT, excluded_j=INTS)
SEVEN_TORSION_FREE = Check("seven-torsion-free", PASS, ell=INT)
TWIST_FIVE_TORSION_FREE = Check("twist-five-torsion-free", PASS, twist_a=INT)
MOD_FIVE_IRREDUCIBILITY = Check(
    "mod-five-irreducibility", CITED, CITATIONS["mod-five-irreducibility"], ell=INT)
PRIMITIVE_POINT = Check("primitive-point", PASS, method=STR, index_square_bound=FLOAT)
FILTRATION_TO_CLASS_GROUP = Check(
    "filtration-to-class-group", CITED, CITATIONS["divisibility-criterion"], p=INT, n=INT)
SECOND_POINT_DEPTH = Check(
    "second-point-depth", PASS, point=STR, depth=INT, flagged_parameter=STR)
INDEPENDENT_POINTS = Check(
    "independent-points", CITED, CITATIONS["independent-points"], s=INT, tau=INT, ell=INT)
RANK_EXACTLY_ONE = Check(
    "rank-exactly-one", PASS, ell_mod_16=INT, selmer_forward=INTS, selmer_dual=INTS,
    rank_upper=INT)
KODAIRA_TYPE_AT_ELL = Check("kodaira-type-at-ell", PASS, ell=INT, kodaira=STR, tamagawa=INT)
DIVISION_FIELD_RAMIFICATION = Check(
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
_check, _witness = itemgetter(0), itemgetter(1)


class Certificate(NamedTuple):
    theorem: str  # "divisibility" | "square-subfamily" | "infinite-family"
    subject: dict  # integers, in the order of the theorem's record
    ledger: tuple[Entry, ...]
    conclusion: str
    conclusion_basis: str
    unramified_rank_lower_bound: int
    ramified_primes: tuple[int, ...] | None = None
    distinctness_key: int | None = None


def cohomology_vanishing_checks(m: Member, p: int) -> list[Entry]:
    """Mod-p image conditions on the member's curve that feed the
    divisibility criterion, for a p that ``check_p`` has passed.

    p >= 13 needs nothing beyond the prime itself; 11 is settled by
    comparing j = 1728 against the two rational-11-isogeny j-invariants;
    7 by the absence of rational 7-torsion; 5 by the same check on the
    quartic twist by 25 together with a cited irreducibility theorem.

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
        j = j_invariant(m.curve)
        assert j not in _ELEVEN_ISOGENY_J, j
        return [(ELEVEN_ISOGENY_J, (j, _ELEVEN_ISOGENY_J))]
    if p == 7:
        has_rational_m_torsion(m.curve, 7)
        return [(SEVEN_TORSION_FREE, (m.ell,))]
    # p == 5: the relevant quartic twist must avoid rational 5-torsion
    twist = Curve(-25 * m.ell)
    has_rational_m_torsion(twist, 5)
    return [(TWIST_FIVE_TORSION_FREE, (twist.a,)), (MOD_FIVE_IRREDUCIBILITY, (m.ell,))]


def check_p(p: int) -> None:
    """Refuse a p that is not a prime >= 5 (``p-out-of-range``) or that is
    only a BPSW probable prime, above psi_13 (``p-primality-unproven``).

    Every certifier, and ``search`` before it enumerates, runs this before
    a member is built: an unproved p would leave the record resting on a
    probable prime, and the parameters such a p forces (p^(n+1) | s t)
    make ell too large to test for fourth powers in any useful time.
    """
    prime, method = primality_info(p)
    if p < 5 or not prime:
        raise PreconditionFailure("p-out-of-range", f"p={p} must be a prime >= 5")
    if method == "baillie-psw-probable-prime":
        raise PreconditionFailure("p-primality-unproven",
                                  f"p={p} is only a BPSW probable prime")


def _checked_member(s: int, t: int, p: int, n: int) -> Member:
    """The member, built only once the cheap checks on n, p and gcd pass."""
    if n < 1:
        raise PreconditionFailure("depth-target", f"n={n} must be >= 1")
    check_p(p)
    if math.gcd(s, t) != 1:
        raise PreconditionFailure("coprime-parameters", f"gcd({s},{t}) != 1")
    return member(s, t)


def _divisibility_checks(m: Member, p: int, n: int) -> list[Entry]:
    """The ledger for a member whose n, p and gcd checks have passed.  A
    refusal's detail is formatted only on the branch that refuses."""
    s, t, ell, curve, fourth_power_free, ell_is_square = m
    if not fourth_power_free:
        raise PreconditionFailure("fourth-power-free", f"ell={ell}")
    if ell_is_square:
        raise PreconditionFailure("nonsquare-ell", f"ell={ell}")
    # raises with its own reasons if violated
    flagged, v_st, xv, yv, depth, parity_method = check_local(s, t, p, n)
    return [
        (COPRIME_PARAMETERS, (s, t)),
        (FOURTH_POWER_FREE, (ell,)),
        (NONSQUARE_ELL, (ell,)),
        (PARAMETER_DEPTH, (p, n, flagged, v_st)),
        (GOOD_REDUCTION_AT_P, (p,)),
        (INTEGRAL_J, (j_invariant(curve),)),
        (KERNEL_FILTRATION_DEPTH, (depth, xv, yv, parity_method)),
        *cohomology_vanishing_checks(m, p),
        (PRIMITIVE_POINT, ("height-ratio", certify_primitive(m))),
        (FILTRATION_TO_CLASS_GROUP, (p, n)),
    ]


def certify_divisibility(s: int, t: int, p: int, n: int) -> Certificate:
    """Certificate that p^(2n) divides h of the p^n division field of E_{s,t}."""
    m = _checked_member(s, t, p, n)
    return Certificate(
        "divisibility",
        {"s": s, "t": t, "ell": m.ell, "p": p, "n": n},
        tuple(_divisibility_checks(m, p, n)),
        _divisibility_conclusion(p, n),
        "verified checks plus the cited criterion",
        1,
    )


@lru_cache(maxsize=64)
def _divisibility_conclusion(p: int, n: int) -> str:
    """The conclusion a divisibility certificate states; it depends on p
    and n alone, so a search at one (p, n) formats it once."""
    return f"{p}^{2 * n} divides h(Q(E[{p}^{n}]))"


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
    if math.gcd(s, tau) != 1:
        raise PreconditionFailure("coprime-parameters", f"gcd({s},{tau}) != 1")
    check_p(p)
    t = tau * tau
    m = member(s, t)
    ell = m.ell
    if not m.fourth_power_free:
        raise PreconditionFailure("fourth-power-free", f"ell={ell}")
    depth = vp(s * tau, p)
    if depth < 2:
        raise PreconditionFailure("square-depth", f"v_p(s*tau)={depth} < 2")

    checks = _divisibility_checks(m, p, 1)
    # the ledger refuses s < 1, but it sees only t = tau^2, the same for
    # tau and -tau; a tau < 1 would reach the second point
    if tau < 1:
        raise PreconditionFailure("degenerate-parameters", f"(s,tau)=({s},{tau})")
    second = check_local(tau, s * s, p, 1)
    first = "s" if vp(s, p) > 0 else "tau"
    checks.append((SECOND_POINT_DEPTH, (f"(-{tau}^2, {s}^2*{tau})", second.depth, first)))
    # l is not a square here, so the torsion is {O, (0, 0)}, and
    # y(second) = s^2 tau is not 0 since tau = 0 would force l = 1
    if is_torsion_point(m.curve, (-tau * tau, s * s * tau)):
        raise AssertionError(f"torsion second point at (s,tau)=({s},{tau}), p={p}")
    checks.append((INDEPENDENT_POINTS, (s, tau, ell)))
    return Certificate(
        "square-subfamily",
        {"s": s, "tau": tau, "t": t, "ell": ell, "p": p, "n": 1},
        tuple(checks),
        f"{p}^4 divides h(Q(E[{p}]))",
        "two independent deep points double the exponent",
        2,
    )


def certify_infinite_instance(s: int, t: int, p: int, n: int) -> Certificate:
    """One member of the infinite pairwise-distinct list: divisibility,
    rank exactly 1, and the ramification set {2, l, p} keyed by l."""
    m = _checked_member(s, t, p, n)
    checks = _divisibility_checks(m, p, n)
    ell = m.ell
    # enforces s even, t = +-3 mod 8, l prime
    rank = certify_rank_one(s, t)
    rep = rank.selmer_report
    checks.append((RANK_EXACTLY_ONE, (rank.ell_mod_16, rep.sel_forward, rep.sel_dual,
                                      rep.rank_upper)))
    # l is a prime = 9 mod 16, so l does not divide 48, v_l(c4) = 1 and
    # v_l(Delta) = 3: the table always gives type III with Tamagawa number 2
    red = reduction_at(m.curve, ell)
    if (red.kodaira, red.tamagawa) != ("III", 2):
        raise AssertionError(
            f"kodaira={red.kodaira} at ell={ell}, (s,t)=({s},{t}), p={p}"
        )
    checks.append((KODAIRA_TYPE_AT_ELL, (ell, red.kodaira, red.tamagawa)))
    checks.append((DIVISION_FIELD_RAMIFICATION, ((2, ell, p),)))
    return Certificate(
        "infinite-family",
        {"s": s, "t": t, "ell": ell, "p": p, "n": n},
        tuple(checks),
        f"{p}^{2 * n} divides h(Q(E[{p}^{n}])), rank E(Q) = 1, "
        f"and the division field is ramified exactly at 2, {ell}, {p}",
        "verified checks plus the cited criterion",
        1,
        (2, ell, p),
        ell,
    )


def batch_distinctness(certs: list[Certificate]) -> dict:
    """Confirm pairwise distinct division fields via the l fingerprint."""
    keys = []
    for cert in certs:
        if cert.theorem != "infinite-family" or cert.distinctness_key is None:
            raise PreconditionFailure(
                "not-an-infinite-family-certificate", cert.theorem
            )
        keys.append(cert.distinctness_key)
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


def _head(theorem: str, subject: tuple[str, ...]) -> str:
    """A record's template up to the end of its subject, whose integers
    are slots."""
    return record_head(theorem) + "{%s}" % ",".join(f'"{key}":"%d"' for key in subject)


_RANK_ONE = _head("rank-one", ("s", "t", "ell")) + (
    ',"ell_mod_16":"%d","t_mod_8":"%d","selmer":{"dim_forward":"%d","dim_dual":"%d",'
    '"rank_upper":"%d"},"rank":"%d","base_point_nontorsion":%s}')
#: a certificate record after its checks: the encoded conclusion and
#: basis, the rank bound, and the JSON texts of the ramified primes and of
#: the distinctness key
_TAIL = ('],"conclusion":%s,"conclusion_basis":%s,"unramified_rank_lower_bound":"%d",'
         '"ramified_primes":%s,"distinctness_key":%s}')


@lru_cache(maxsize=64)
def _ledger_shape(theorem: str, subject: tuple[str, ...], checks: tuple[Check, ...]
                  ) -> tuple[str, tuple]:
    """The template of a whole record of ``theorem`` with these subject
    keys whose ledger holds ``checks`` in this order, the checks' templates
    joined into it, and the (value index, converter) pairs of its slots; a
    certifier makes a handful of such shapes, one per cohomology branch."""
    template = (_head(theorem, subject) + ',"checks":['
                + ",".join([check.template() for check in checks]) + _TAIL)
    kinds = [INT] * len(subject) + [kind for check in checks for _, kind in check.witness]
    kinds += [STR, STR]  # the conclusion and its basis
    return template, tuple((i, _SLOTS[kind][1]) for i, kind in enumerate(kinds)
                           if _SLOTS[kind][1] is not None)


def certificate_to_jsonl(cert: Certificate | RankCert) -> str:
    """The record of a certificate or a rank-one result as one compact JSON
    line, the same text as ``json.dumps(record, separators=(",", ":"))``:
    the template of its ledger's shape, filled with its values.  The
    ledger's checks and its witness values are gathered by ``map`` and
    ``chain``, with no Python loop over its entries."""
    if isinstance(cert, RankCert):
        rep = cert.selmer_report
        return _RANK_ONE % (
            cert.s, cert.t, cert.ell, cert.ell_mod_16, cert.t_mod_8, rep.dim_forward,
            rep.dim_dual, rep.rank_upper, cert.rank, _JSON_BOOL[cert.base_point_nontorsion])
    theorem, subject, ledger, conclusion, basis, rank_bound, ram, key = cert
    template, convert = _ledger_shape(theorem, tuple(subject), tuple(map(_check, ledger)))
    values = [
        *subject.values(),
        *chain.from_iterable(map(_witness, ledger)),
        conclusion,
        basis,
        rank_bound,
        "null" if ram is None else "[%s]" % _encode_ints(ram),
        "null" if key is None else '"%d"' % key,
    ]
    for i, f in convert:
        values[i] = f(values[i])
    return template % tuple(values)


def certificate_to_dict(cert: Certificate | RankCert) -> dict:
    """The record of a certificate or a rank-one result: its line, parsed."""
    return json.loads(certificate_to_jsonl(cert))


def certificate_from_dict(data: dict) -> Certificate | RankCert:
    """The certificate or rank-one result whose record ``data`` is; the
    inverse of ``certificate_to_dict`` for all four theorems.  A rank-one
    record holds the Selmer dimensions but not the groups, so the parsed
    report's ``sel_forward`` and ``sel_dual`` are None.  Each check is read
    back through ``CHECKS``, so an unknown one raises KeyError."""
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {data.get('schema')!r}")
    subject = {k: int(v) for k, v in data["subject"].items()}
    if data["theorem"] == "rank-one":
        sel = {k: int(v) for k, v in data["selmer"].items()}
        return RankCert(
            **subject,
            ell_mod_16=int(data["ell_mod_16"]),
            t_mod_8=int(data["t_mod_8"]),
            selmer_report=SelmerReport(sel_forward=None, sel_dual=None, **sel),
            rank=int(data["rank"]),
            base_point_nontorsion=data["base_point_nontorsion"],
        )
    ledger = []
    for ch in data["checks"]:
        check, witness = CHECKS[ch["name"]], ch["witness"]
        ledger.append((check, tuple(
            int(witness[k]) if kind == INT else
            tuple(map(int, witness[k])) if kind == INTS else witness[k]
            for k, kind in check.witness)))
    ram = data.get("ramified_primes")
    key = data.get("distinctness_key")
    return Certificate(
        theorem=data["theorem"],
        subject=subject,
        ledger=tuple(ledger),
        conclusion=data["conclusion"],
        conclusion_basis=data["conclusion_basis"],
        unramified_rank_lower_bound=int(data["unramified_rank_lower_bound"]),
        ramified_primes=tuple(int(x) for x in ram) if ram is not None else None,
        distinctness_key=int(key) if key is not None else None,
    )
