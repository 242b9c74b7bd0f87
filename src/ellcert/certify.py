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
result on its own.  ``certificate_to_dict`` builds the record of all four
and ``certificate_to_jsonl`` writes it as one compact JSON line.  Each
witness is built in its record form, where the certifier makes its
``CheckEntry``: integers as decimal strings (so arbitrary precision
survives any JSON parser), besides floats, bools, plain strings and lists
of decimal strings.  The record is then a flat copy of the fields; the
subject, ``ramified_primes`` and ``distinctness_key`` stay integers on the
``Certificate``, and ``certificate_to_dict`` writes them as decimal strings.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import NamedTuple

from .arith import is_prime, is_square, kth_power_free, vp
from .curve import (
    Curve,
    curve_from_a,
    has_rational_m_torsion,
    is_torsion_point,
    j_invariant,
    make_family,
    reduction_at,
)
from .descent import RankCert, SelmerReport, certify_rank_one, require_proved_prime
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
    """One family member E_{s,t} with the facts about ell that its ledger
    checks consume, each worked out once."""

    s: int
    t: int
    ell: int
    curve: Curve  # family-tagged, so it carries s, t and ell as well
    fourth_power_free: bool
    ell_is_square: bool


def member(s: int, t: int) -> Member:
    """The member for (s, t); (0, 0) raises ValueError, as make_family does."""
    c = make_family(s, t)
    return Member(
        s=s,
        t=t,
        ell=c.ell,
        curve=c,
        fourth_power_free=kth_power_free(c.ell, 4),
        ell_is_square=is_square(c.ell),
    )


class CheckEntry(NamedTuple):
    name: str
    status: str  # "pass" | "cited-assumption"
    witness: dict  # in record form: integers are decimal strings
    citation: str | None = None


class Certificate(NamedTuple):
    theorem: str  # "divisibility" | "square-subfamily" | "infinite-family"
    subject: dict
    checks: tuple[CheckEntry, ...]
    conclusion: str
    conclusion_basis: str
    unramified_rank_lower_bound: int
    ramified_primes: tuple[int, ...] | None = None
    distinctness_key: int | None = None


def _require(ok: bool, name: str, detail: str) -> None:
    if not ok:
        raise PreconditionFailure(name, detail)


def cohomology_vanishing_checks(c: Curve, p: int) -> list[CheckEntry]:
    """Mod-p image conditions on the family curve c that feed the
    divisibility criterion.

    p >= 13 needs nothing beyond the prime itself; 11 is settled by
    comparing j = 1728 against the two rational-11-isogeny j-invariants;
    7 by the absence of rational 7-torsion; 5 by the same check on the
    quartic twist by 25 together with a cited irreducibility theorem.

    The torsion checks use a supersingular-reduction witness: a prime
    q = 3 (mod 4) not dividing 2a has #E(F_q) = q + 1, recounted at run
    time, and torsion of order prime to q injects into E(F_q) under good
    reduction [Silverman AEC, VII.3.1], so m not dividing q + 1 leaves no
    rational m-torsion (see ``has_rational_m_torsion``).
    """
    if p < 5 or not is_prime(p):
        raise PreconditionFailure("p-out-of-range", f"p={p} must be a prime >= 5")
    out = []
    if p >= 13:
        out.append(CheckEntry("mod-p-image-large-prime", "pass", {"p": str(p)}))
        return out
    if p == 11:
        j = j_invariant(c)
        _require(j not in _ELEVEN_ISOGENY_J, "eleven-isogeny-j", f"j={j}")
        out.append(
            CheckEntry(
                "eleven-isogeny-j",
                "pass",
                {"j": str(j), "excluded_j": [str(e) for e in _ELEVEN_ISOGENY_J]},
            )
        )
        return out
    if p == 7:
        _require(
            not has_rational_m_torsion(c, 7), "seven-torsion", "rational 7-torsion found"
        )
        out.append(CheckEntry("seven-torsion-free", "pass", {"ell": str(c.ell)}))
        return out
    # p == 5: the relevant quartic twist must avoid rational 5-torsion
    twist = curve_from_a(-25 * c.ell)
    _require(
        not has_rational_m_torsion(twist, 5),
        "twist-five-torsion",
        "rational 5-torsion on the 25-twist",
    )
    out.append(
        CheckEntry("twist-five-torsion-free", "pass", {"twist_a": str(-25 * c.ell)})
    )
    out.append(
        CheckEntry(
            "mod-five-irreducibility",
            "cited-assumption",
            {"ell": str(c.ell)},
            citation=CITATIONS["mod-five-irreducibility"],
        )
    )
    return out


def check_p(p: int) -> None:
    """Refuse a p that is not a prime >= 5 (``p-out-of-range``) or that is
    only a BPSW probable prime, above psi_13 (``p-primality-unproven``).

    Every certifier, and ``search`` before it enumerates, runs this before
    a member is built: an unproved p would leave the record resting on a
    probable prime, and the parameters such a p forces (p^(n+1) | s t)
    make ell too large to test for fourth powers in any useful time.
    """
    _require(p >= 5 and is_prime(p), "p-out-of-range", f"p={p} must be a prime >= 5")
    require_proved_prime(p, "p")


def _checked_member(s: int, t: int, p: int, n: int) -> Member:
    """The member, built only once the cheap checks on n, p and gcd pass."""
    _require(n >= 1, "depth-target", f"n={n} must be >= 1")
    check_p(p)
    _require(math.gcd(s, t) == 1, "coprime-parameters", f"gcd({s},{t}) != 1")
    return member(s, t)


def _divisibility_checks(m: Member, p: int, n: int) -> list[CheckEntry]:
    """The ledger for a member whose n, p and gcd checks have passed."""
    c = m.curve
    ell, p_, n_ = str(m.ell), str(p), str(n)
    checks = [CheckEntry("coprime-parameters", "pass", {"s": str(m.s), "t": str(m.t)})]

    _require(m.fourth_power_free, "fourth-power-free", f"ell={ell}")
    checks.append(CheckEntry("fourth-power-free", "pass", {"ell": ell}))

    _require(not m.ell_is_square, "nonsquare-ell", f"ell={ell}")
    checks.append(CheckEntry("nonsquare-ell", "pass", {"ell": ell}))

    local = check_local(c, p, n)  # raises with its own reasons if violated
    checks.append(
        CheckEntry(
            "parameter-depth",
            "pass",
            {"p": p_, "n": n_, "flagged": local.flagged, "v_st": str(local.v_st)},
        )
    )
    checks.append(CheckEntry("good-reduction-at-p", "pass", {"p": p_}))
    checks.append(CheckEntry("integral-j", "pass", {"j": str(j_invariant(c))}))
    checks.append(
        CheckEntry(
            "kernel-filtration-depth",
            "pass",
            {
                "depth": str(local.depth),
                "x_doubled_valuation": str(local.x_doubled_valuation),
                "y_doubled_valuation": str(local.y_doubled_valuation),
                "order_parity_method": local.order_parity_method,
            },
        )
    )
    checks.extend(cohomology_vanishing_checks(c, p))

    ratio = certify_primitive(m)
    checks.append(
        CheckEntry(
            "primitive-point",
            "pass",
            {"method": "height-ratio", "index_square_bound": ratio},
        )
    )

    checks.append(
        CheckEntry(
            "filtration-to-class-group",
            "cited-assumption",
            {"p": p_, "n": n_},
            citation=CITATIONS["divisibility-criterion"],
        )
    )
    return checks


def certify_divisibility(s: int, t: int, p: int, n: int) -> Certificate:
    """Certificate that p^(2n) divides h of the p^n division field of E_{s,t}."""
    m = _checked_member(s, t, p, n)
    checks = _divisibility_checks(m, p, n)
    return Certificate(
        theorem="divisibility",
        subject={"s": s, "t": t, "ell": m.ell, "p": p, "n": n},
        checks=tuple(checks),
        conclusion=f"{p}^{2 * n} divides h(Q(E[{p}^{n}]))",
        conclusion_basis="verified checks plus the cited criterion",
        unramified_rank_lower_bound=1,
    )


def certify_square_subfamily(s: int, tau: int, p: int) -> Certificate:
    """t = tau^2 member with two deep points: p^4 divides h(Q(E[p])).

    The curve for (s, tau^2) equals the one for (tau, s^2), and the two
    parametrizations contribute the two rational points (-s^2, s tau^2)
    and (-tau^2, s^2 tau).  Their independence is the cited rank result;
    both filtration depths are machine-checked through the swap.
    """
    _require(math.gcd(s, tau) == 1, "coprime-parameters", f"gcd({s},{tau}) != 1")
    check_p(p)
    t = tau * tau
    m = member(s, t)
    ell = m.ell
    _require(m.fourth_power_free, "fourth-power-free", f"ell={ell}")
    depth = vp(s * tau, p)
    _require(depth >= 2, "square-depth", f"v_p(s*tau)={depth} < 2")

    checks = _divisibility_checks(m, p, 1)
    swapped = make_family(tau, s * s)
    local_swapped = check_local(swapped, p, 1)
    first = "s" if vp(s, p) > 0 else "tau"
    checks.append(
        CheckEntry(
            "second-point-depth",
            "pass",
            {
                "point": f"(-{tau}^2, {s}^2*{tau})",
                "depth": str(local_swapped.depth),
                "flagged_parameter": first,
            },
        )
    )
    assert swapped.a == m.curve.a
    # l is not a square here, so the torsion is {O, (0, 0)}, and
    # y(second) = s^2 tau is not 0 since tau = 0 would force l = 1
    if is_torsion_point(m.curve, (-tau * tau, s * s * tau)):
        raise AssertionError(f"torsion second point at (s,tau)=({s},{tau}), p={p}")
    checks.append(
        CheckEntry(
            "independent-points",
            "cited-assumption",
            {"s": str(s), "tau": str(tau), "ell": str(ell)},
            citation=CITATIONS["independent-points"],
        )
    )
    return Certificate(
        theorem="square-subfamily",
        subject={"s": s, "tau": tau, "t": t, "ell": ell, "p": p, "n": 1},
        checks=tuple(checks),
        conclusion=f"{p}^4 divides h(Q(E[{p}]))",
        conclusion_basis="two independent deep points double the exponent",
        unramified_rank_lower_bound=2,
    )


def certify_infinite_instance(s: int, t: int, p: int, n: int) -> Certificate:
    """One member of the infinite pairwise-distinct list: divisibility,
    rank exactly 1, and the ramification set {2, l, p} keyed by l."""
    m = _checked_member(s, t, p, n)
    checks = _divisibility_checks(m, p, n)
    ell = m.ell
    # enforces s even, t = +-3 mod 8, l prime
    rank = certify_rank_one(s, t, m.curve)
    checks.append(
        CheckEntry(
            "rank-exactly-one",
            "pass",
            {
                "ell_mod_16": str(rank.ell_mod_16),
                "selmer_forward": [str(d) for d in rank.selmer_report.sel_forward],
                "selmer_dual": [str(d) for d in rank.selmer_report.sel_dual],
                "rank_upper": str(rank.selmer_report.rank_upper),
            },
        )
    )
    # l is a prime = 9 mod 16, so l does not divide 48, v_l(c4) = 1 and
    # v_l(Delta) = 3: the table always gives type III with Tamagawa number 2
    red = reduction_at(m.curve, ell)
    if (red.kodaira, red.tamagawa) != ("III", 2):
        raise AssertionError(
            f"kodaira={red.kodaira} at ell={ell}, (s,t)=({s},{t}), p={p}"
        )
    checks.append(
        CheckEntry(
            "kodaira-type-at-ell",
            "pass",
            {"ell": str(ell), "kodaira": red.kodaira, "tamagawa": str(red.tamagawa)},
        )
    )
    checks.append(
        CheckEntry(
            "division-field-ramification",
            "cited-assumption",
            {"ramified": ["2", str(ell), str(p)]},
            citation=CITATIONS["division-field-ramification"],
        )
    )
    return Certificate(
        theorem="infinite-family",
        subject={"s": s, "t": t, "ell": ell, "p": p, "n": n},
        checks=tuple(checks),
        conclusion=(
            f"{p}^{2 * n} divides h(Q(E[{p}^{n}])), rank E(Q) = 1, "
            f"and the division field is ramified exactly at 2, {ell}, {p}"
        ),
        conclusion_basis="verified checks plus the cited criterion",
        unramified_rank_lower_bound=1,
        ramified_primes=(2, ell, p),
        distinctness_key=ell,
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


#: writes a record as one compact line; a record is a tree built here, so
#: the cycle check is skipped, and non-ASCII text is escaped (the default)
record_to_jsonl = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _rank_record(rc: RankCert) -> dict:
    rep = rc.selmer_report
    return {
        "schema": SCHEMA_VERSION,
        "theorem": "rank-one",
        "subject": {"s": str(rc.s), "t": str(rc.t), "ell": str(rc.ell)},
        "ell_mod_16": str(rc.ell_mod_16),
        "t_mod_8": str(rc.t_mod_8),
        "selmer": {
            "dim_forward": str(rep.dim_forward),
            "dim_dual": str(rep.dim_dual),
            "rank_upper": str(rep.rank_upper),
        },
        "rank": str(rc.rank),
        "base_point_nontorsion": rc.base_point_nontorsion,
    }


def certificate_to_dict(cert: Certificate | RankCert) -> dict:
    """The record of a certificate or a rank-one result, in stable order.

    The witnesses are already in record form, so each check is a flat copy
    of its fields (the witness dict itself is shared, not copied); the
    integers outside them become decimal strings here.
    """
    if isinstance(cert, RankCert):
        return _rank_record(cert)
    ram, key = cert.ramified_primes, cert.distinctness_key
    return {
        "schema": SCHEMA_VERSION,
        "theorem": cert.theorem,
        "subject": {k: str(v) for k, v in cert.subject.items()},
        "checks": [{"name": ch.name, "status": ch.status, "witness": ch.witness,
                    "citation": ch.citation} for ch in cert.checks],
        "conclusion": cert.conclusion,
        "conclusion_basis": cert.conclusion_basis,
        "unramified_rank_lower_bound": str(cert.unramified_rank_lower_bound),
        "ramified_primes": None if ram is None else [str(q) for q in ram],
        "distinctness_key": None if key is None else str(key),
    }


def certificate_to_jsonl(cert: Certificate | RankCert) -> str:
    return record_to_jsonl(certificate_to_dict(cert))


def certificate_from_dict(data: dict) -> Certificate | RankCert:
    """The certificate or rank-one result whose record ``data`` is; the
    inverse of ``certificate_to_dict`` for all four theorems.  A rank-one
    record holds the Selmer dimensions but not the groups, so the parsed
    report's ``sel_forward`` and ``sel_dual`` are None."""
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
    checks = tuple(
        CheckEntry(
            name=ch["name"],
            status=ch["status"],
            witness=ch["witness"],
            citation=ch.get("citation"),
        )
        for ch in data["checks"]
    )
    ram = data.get("ramified_primes")
    key = data.get("distinctness_key")
    return Certificate(
        theorem=data["theorem"],
        subject=subject,
        checks=checks,
        conclusion=data["conclusion"],
        conclusion_basis=data["conclusion_basis"],
        unramified_rank_lower_bound=int(data["unramified_rank_lower_bound"]),
        ramified_primes=tuple(int(x) for x in ram) if ram is not None else None,
        distinctness_key=int(key) if key is not None else None,
    )
