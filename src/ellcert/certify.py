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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .arith import is_prime, is_square, kth_power_free, primality_info, vp
from .curve import (
    base_point,
    curve_from_a,
    has_rational_m_torsion,
    is_torsion_point,
    j_invariant,
    make_family,
    reduction_at,
)
from .descent import certify_rank_one
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


@dataclass(frozen=True)
class FamilyMember:
    s: int
    t: int
    ell: int
    ell_is_prime: bool
    primality_method: str
    ell_mod_16: int
    t_mod_8: int
    s_even: bool


def make_member(s: int, t: int) -> FamilyMember:
    if s < 1 or t < 1:
        raise PreconditionFailure("degenerate-parameters", f"(s,t)=({s},{t})")
    ell = s**4 + t**2
    prime, method = primality_info(ell)
    return FamilyMember(
        s=s,
        t=t,
        ell=ell,
        ell_is_prime=prime,
        primality_method=method,
        ell_mod_16=ell % 16,
        t_mod_8=t % 8,
        s_even=s % 2 == 0,
    )


@dataclass(frozen=True)
class CheckEntry:
    name: str
    status: str  # "pass" | "cited-assumption"
    witness: dict
    citation: str | None = None


@dataclass(frozen=True)
class Certificate:
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


def cohomology_vanishing_checks(s: int, t: int, p: int) -> list[CheckEntry]:
    """Mod-p image conditions that feed the divisibility criterion.

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
    c = make_family(s, t)
    out = []
    if p >= 13:
        out.append(CheckEntry("mod-p-image-large-prime", "pass", {"p": p}))
        return out
    if p == 11:
        j = j_invariant(c)
        _require(j not in _ELEVEN_ISOGENY_J, "eleven-isogeny-j", f"j={j}")
        out.append(
            CheckEntry(
                "eleven-isogeny-j",
                "pass",
                {"j": j, "excluded_j": list(_ELEVEN_ISOGENY_J)},
            )
        )
        return out
    if p == 7:
        _require(
            not has_rational_m_torsion(c, 7), "seven-torsion", "rational 7-torsion found"
        )
        out.append(CheckEntry("seven-torsion-free", "pass", {"ell": c.ell}))
        return out
    # p == 5: the relevant quartic twist must avoid rational 5-torsion
    twist = curve_from_a(-25 * c.ell)
    _require(
        not has_rational_m_torsion(twist, 5),
        "twist-five-torsion",
        "rational 5-torsion on the 25-twist",
    )
    out.append(
        CheckEntry("twist-five-torsion-free", "pass", {"twist_a": -25 * c.ell})
    )
    out.append(
        CheckEntry(
            "mod-five-irreducibility",
            "cited-assumption",
            {"ell": c.ell},
            citation=CITATIONS["mod-five-irreducibility"],
        )
    )
    return out


def _divisibility_checks(s: int, t: int, p: int, n: int) -> list[CheckEntry]:
    _require(n >= 1, "depth-target", f"n={n} must be >= 1")
    _require(p >= 5 and is_prime(p), "p-out-of-range", f"p={p} must be a prime >= 5")
    _require(math.gcd(s, t) == 1, "coprime-parameters", f"gcd({s},{t}) != 1")
    ell = s**4 + t**2
    c = make_family(s, t)
    checks = [CheckEntry("coprime-parameters", "pass", {"s": s, "t": t})]

    _require(kth_power_free(ell, 4), "fourth-power-free", f"ell={ell}")
    checks.append(CheckEntry("fourth-power-free", "pass", {"ell": ell}))

    _require(not is_square(ell), "nonsquare-ell", f"ell={ell}")
    checks.append(CheckEntry("nonsquare-ell", "pass", {"ell": ell}))

    local = check_local(s, t, p, n)  # raises with its own reasons if violated
    checks.append(
        CheckEntry(
            "parameter-depth",
            "pass",
            {"p": p, "n": n, "flagged": local.flagged, "v_st": local.v_st},
        )
    )
    checks.append(CheckEntry("good-reduction-at-p", "pass", {"p": p}))
    checks.append(CheckEntry("integral-j", "pass", {"j": j_invariant(c)}))
    checks.append(
        CheckEntry(
            "kernel-filtration-depth",
            "pass",
            {
                "depth": local.depth,
                "x_doubled_valuation": local.x_doubled_valuation,
                "y_doubled_valuation": local.y_doubled_valuation,
                "order_parity_method": local.order_parity_method,
            },
        )
    )
    checks.extend(cohomology_vanishing_checks(s, t, p))

    prim = certify_primitive(s, t)
    _require(
        prim.status == "primitive", "primitive-point", f"status={prim.status}"
    )
    witness = {"method": prim.method}
    if prim.ratio is not None:
        witness["index_square_bound"] = prim.ratio
    checks.append(CheckEntry("primitive-point", "pass", witness))

    checks.append(
        CheckEntry(
            "filtration-to-class-group",
            "cited-assumption",
            {"p": p, "n": n},
            citation=CITATIONS["divisibility-criterion"],
        )
    )
    return checks


def certify_divisibility(s: int, t: int, p: int, n: int) -> Certificate:
    """Certificate that p^(2n) divides h of the p^n division field of E_{s,t}."""
    checks = _divisibility_checks(s, t, p, n)
    ell = s**4 + t**2
    return Certificate(
        theorem="divisibility",
        subject={"s": s, "t": t, "ell": ell, "p": p, "n": n},
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
    _require(p >= 5 and is_prime(p), "p-out-of-range", f"p={p} must be a prime >= 5")
    t = tau * tau
    ell = s**4 + tau**4
    _require(kth_power_free(ell, 4), "fourth-power-free", f"ell={ell}")
    _require(vp(s * tau, p) >= 2, "square-depth", f"v_p(s*tau)={vp(s * tau, p)} < 2")

    checks = _divisibility_checks(s, t, p, 1)
    local_swapped = check_local(tau, s * s, p, 1)
    first = "s" if vp(s, p) > 0 else "tau"
    checks.append(
        CheckEntry(
            "second-point-depth",
            "pass",
            {
                "point": f"(-{tau}^2, {s}^2*{tau})",
                "depth": local_swapped.depth,
                "flagged_parameter": first,
            },
        )
    )
    c = make_family(s, t)
    second = base_point(make_family(tau, s * s))
    assert c.a == -(tau**4 + s**4)
    _require(
        not is_torsion_point(c, second), "second-point-torsion", "degenerate point"
    )
    checks.append(
        CheckEntry(
            "independent-points",
            "cited-assumption",
            {"s": s, "tau": tau, "ell": ell},
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
    checks = _divisibility_checks(s, t, p, n)
    ell = s**4 + t**2
    rank = certify_rank_one(s, t)  # enforces s even, t = +-3 mod 8, l prime
    checks.append(
        CheckEntry(
            "rank-exactly-one",
            "pass",
            {
                "ell_mod_16": rank.ell_mod_16,
                "selmer_forward": list(rank.selmer_report.sel_forward),
                "selmer_dual": list(rank.selmer_report.sel_dual),
                "rank_upper": rank.selmer_report.rank_upper,
            },
        )
    )
    red = reduction_at(make_family(s, t), ell)
    _require(
        red.kodaira == "III" and red.tamagawa == 2,
        "multiplicative-free-at-ell",
        f"kodaira={red.kodaira}",
    )
    checks.append(
        CheckEntry(
            "kodaira-type-at-ell",
            "pass",
            {"ell": ell, "kodaira": red.kodaira, "tamagawa": red.tamagawa},
        )
    )
    checks.append(
        CheckEntry(
            "division-field-ramification",
            "cited-assumption",
            {"ramified": [2, ell, p]},
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
    dupes = sorted({k for k in keys if keys.count(k) > 1})
    return {
        "count": len(keys),
        "distinct": len(set(keys)),
        "pairwise_distinct": len(set(keys)) == len(keys),
        "duplicate_keys": dupes,
    }


def _jsonable(value):
    if isinstance(value, bool) or value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    raise TypeError(f"unserializable witness value {value!r}")


def certificate_to_dict(cert: Certificate) -> dict:
    """Stable-order plain dict; every integer becomes a decimal string."""
    return {
        "schema": SCHEMA_VERSION,
        "theorem": cert.theorem,
        "subject": _jsonable(cert.subject),
        "checks": [
            {
                "name": ch.name,
                "status": ch.status,
                "witness": _jsonable(ch.witness),
                "citation": ch.citation,
            }
            for ch in cert.checks
        ],
        "conclusion": cert.conclusion,
        "conclusion_basis": cert.conclusion_basis,
        "unramified_rank_lower_bound": str(cert.unramified_rank_lower_bound),
        "ramified_primes": _jsonable(cert.ramified_primes),
        "distinctness_key": _jsonable(cert.distinctness_key),
    }


def certificate_to_jsonl(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), separators=(",", ":"))


def certificate_from_dict(data: dict) -> Certificate:
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {data.get('schema')!r}")
    subject = {k: int(v) for k, v in data["subject"].items()}
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


def certificate_from_jsonl(line: str) -> Certificate:
    return certificate_from_dict(json.loads(line))
