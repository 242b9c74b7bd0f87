"""Kernel-of-reduction depth certificates vs direct valuation computations."""

import random
import re
from fractions import Fraction

import pytest

from divpoly_oracle import vp_rational
from ellcert import localcond
from ellcert.certify import certificate_to_dict, certify_divisibility
from ellcert.curve import base_point, make_family, point, smul
from ellcert.errors import PreconditionFailure
from ellcert.localcond import check_local


def test_frozen_deep_member():
    cert = check_local(2, 25, 5, 1)
    assert cert.flagged == "t"
    assert cert.v_st == 2
    assert cert.x_doubled_valuation == -4
    assert cert.y_doubled_valuation == -6
    assert cert.depth == 2
    assert cert.order_parity_method == "counted"
    assert cert.depth >= 1 + 1


def test_flag_swaps_to_s():
    cert = check_local(25, 2, 5, 1)
    assert cert.flagged == "s"
    assert cert.depth == 2 and cert.depth >= 1 + 1


def test_deeper_member():
    cert = check_local(2, 125, 5, 2)
    assert cert.depth == 3 and cert.depth >= 2 + 1
    # same pair at the shallower target also holds
    assert check_local(2, 125, 5, 1).depth >= 1 + 1


@pytest.mark.parametrize(
    "args,outcome",
    [
        # outside the caller's contract (n >= 1, p an odd prime, s and t
        # nonzero): every certifier refuses these first (golden_refusals),
        # so here they are soundness alarms
        ((2, 25, 5, 0), AssertionError),
        ((2, 25, 4, 1), AssertionError),
        ((2, 25, 2, 1), AssertionError),
        ((0, 25, 5, 1), AssertionError),
        ((1, 2, 5, 1), "p-divides-exactly-one"),
        ((5, 25, 5, 1), "p-divides-exactly-one"),
        ((2, 5, 5, 1), "insufficient-depth"),
        ((2, 125, 5, 3), "insufficient-depth"),
    ],
)
def test_refusals(args, outcome):
    if outcome is AssertionError:
        with pytest.raises(AssertionError, match=re.escape(repr(args))):
            check_local(*args)
        return
    with pytest.raises(PreconditionFailure) as err:
        check_local(*args)
    assert err.value.reason == outcome


def test_structural_parity_above_counting_range():
    p = 10007
    cert = check_local(2, p * p, p, 1)
    assert cert.order_parity_method == "rational-two-torsion"
    assert cert.depth >= 1 + 1


def test_valuations_against_group_law():
    rng = random.Random(1234)
    primes = [5, 7, 11, 13]
    done = 0
    while done < 40:
        p = rng.choice(primes)
        e = rng.randrange(2, 4)
        u = rng.randrange(1, 8)
        other = rng.randrange(1, 10)
        if u % p == 0 or other % p == 0:
            continue
        if rng.random() < 0.5:
            s, t = p**e * u, other
        else:
            s, t = other, p**e * u
        from math import gcd

        if gcd(s, t) != 1:
            continue
        c = make_family(s, t)
        cert = check_local(s, t, p, 1)
        doubled = smul(c, 2, point(c, *base_point(s, t)))
        assert vp_rational(doubled.x, p) == -2 * e == cert.x_doubled_valuation
        assert vp_rational(doubled.y, p) == -3 * e == cert.y_doubled_valuation
        assert vp_rational(-doubled.x / doubled.y, p) == e == cert.depth  # z = -x/y
        # closed form for x(2P) on this family
        assert doubled.x == Fraction(2 * s**4 + t * t, 2 * s * t) ** 2
        done += 1


def test_odd_point_count_is_a_soundness_alarm(monkeypatch):
    # (0, 0) reduces to a point of order 2, so an odd count is a bug in
    # the code, never a refusal of the candidate
    monkeypatch.setattr(localcond, "count_points_mod_p", lambda c, p: 2 * p + 1)
    with pytest.raises(AssertionError, match=r"\(s,t\)=\(2,25\), p=5"):
        check_local(2, 25, 5, 1)


def test_every_field_reaches_the_ledger():
    cert = certify_divisibility(2, 25, 5, 1)
    local = check_local(2, 25, 5, 1)
    witnesses = {}
    for ch in certificate_to_dict(cert)["checks"]:
        if ch["name"] in ("parameter-depth", "kernel-filtration-depth"):
            witnesses.update(ch["witness"])
    # witnesses are in record form: integers as decimal strings
    for field in local._fields:
        assert witnesses[field] == str(getattr(local, field)), field
