"""Saturation-index certificates: height-floor route, the l = 2 search
route, undecided cases, and a brute-force no-small-multiple cross-check."""

import math
from fractions import Fraction

import pytest

from ellcert import primitivity
from ellcert.arith import is_square, kth_power_free
from ellcert.certify import member
from ellcert.curve import base_point, make_family, rational_points_up_to_height, smul, translate_by_torsion
from ellcert.descent import SelmerReport
from ellcert.errors import PreconditionFailure
from ellcert.heights import _vy_log2_coeff
from ellcert.primitivity import certify_primitive, excludes_index_two


@pytest.mark.parametrize("s,t", [(1, 2), (2, 5), (3, 10), (2, 75)])
def test_height_ratio_route(s, t):
    cert = certify_primitive(member(s, t))
    assert cert.status == "primitive"
    assert cert.method == "height-ratio"
    assert cert.torsion_only_two and cert.excludes_index_two
    assert cert.ratio is not None and cert.ratio < 9.0
    assert cert.search_bound is None


def test_worst_family_ratio_frozen():
    # (2, 2) maximizes hhat_hi / floor over the small parameter box
    cert = certify_primitive(member(2, 2))
    assert cert.status == "primitive"
    assert abs(cert.ratio - 8.6169) < 1e-3


def test_smallest_member_uses_search():
    cert = certify_primitive(member(1, 1))  # l = 2: floor table inapplicable
    assert cert.status == "primitive"
    assert cert.method == "rank-one-search"
    assert cert.ratio is None
    assert cert.search_bound is not None
    assert 5.0 < cert.search_bound < 6.0


def test_square_ell_is_undecided_not_failed():
    cert = certify_primitive(member(2, 3))  # l = 25
    assert cert.status == "undecided"
    assert cert.reason == "square-ell-extra-two-torsion"
    assert cert.method == "none"
    assert not cert.torsion_only_two
    assert not cert.excludes_index_two


def test_parity_helper():
    assert excludes_index_two(make_family(1, 2))
    assert not excludes_index_two(make_family(2, 3))


@pytest.mark.parametrize(
    "s,t,reason",
    [
        (0, 5, "degenerate-parameters"),
        (1, 0, "degenerate-parameters"),
        (1, 182, "ell-not-fourth-power-free"),  # 33125 = 5^4 * 53
    ],
)
def test_refusals(s, t, reason):
    with pytest.raises(PreconditionFailure) as err:
        certify_primitive(member(s, t))
    assert err.value.reason == reason


@pytest.mark.parametrize("s,t", [(1, 2), (1, 1), (2, 5)])
def test_no_small_odd_multiple_brute(s, t):
    """Independent corroboration: no rational point in a big x-height
    window maps onto P or P + (0,0) under multiplication by 3, 5, or 7."""
    c = make_family(s, t)
    p0 = base_point(c)
    targets = {p0.x, translate_by_torsion(c, p0).x}
    for q in rational_points_up_to_height(c, 4.5):
        for m in (3, 5, 7):
            mq = smul(c, m, q)
            if mq is not None:
                assert mq.x not in targets


# constants of the lemma in certify_primitive's docstring
_UPPER_GAP_CONST = math.log(1728) / 12 + math.log(64) / 12 + 1.07  # about 2.0378
_FLOOR_CONST = 5 / 16 * math.log(2)  # the smaller coefficient, about 0.2166


def _lemma_bound(s, ell):
    """Closed-form bound on the crude ratio: (ln s + L/4 + K) / (L/16 + F)
    with ln s <= L/4, or ln s = 0 at s = 1."""
    big_l = math.log(ell)
    if s == 1:
        return (big_l / 4 + _UPPER_GAP_CONST) / (big_l / 16 + _FLOOR_CONST)
    return 8 + (_UPPER_GAP_CONST - 8 * _FLOOR_CONST) / (big_l / 16 + _FLOOR_CONST)


def test_crude_ratio_lemma_exhaustive():
    """Every eligible member with s, t <= 60, coprime or not, is settled by
    the crude ratio, under the closed-form bound, with c(-l) never negative."""
    worst = 0.0
    eligible = 0
    for s in range(1, 61):
        for t in range(1, 61):
            ell = s**4 + t * t
            if ell == 2 or not kth_power_free(ell, 4) or is_square(ell):
                continue
            eligible += 1
            assert _vy_log2_coeff(-ell) in (Fraction(5, 16), Fraction(9, 16)), (s, t)
            cert = certify_primitive(member(s, t))
            assert cert.status == "primitive" and cert.method == "height-ratio", (s, t)
            assert cert.ratio <= _lemma_bound(s, ell) + 1e-9, (s, t)
            worst = max(worst, cert.ratio)
    assert eligible == 2993
    assert worst == certify_primitive(member(2, 2)).ratio < 8.62


def test_crude_ratio_lemma_closed_form():
    # s = 1 from l = 5 up, and s >= 2 from l = 17 up (the smallest l of each)
    assert _lemma_bound(1, 5) < 7.7
    assert _lemma_bound(2, 17) < 8.78
    # the computed ratios round outward, so allow a few ulps
    assert certify_primitive(member(1, 2)).ratio <= _lemma_bound(1, 5) + 1e-9
    assert certify_primitive(member(2, 1)).ratio <= _lemma_bound(2, 17) + 1e-9
    # the bound falls as l grows, toward 8
    assert _lemma_bound(2, 10**40) < _lemma_bound(2, 10**6) < _lemma_bound(2, 17)


def test_failed_crude_ratio_is_a_soundness_alarm(monkeypatch):
    monkeypatch.setattr(primitivity, "_vy_floor", lambda a: 0.1)
    with pytest.raises(AssertionError, match="crude index bound"):
        certify_primitive(member(2, 5))


def test_failed_rank_one_search_is_a_soundness_alarm(monkeypatch):
    # the Selmer cap at l = 2 is 1; any other cap contradicts the search's facts
    monkeypatch.setattr(primitivity, "selmer", lambda ell: SelmerReport((), (), 0, 0, 2))
    with pytest.raises(AssertionError, match=r"\(s,t\)=\(1,1\)"):
        certify_primitive(member(1, 1))
