"""Saturation-index certificates: the crude height-ratio lemma, its
asserted preconditions, a brute-force no-small-multiple cross-check, and
the per-process memo of ln s^2."""

import json
import math
import sys

import pytest

from ellcert import primitivity
from ellcert.arith import is_square, kth_power_free
from ellcert.certify import certificate_to_jsonl, certify_divisibility, member
from ellcert.cli import main as cli_main
from ellcert.curve import (
    base_point, make_family, point, rational_points_up_to_height, smul, translate_by_torsion,
)
from ellcert.errors import PreconditionFailure
from ellcert.heights import _vy_log2_coeff, log_int_bounds
from ellcert.primitivity import certify_primitive


@pytest.mark.parametrize("s,t", [(1, 2), (2, 5), (3, 10), (2, 75)])
def test_height_ratio_route(s, t):
    assert certify_primitive(member(s, t)) < 9.0


def test_worst_family_ratio_frozen():
    # (2, 2) maximizes hhat_hi / floor over the small parameter box
    assert abs(certify_primitive(member(2, 2)) - 8.6169) < 1e-3


@pytest.mark.parametrize(
    "s,t",
    [
        (1, 1),  # l = 2
        (2, 3),  # l = 25, a square
        (1, 182),  # l = 33125 = 5^4 * 53
    ],
)
def test_unreachable_members_are_soundness_alarms(s, t):
    """Members outside the lemma's preconditions, which every certifier
    refuses before asking for primitivity."""
    with pytest.raises(AssertionError, match=rf"\(s,t\)=\({s},{t}\)"):
        certify_primitive(member(s, t))


@pytest.mark.parametrize(
    "s,t,reason",
    [
        (0, 5, "degenerate-parameters"),
        (1, 0, "degenerate-parameters"),
        (-2, 5, "degenerate-parameters"),  # refused before the assertion
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
    p0 = point(c, *base_point(s, t))
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
            # c(-l) in units of log 2 / 16: 5/16 or 9/16
            assert _vy_log2_coeff(-ell) in (5, 9), (s, t)
            ratio = certify_primitive(member(s, t))
            assert ratio <= _lemma_bound(s, ell) + 1e-9, (s, t)
            worst = max(worst, ratio)
    assert eligible == 2993
    assert worst == certify_primitive(member(2, 2)) < 8.62


def test_crude_ratio_lemma_closed_form():
    # s = 1 from l = 5 up, and s >= 2 from l = 17 up (the smallest l of each)
    assert _lemma_bound(1, 5) < 7.7
    assert _lemma_bound(2, 17) < 8.78
    # the computed ratios round outward, so allow a few ulps
    assert certify_primitive(member(1, 2)) <= _lemma_bound(1, 5) + 1e-9
    assert certify_primitive(member(2, 1)) <= _lemma_bound(2, 17) + 1e-9
    # the bound falls as l grows, toward 8
    assert _lemma_bound(2, 10**40) < _lemma_bound(2, 10**6) < _lemma_bound(2, 17)


def test_failed_crude_ratio_is_a_soundness_alarm(monkeypatch):
    monkeypatch.setattr(primitivity, "_vy_floor", lambda a, ln_a_lo: 0.1)
    with pytest.raises(AssertionError, match="crude index bound"):
        certify_primitive(member(2, 5))



def _grid_outcomes(pairs):
    """Record or refusal reason of ``certify_divisibility`` at each pair."""
    out = []
    for s, t, p in pairs:
        try:
            out.append(certificate_to_jsonl(certify_divisibility(s, t, p, 1)))
        except PreconditionFailure as exc:
            out.append(exc.reason)
    return out


def test_ln_s_squared_memo_leaves_records_unchanged():
    """The memo is a pure function of s: certificates over s, t <= 60 and
    p in {5, 7, 13} agree with it cleared, warm, and filled in reverse."""
    pairs = [(s, t, p) for p in (5, 7, 13) for s in range(1, 61) for t in range(1, 61)]
    memo = primitivity._ln_s_squared_hi
    memo.cache_clear()
    cold = _grid_outcomes(pairs)
    assert memo.cache_info().misses > 1
    warm = _grid_outcomes(pairs)
    memo.cache_clear()
    backwards = _grid_outcomes(pairs[::-1])[::-1]
    assert cold == warm == backwards
    assert sum(line.startswith("{") for line in cold) > 100
    # the memo holds exactly what a fresh call gives
    for s in range(2, 61):
        assert memo(s) == log_int_bounds(s * s)[1]


def test_ln_s_squared_memo_is_bounded():
    assert primitivity._ln_s_squared_hi.cache_info().maxsize == 4096


def test_p13_search_takes_no_decimal_log(monkeypatch, tmp_path, capsys):
    """A p13 search runs with ``decimal`` unimportable, and takes one
    ``log_int_bounds`` per distinct s > 1, from the ln s^2 memo: ln l and
    ln 64 l^3 come from one integer enclosure per member.  With ln s^2
    from a Decimal log it took 371 of those; with two 50-digit logs per
    certificate as well it would take 2,585."""
    calls = []
    real = primitivity.log_int_bounds
    monkeypatch.setitem(sys.modules, "decimal", None)
    monkeypatch.setattr(primitivity, "log_int_bounds", lambda n: calls.append(n) or real(n))
    primitivity._ln_s_squared_hi.cache_clear()
    out = tmp_path / "p13.jsonl"
    argv = ["search", "--mode", "main", "--p", "13", "--max-param", "400",
            "--workers", "1", "--out", str(out)]
    assert cli_main(argv) == 0
    capsys.readouterr()
    records = out.read_text().splitlines()
    distinct_s = {json.loads(line)["subject"]["s"] for line in records} - {"1"}
    assert (len(records), len(distinct_s)) == (1107, 371)
    assert sorted(calls) == sorted(int(s) ** 2 for s in distinct_s)
