"""Two-isogeny descent machinery: torsor bookkeeping, local solubility
against the known residue tables, Selmer groups, and the rank-1 pipeline."""

import itertools

import pytest

from ellcert import descent
from ellcert.arith import REAL, is_prime
from ellcert.curve import INFINITY, base_point, make_family, on_curve, point
from ellcert.descent import (
    Torsor,
    _soluble_at_two,
    _soluble_at_two_class,
    certify_rank_one,
    locally_soluble,
    make_torsors,
    rank_bound_by_residue,
    search_torsor_point,
    selmer,
    two_isogeny,
)
from ellcert.errors import PreconditionFailure

PRIMES_TO_400 = [q for q in range(3, 401, 2) if is_prime(q)]


def test_two_isogeny_frozen():
    c = make_family(1, 2)
    image_curve, image_pt = two_isogeny(c, base_point(c))
    assert image_curve.a == 20
    assert image_pt is not None and (image_pt.x, image_pt.y) == (4, -12)
    assert on_curve(image_curve, image_pt)
    _, kernel_image = two_isogeny(c, point(c, 0, 0))
    assert kernel_image is None
    _, inf_image = two_isogeny(c, INFINITY)
    assert inf_image is None


def test_make_torsors_shapes():
    ts = make_torsors(5)
    assert len(ts) == 16  # +-{1, 2, 5, 10} on each side
    for t in ts:
        if t.side == "forward":
            assert t.alpha * t.beta == 4 * 5
        else:
            assert t.alpha * t.beta == -16 * 5
        assert t.alpha == t.d
    assert len(make_torsors(2)) == 8  # classes collapse to +-{1, 2}
    with pytest.raises(PreconditionFailure):
        make_torsors(9)


def _torsor(ts, side, d):
    (t,) = [t for t in ts if t.side == side and t.d == d]
    return t


def test_real_place():
    ts = make_torsors(5)
    assert not locally_soluble(_torsor(ts, "forward", -1), REAL)
    assert not locally_soluble(_torsor(ts, "forward", -2), REAL)
    assert locally_soluble(_torsor(ts, "forward", 1), REAL)
    # dual -1 has beta = 16 l > 0, so the real place never obstructs it
    assert locally_soluble(_torsor(ts, "dual", -1), REAL)


def test_forward_two_class_at_two_table():
    # known residue rule: soluble at 2 exactly for l = +-1, 7 mod 16
    for ell in PRIMES_TO_400:
        t = _torsor(make_torsors(ell), "forward", 2)
        assert locally_soluble(t, 2) == (ell % 16 in (1, 7, 15)), ell


def test_dual_minus_one_at_two_table():
    # insoluble at 2 exactly for l = 3 mod 4 together with l = 13 mod 16
    for ell in PRIMES_TO_400:
        t = _torsor(make_torsors(ell), "dual", -1)
        expected_insoluble = ell % 4 == 3 or ell % 16 == 13
        assert locally_soluble(t, 2) != expected_insoluble, ell


def test_dual_even_classes_die_at_two():
    for ell in [q for q in PRIMES_TO_400 if q <= 100]:
        ts = make_torsors(ell)
        for d in (2, -2, 2 * ell, -2 * ell):
            assert not locally_soluble(_torsor(ts, "dual", d), 2), (ell, d)


# signed representatives +-2^k r of Q_2^*/(Q_2^*)^4, k < 4, r odd < 16
SIGNED_CLASS_REPS = [sgn * (r << k) for sgn in (1, -1) for k in range(4) for r in range(1, 16, 2)]
# odd 4th powers times units = 1 mod 16: each is a 2-adic 4th power
FOURTH_POWER_MULTIPLIERS = [3**4 * 17, 5**4 * 33, 7**4 * 49, 3**4 * 5**4 * 65]


def test_two_adic_verdict_depends_only_on_fourth_power_classes():
    # the cached verdict on a non-representative member of each class must
    # match the uncached algorithm run on that member itself
    pairs = itertools.product(SIGNED_CLASS_REPS, repeat=2)
    for i, (a, b) in enumerate(pairs):
        alpha = a * FOURTH_POWER_MULTIPLIERS[i % 4]
        beta = b * FOURTH_POWER_MULTIPLIERS[(i // 4) % 4]
        if a % 2 and b % 2:
            alpha *= 2**4  # exercise the valuation reduction where it is cheap
        uncached = _soluble_at_two_class.__wrapped__(alpha, beta)
        assert _soluble_at_two(alpha, beta) == uncached, (a, b)


@pytest.mark.parametrize("alpha,beta,name", [(0, 5, "alpha"), (5, 0, "beta")])
def test_zero_coefficient_at_two_is_named(alpha, beta, name):
    with pytest.raises(ValueError, match=f"coefficient {name} is 0"):
        locally_soluble(Torsor("forward", 1, 5, alpha, beta), 2)


def test_selmer_proves_ell_prime_once(monkeypatch):
    # make_torsors proves ell prime; the local tests must not re-prove it
    calls = []
    monkeypatch.setattr(descent, "is_prime", lambda n: calls.append(n) or is_prime(n))
    assert selmer(1009).rank_upper == rank_bound_by_residue(1009)
    assert calls == [1009, 1009]  # make_torsors, rank_bound_by_residue


def test_locally_soluble_rejects_composite_place():
    with pytest.raises(ValueError, match="not prime or REAL"):
        locally_soluble(make_torsors(5)[0], 15)


def test_found_points_imply_local_solubility():
    # any torsor with an actual rational point must pass every local test
    for ell in (5, 13, 41, 73):
        for t in make_torsors(ell):
            witness = search_torsor_point(t, 12)
            if witness is None:
                continue
            u, v, w = witness
            assert w * w == t.alpha * u**4 + t.beta * v**4
            places = (REAL, 2) if ell == 2 else (REAL, ell, 2)
            for place in places:
                assert locally_soluble(t, place), (ell, t.side, t.d, place)


def test_known_global_points_found():
    ts = make_torsors(5)
    fwd = search_torsor_point(_torsor(ts, "forward", 5), 8)
    assert fwd is not None
    dual = search_torsor_point(_torsor(ts, "dual", -5), 8)
    assert dual is not None


def test_selmer_frozen_cases():
    rep = selmer(5)
    assert set(rep.sel_forward) == {1, 5}
    assert set(rep.sel_dual) == {1, -1, 5, -5}
    assert (rep.dim_forward, rep.dim_dual, rep.rank_upper) == (1, 2, 1)

    rep = selmer(17)
    assert set(rep.sel_forward) == {1, 2, 17, 34}
    assert rep.rank_upper == 2

    assert selmer(3).rank_upper == 0
    assert selmer(41).rank_upper == 1

    rep = selmer(2)
    assert (rep.dim_forward, rep.dim_dual) == (1, 2)


def test_selmer_closed_under_product():
    for ell in (5, 17, 41, 97):
        rep = selmer(ell)
        for group in (rep.sel_forward, rep.sel_dual):
            classes = set(group)
            for d1 in classes:
                for d2 in classes:
                    prod = d1 * d2
                    # reduce modulo squares back into +-{1, 2, l, 2l}
                    for sq in (1, 4, ell * ell, 4 * ell * ell):
                        if prod % sq == 0 and abs(prod // sq) in (1, 2, ell, 2 * ell):
                            prod //= sq
                    assert prod in classes, (ell, d1, d2)


def test_residue_prediction_table():
    assert rank_bound_by_residue(3) == 0
    assert rank_bound_by_residue(11) == 0
    assert rank_bound_by_residue(13) == 0
    assert rank_bound_by_residue(5) == 1
    assert rank_bound_by_residue(41) == 1
    assert rank_bound_by_residue(2) == 1
    assert rank_bound_by_residue(17) == 2
    assert rank_bound_by_residue(97) == 2
    with pytest.raises(PreconditionFailure):
        rank_bound_by_residue(15)


def test_certify_rank_one():
    rc = certify_rank_one(2, 5)
    assert (rc.ell, rc.rank, rc.ell_mod_16) == (41, 1, 9)
    assert rc.base_point_nontorsion
    assert certify_rank_one(4, 5).ell == 281
    assert certify_rank_one(2, 75).ell == 5641


@pytest.mark.parametrize(
    "s,t,reason",
    [
        (3, 10, "s-not-even-positive"),
        (0, 5, "s-not-even-positive"),
        (2, 7, "t-residue"),
        (2, 1, "t-residue"),
        (2, 3, "ell-not-prime"),  # 16 + 9 = 25
    ],
)
def test_certify_rank_one_refusals(s, t, reason):
    with pytest.raises(PreconditionFailure) as err:
        certify_rank_one(s, t)
    assert err.value.reason == reason
