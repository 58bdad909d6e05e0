import random
from math import gcd

import pytest

from hkcert.errors import SearchExhausted
from hkcert.construction import (
    choose_t,
    degree_and_mukai,
    dual_mukai_check,
    find_A,
    find_D,
    find_omega,
    pushforward_brauer,
    run_pipeline,
    transport,
)
from hkcert.instance import (
    HKInstance,
    b_field_class,
    brauer_equal,
    pic_combination,
    random_instance,
)
from hkcert.lattice import divisibility, graded_coefficient_tuples, norm, pair


def test_find_A_e2(e2_instance, lam2):
    a = find_A(e2_instance)
    assert a == lam2.basis_vector(1)          # f1
    assert divisibility(a) == 1
    assert pair(a, e2_instance.W) == 1


def test_find_A_sign_normalized(lam2):
    # Pic = {e1, f1}, W = e1 - f1: every candidate is flipped into positive pairing
    pic = (lam2.basis_vector(0), lam2.basis_vector(1))
    w = lam2.basis_vector(0) - lam2.basis_vector(1)
    inst = HKInstance(n=2, pic_basis=pic, W=w, B=lam2.vector([0, 0, 1, 1] + [0] * 19), d=1, C0=3)
    a = find_A(inst)
    assert pair(a, w) > 0
    assert divisibility(a) == 1


def test_find_A_exhausted_when_w_orthogonal(e2_instance, lam2):
    # fabricated degenerate input: W orthogonal to the whole Picard span
    bad = e2_instance.replace(W=lam2.vector([0, 0, 1, -1] + [0] * 19))
    with pytest.raises(SearchExhausted):
        find_A(bad, coeff_bound=3)


def test_find_omega_e2(e2_instance, lam2):
    w = find_omega(e2_instance)
    assert w == lam2.vector([1, 2] + [0] * 20 + [1])   # e1 + 2 f1 + delta
    assert pair(w, e2_instance.W) == 0
    assert norm(w) == 2


def test_find_omega_bilinearity(e2_instance):
    a = find_A(e2_instance)
    w = find_omega(e2_instance)
    for u in (1, 2, 5):
        assert pair(a + u * w, e2_instance.W) == pair(a, e2_instance.W)


def test_find_omega_exhausted_when_w_orthogonal(e2_instance, lam2):
    # no coordinate can be solved when every (p_i, W) is zero
    bad = e2_instance.replace(W=lam2.vector([0, 0, 1, -1] + [0] * 19))
    with pytest.raises(SearchExhausted):
        find_omega(bad)


def _reference_find_omega(inst, coeff_bound=16):
    # the full graded scan that find_omega replaced, kept as its oracle
    w_pairings = [pair(p, inst.W) for p in inst.pic_basis]
    sub_gram = [[pair(a, b) for b in inst.pic_basis] for a in inst.pic_basis]
    rho = len(inst.pic_basis)
    for coeffs in graded_coefficient_tuples(rho, coeff_bound):
        if sum(c * w for c, w in zip(coeffs, w_pairings)) != 0:
            continue
        nrm = sum(
            coeffs[i] * coeffs[j] * sub_gram[i][j]
            for i in range(rho)
            for j in range(rho)
        )
        if nrm > 0:
            return pic_combination(inst, coeffs)
    raise SearchExhausted(f"no hit within coefficient bound {coeff_bound}")


def _omega_or_exhausted(search, inst, coeff_bound):
    try:
        return search(inst, coeff_bound)
    except SearchExhausted:
        return SearchExhausted


def _assert_same_omega(inst, bounds):
    for bound in bounds:
        assert _omega_or_exhausted(find_omega, inst, bound) == _omega_or_exhausted(
            _reference_find_omega, inst, bound
        ), bound


def test_find_omega_matches_full_scan_on_acceptance_seeds():
    # the instances of the acceptance property suite (seeds 30000 + attempts)
    rng = random.Random(881)
    checked = exhausted = 0
    for attempt in range(1, 241):
        if checked == 200:
            break
        n, rho, c0 = rng.choice((2, 3, 4, 5)), rng.choice((2, 3)), rng.choice((3, 4, 5, 6))
        dmax = rng.randint(1, 4)
        try:
            inst = random_instance(n, rho, c0, dmax, seed=30000 + attempt)
        except SearchExhausted:
            continue
        _assert_same_omega(inst, (16, 1, 2, 3))
        exhausted += _omega_or_exhausted(find_omega, inst, 1) is SearchExhausted
        checked += 1
    assert checked == 200
    assert exhausted > 0  # small bounds do exercise the exhausted case


def test_find_omega_matches_full_scan_on_rank_4():
    for k in range(1, 8):
        inst = random_instance(2 + k % 4, 4, 3 + k % 4, 1 + k % 3, seed=50000 + k)
        _assert_same_omega(inst, (16, 1, 2, 3))


def test_find_omega_matches_full_scan_with_zero_pairings(lam2):
    e1_delta = lam2.vector([1] + [0] * 21 + [1])
    f1 = lam2.basis_vector(1)
    h2 = lam2.vector([0, 0, 1, 1] + [0] * 19)   # orthogonal to W = e1 + delta
    b = lam2.vector([0, 0, 0, 0, 1, 1] + [0] * 17)
    for pic in ((e1_delta, f1, h2), (h2, e1_delta, f1), (e1_delta, h2, f1)):
        inst = HKInstance(n=2, pic_basis=pic, W=e1_delta, B=b, d=1, C0=3)
        assert 0 in [pair(p, inst.W) for p in pic]
        _assert_same_omega(inst, (16, 1, 2, 3))


def test_find_D_e2(e2_instance, lam2):
    a = find_A(e2_instance)
    om = find_omega(e2_instance)
    D, g, c1, u = find_D(e2_instance, a, om)
    assert u == 2
    assert D == lam2.vector([2, 5] + [0] * 20 + [2])
    assert g == 6 and c1 == 1
    assert divisibility(D) == 1
    assert pair(D, e2_instance.W) == c1
    assert pair(D, e2_instance.B) == 0


def test_find_D_minimality(e2_instance):
    # no u' < u satisfies both the divisibility and the norm bound
    a = find_A(e2_instance)
    om = find_omega(e2_instance)
    D, g, c1, u = find_D(e2_instance, a, om)
    bound = 2 * e2_instance.C0 * c1
    for smaller in range(1, u):
        cand = a + smaller * om
        assert not (divisibility(cand) == 1 and norm(cand) > bound)


def test_find_D_budget(e2_instance):
    a = find_A(e2_instance)
    om = find_omega(e2_instance)
    with pytest.raises(SearchExhausted):
        find_D(e2_instance, a, om, u_budget=1)


def test_choose_t_e2(e2_instance, lam2):
    D = lam2.vector([2, 5] + [0] * 20 + [2])
    assert choose_t(e2_instance, D, 6) == 1
    v = D + 4 * 6 * 1 * e2_instance.d * e2_instance.B
    assert divisibility(v) == 1


def test_degree_and_mukai_spot_checks():
    h2, v0, checks = degree_and_mukai(2, 3, 1, 1, 1)
    assert (h2, v0.r, v0.m, v0.s) == (366, 48, 4, 61)
    assert 16 * 366 - 2 * 48 * 61 == 0
    assert gcd(48, 61) == 1
    assert 184 % 12 != 0

    h2, v0, _ = degree_and_mukai(2, 6, 1, 2, 1)
    assert (h2, v0.r, v0.m, v0.s) == (9228, 1536, 16, 769)
    assert gcd(1536, 769) == 1
    assert 4615 % 96 != 0

    h2, v0, _ = degree_and_mukai(3, 5, 1, 2, 2)
    assert (h2, v0.r, v0.m, v0.s) == (12810, 1280, 16, 1281)
    assert v0.self_pairing() == 0


def test_degree_and_mukai_random_identities():
    rng = random.Random(64)
    for _ in range(100):
        n, g, t, d, e = (rng.randint(2, 6), rng.randint(2, 40), rng.randint(1, 4),
                         rng.randint(1, 4), rng.randint(1, 9))
        h2, v0, checks = degree_and_mukai(n, g, t, d, e)
        assert v0.self_pairing() == 0
        assert gcd(v0.r, v0.s) == 1
        assert (h2 // 2 + 1) % (4 * g * t * d * d) != 0
        assert all(c.ok for c in checks)


def test_degree_and_mukai_rejects_bad_params():
    with pytest.raises(ValueError):
        degree_and_mukai(1, 3, 1, 1, 1)
    with pytest.raises(ValueError):
        degree_and_mukai(2, 0, 1, 1, 1)


def test_dual_mukai_examples():
    _, v0, _ = degree_and_mukai(2, 6, 1, 2, 1)
    res = dual_mukai_check(v0, 16, 2, 6, 1, 2, 1)
    assert res.accept and res.s_hat == 769
    res = dual_mukai_check(v0, 8, 2, 6, 1, 2, 1)
    assert not res.accept and res.s_hat is None and "divide" in res.reason
    res = dual_mukai_check(v0, 32, 2, 6, 1, 2, 1)
    assert not res.accept and res.s_hat == 4 * 769 and "gcd" in res.reason


def test_transport_e2(e2_instance):
    rec = run_pipeline(e2_instance)
    assert norm(rec.source) == 9228 - 48 * 48 * 2 == 4620
    assert norm(rec.target) == 12 + 48 * 48 * 2 == 4620
    assert divisibility(rec.source) == 1
    assert rec.sigma.apply(rec.source) == rec.epsilon * rec.target


def test_transport_identity_random():
    # H2 - (2gtd^2)^2 (2n-2) = 2g + (4gtd)^2 * 2e, exactly
    rng = random.Random(12)
    for _ in range(200):
        n, g, t, d, e = (rng.randint(2, 6), rng.randint(2, 50), rng.randint(1, 5),
                         rng.randint(1, 5), rng.randint(1, 12))
        h2, _, _ = degree_and_mukai(n, g, t, d, e)
        lhs = h2 - (2 * g * t * d * d) ** 2 * (2 * n - 2)
        rhs = 2 * g + (4 * g * t * d) ** 2 * 2 * e
        assert lhs == rhs


def test_pushforward_e2(e2_instance):
    rec = run_pipeline(e2_instance)
    alpha, verdict = pushforward_brauer(e2_instance, rec.sigma, rec.g, rec.t, rec.epsilon)
    assert verdict
    assert brauer_equal(alpha, b_field_class(e2_instance))


def test_pushforward_epsilon_independent(e2_instance):
    src, tgt, sig_p, eps_p = transport(e2_instance, *_dgt(e2_instance), force_epsilon=1)
    _, _, sig_m, eps_m = transport(e2_instance, *_dgt(e2_instance), force_epsilon=-1)
    assert (eps_p, eps_m) == (1, -1)
    assert sig_m.apply(src) == -tgt
    a_p, ok_p = pushforward_brauer(e2_instance, sig_p, 6, 1, 1)
    a_m, ok_m = pushforward_brauer(e2_instance, sig_m, 6, 1, -1)
    assert ok_p and ok_m
    assert brauer_equal(a_p, a_m)


def _dgt(inst):
    a = find_A(inst)
    om = find_omega(inst)
    D, g, c1, u = find_D(inst, a, om)
    t = choose_t(inst, D, g)
    h2, _, _ = degree_and_mukai(inst.n, g, t, inst.d, inst.e())
    return D, g, t, h2


def test_pushforward_integral_b_gives_zero_class(lam2):
    pic = (lam2.vector([1] + [0] * 21 + [1]), lam2.basis_vector(1))
    inst = HKInstance(
        n=2, pic_basis=pic, W=pic[0], B=lam2.vector([0, 0, 1, 1] + [0] * 19), d=1, C0=3
    )
    rec = run_pipeline(inst)
    from hkcert.instance import BrauerClass
    from hkcert.lattice import RationalClass

    zero = BrauerClass(RationalClass(lam2.zero(), 1), pic)
    assert brauer_equal(rec.alpha_x, zero)


def test_pipeline_e1_style_unreachable_g3(lam2):
    # with an even lattice, -W^2 >= 2 forces C0 >= 3 and hence g >= 4; the
    # g = 3 parameter point exists only as a degree_and_mukai spot check
    pic = (lam2.vector([1] + [0] * 21 + [1]), lam2.basis_vector(1))
    inst = HKInstance(
        n=2, pic_basis=pic, W=pic[0], B=lam2.vector([0, 0, 1, 1] + [0] * 19), d=1, C0=3
    )
    rec = run_pipeline(inst)
    assert rec.g > 3


def test_pipeline_on_random_instances():
    rng = random.Random(777)
    done = 0
    for i in range(40):
        n = rng.choice((2, 3))
        try:
            inst = random_instance(n, 2, rng.choice((3, 4, 5)), 3, seed=9000 + i)
            rec = run_pipeline(inst)
        except SearchExhausted:
            continue
        assert rec.v0.self_pairing() == 0
        assert rec.g > inst.C0 * rec.C1
        assert pair(rec.D, inst.W) == rec.C1
        assert pair(rec.D, inst.B) == 0
        assert rec.rk_un > 0
        done += 1
    assert done >= 30
