import io
import random
import time
from math import gcd

import pytest

from hkcert import construction
from hkcert.errors import ConstructionInvariantViolated, SearchExhausted
from hkcert.construction import (
    NoIsometryError,
    check_rank_factor_size,
    choose_t,
    degree_and_mukai,
    find_A,
    find_D,
    find_omega,
    linear_combination,
    mukai_data,
    pushforward_brauer,
    rank_factor,
    rank_factor_min_bits,
    run_pipeline,
    transport,
)
from hkcert.instance import (
    HKInstance,
    b_field_class,
    brauer_equal,
    random_instance,
)
from hkcert.lattice import (
    build_lambda,
    divisibility,
    norm,
    pair,
)
from lattice_reference import dense_form_value, first_hit_reference
from verifier_reference import u3_reversed


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


def test_find_A_and_find_omega_share_the_w_orthogonal_refusal(e2_instance, lam2):
    # one guard, in w_pairings, refuses a W orthogonal to the Picard basis
    # for both searches, whatever their coefficient bounds
    bad = e2_instance.replace(W=lam2.vector([0, 0, 1, -1] + [0] * 19))
    refusals = []
    for search, bound in ((find_A, 3), (find_A, 16), (find_omega, 1), (find_omega, 16)):
        with pytest.raises(SearchExhausted) as exc:
            search(bad, bound)
        refusals.append(str(exc.value))
    with pytest.raises(SearchExhausted) as exc:
        construction.w_pairings(bad)
    assert refusals == [str(exc.value)] * 4


def _reference_find_omega(inst, coeff_bound):
    # the full graded scan that find_omega replaced, kept as its oracle
    w_pairings = [pair(p, inst.W) for p in inst.pic_basis]
    sub_gram = [[pair(a, b) for b in inst.pic_basis] for a in inst.pic_basis]
    coeffs = first_hit_reference(w_pairings, coeff_bound, lambda c: dense_form_value(sub_gram, c) > 0)
    if coeffs is None:
        raise SearchExhausted(f"no hit within coefficient bound {coeff_bound}")
    return linear_combination(inst.lattice, coeffs, inst.pic_basis)


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
    # the slowest rank-4 samples known to the old search, hits of grade 15-32
    for n, seed in ((2, 50000), (3, 50016), (4, 50024)):
        _assert_same_omega(random_instance(n, 4, 3, 3, seed=seed), (16, 1, 2, 3))


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


def test_run_pipeline_b_not_orthogonal_to_pic_is_no_isometry(e2_instance, lam2):
    # B = e2 + f2 + f1 fails only b_orthogonal_pic; the transport ends then
    # differ in norm, which isometry_between refuses
    bad = e2_instance.replace(B=lam2.vector([0, 1, 1, 1] + [0] * 19))
    with pytest.raises(NoIsometryError, match=r"^norm mismatch: 4620 != 4812$"):
        run_pipeline(bad)


def test_run_pipeline_reports_false_pushforward_as_a_check(e2_instance, monkeypatch):
    monkeypatch.setattr(construction, "brauer_equal", lambda a, b: False)
    with pytest.raises(
        ConstructionInvariantViolated, match=r"^pipeline check failed: brauer_pushforward$"
    ):
        run_pipeline(e2_instance)


def test_run_pipeline_reports_false_mukai_identity_as_a_check(e2_instance, monkeypatch):
    exact = construction.mukai_data

    def off_by_one_s(*args):
        r, m, s, H2 = exact(*args)
        return r, m, s + 1, H2

    monkeypatch.setattr(construction, "mukai_data", off_by_one_s)
    _, _, checks = degree_and_mukai(2, 6, 1, 2, 1)
    assert checks[0].name == "mukai_isotropic" and not checks[0].ok
    with pytest.raises(
        ConstructionInvariantViolated, match=r"^pipeline check failed: mukai_isotropic$"
    ):
        run_pipeline(e2_instance)


def test_run_pipeline_refuses_orientation_reversing_sigma(e2_instance, monkeypatch):
    # sigma followed by -1 on U3 still maps the source to the target and has
    # determinant 1, but it reverses the orientation of positive 3-planes
    from hkcert.lattice import Isometry

    exact = construction.isometry_between

    def flipped(v, w, step_budget):
        return Isometry(u3_reversed(exact(v, w, step_budget=step_budget).matrix), v.lattice)

    monkeypatch.setattr(construction, "isometry_between", flipped)
    with pytest.raises(
        ConstructionInvariantViolated, match=r"^pipeline check failed: transport_det$"
    ):
        run_pipeline(e2_instance)


def test_cmd_construct_reports_a_sigma_that_misses_as_a_bug(e2_instance, lam2, monkeypatch, tmp_path):
    # isometry_between does not check its own result: run_pipeline's
    # transport_maps does, once, and construct ends on it with exit 1
    from hkcert import certificate as cert
    from hkcert.cli import EXIT_FAIL, cmd_construct
    from hkcert.lattice import Isometry

    identity = tuple(tuple(int(i == j) for j in range(lam2.rank)) for i in range(lam2.rank))
    monkeypatch.setattr(construction, "_isometry_of_ops", lambda ops, inverse_ops, L: Isometry(identity, L))
    cert.write_json(tmp_path / "e2.json", cert.instance_to_payload(e2_instance))
    out = io.StringIO()
    assert cmd_construct(tmp_path / "e2.json", tmp_path / "e2.cert.json", out=out) == EXIT_FAIL
    assert out.getvalue() == "error: pipeline check failed: transport_maps\n"
    assert not (tmp_path / "e2.cert.json").exists()


def test_pushforward_e2(e2_instance):
    rec = run_pipeline(e2_instance)
    alpha, verdict = pushforward_brauer(e2_instance, rec.sigma, rec.g, rec.t, rec.epsilon)
    assert verdict
    assert brauer_equal(alpha, b_field_class(e2_instance))


def test_pushforward_epsilon_independent(e2_instance):
    src, tgt, sig_p, eps_p, _ = transport(e2_instance, *_dgt(e2_instance), force_epsilon=1)
    _, _, sig_m, eps_m, _ = transport(e2_instance, *_dgt(e2_instance), force_epsilon=-1)
    assert (eps_p, eps_m) == (1, -1)
    assert sig_p.apply(src) == tgt
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


def huge_n_instance(n):
    """Pic = {e1, f1}, W = e1 - f1, B = e2 + f2, d = 1, C0 = 3 on Lambda_n:
    a valid instance whose rank factor n! r^n has r = 96."""
    L = build_lambda(n)
    e1, f1 = L.basis_vector(0), L.basis_vector(1)
    return HKInstance(
        n=n, pic_basis=(e1, f1), W=e1 - f1, B=L.vector([0, 0, 1, 1] + [0] * 19), d=1, C0=3
    )


def test_run_pipeline_refuses_huge_rank_factor_at_once():
    # n! r^n at n = 10^6 has about 2 * 10^7 bits; forming it took 15 s
    start = time.perf_counter()
    with pytest.raises(ValueError, match="rank factor"):
        run_pipeline(huge_n_instance(10**6))
    assert time.perf_counter() - start < 1


def test_rank_factor_size_check_is_a_lower_bound(monkeypatch):
    # with a small cap, every refused (n, r) really has a longer rank factor,
    # and the bound is within 4n bits of it
    cap = 600
    monkeypatch.setattr(construction, "RANK_FACTOR_MAX_BITS", cap)
    refused = 0
    for n in (1, 2, 3, 5, 8, 13, 40, 100, 150):
        for r in (1, 2, 3, 96, 2**40 - 1, 2**40, 10**30):
            bits = rank_factor(n, r).bit_length()
            try:
                check_rank_factor_size(n, r)
            except ValueError:
                refused += 1
                assert bits > cap
            else:
                assert bits <= cap + 4 * n
    assert refused


def test_rank_factor_min_bits_is_a_strict_lower_bound():
    # construct's cap and verify's rank_factor pre-check rely on it
    rng = random.Random(19)
    rs = [1, 2, 3] + [rng.randint(1, 2**rng.randint(1, 80)) for _ in range(20)]
    for n in range(1, 301):
        for r in rs:
            assert rank_factor_min_bits(n, r) < rank_factor(n, r).bit_length()


@pytest.mark.parametrize("k", [200, 600, 1200])
def test_rank_factor_cap_admits_thousand_digit_d(k):
    # d up to 10^k at n = 6, the largest n: a rank factor of about 96 000
    # bits (k = 1200) is far inside the cap, as is every bigint instance
    inst = random_instance(6, 2, 3, 10**k, 5)
    A, omega = find_A(inst), find_omega(inst)
    D, g, _, _ = find_D(inst, A, omega)
    r = mukai_data(inst.n, g, choose_t(inst, D, g), inst.d, inst.e())[0]
    check_rank_factor_size(inst.n, r)
    assert rank_factor(inst.n, r).bit_length() > 75 * k  # r > d^4, d of k digits
