"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import copy
import random
import time
from fractions import Fraction
from math import gcd

from hkcert import certificate as cert
from hkcert.construction import (
    degree_and_mukai,
    run_pipeline,
    transport,
    pushforward_brauer,
    wall_for_record,
)
from hkcert.errors import SearchExhausted
from hkcert.instance import (
    BrauerClass,
    b_field_class,
    brauer_equal,
    random_instance,
)
from hkcert.lattice import (
    RationalClass,
    direct_sum,
    divisibility,
    hyperbolic_plane,
    in_span_plus_lattice,
    norm,
    pair,
    smith_normal_form,
)
from hkcert.obstruction import proportionality_bound
from hkcert.snf import det_bareiss, mat_mul, snf_diagonal


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_worked_instance_e2(e2_instance, lam2):
    start = time.perf_counter()
    rec = run_pipeline(e2_instance)
    wall = wall_for_record(e2_instance, rec)
    elapsed = time.perf_counter() - start

    assert rec.C1 == 1
    assert rec.u == 2
    assert rec.D == lam2.vector([2, 5] + [0] * 20 + [2])      # 2e1 + 5f1 + 2delta
    assert rec.g == 6
    assert rec.t == 1
    assert rec.H2 == 9228
    assert (rec.v0.r, rec.v0.m, rec.v0.s) == (1536, 16, 769)
    assert norm(rec.source) == 4620
    assert norm(rec.target) == 4620
    minus_b_half = BrauerClass(RationalClass(-e2_instance.B, 2), e2_instance.pic_basis)
    assert brauer_equal(rec.alpha_x, minus_b_half)
    assert all(c.ok for c in rec.checks)
    assert wall.tested_a == ((1, 1),) and wall.verdict
    assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"
    _report("worked-instance-E2")


def test_criterion_2_parameter_spot_checks():
    h2, v0, _ = degree_and_mukai(2, 3, 1, 1, 1)
    assert h2 == 366 and (v0.r, v0.m, v0.s) == (48, 4, 61)
    assert v0.self_pairing() == 0
    assert gcd(v0.r, v0.s) == 1
    assert (h2 // 2 + 1) % (4 * 3 * 1 * 1) != 0

    h2, v0, _ = degree_and_mukai(3, 5, 1, 2, 2)
    assert h2 == 12810 and (v0.r, v0.m, v0.s) == (1280, 16, 1281)
    assert v0.self_pairing() == 0
    assert gcd(v0.r, v0.s) == 1
    assert (h2 // 2 + 1) % (4 * 5 * 1 * 4) != 0
    _report("parameter-spot-checks")


def test_criterion_3_property_suite_200_instances():
    start = time.perf_counter()
    rng = random.Random(881)
    successes = 0
    attempts = 0
    while successes < 200 and attempts < 240:
        attempts += 1
        n = rng.choice((2, 3, 4, 5))
        rho = rng.choice((2, 3))
        c0 = rng.choice((3, 4, 5, 6))
        dmax = rng.randint(1, 4)
        try:
            inst = random_instance(n, rho, c0, dmax, seed=30000 + attempts)
            rec = run_pipeline(inst)
        except SearchExhausted:
            continue
        # (i) isotropy
        assert rec.v0.self_pairing() == 0
        # (ii) matching norms, divisibility one
        assert norm(rec.source) == norm(rec.target)
        assert divisibility(rec.source) == 1 and divisibility(rec.target) == 1
        # (iii) exact isometry carrying source to epsilon * target
        assert rec.sigma.apply(rec.source) == rec.epsilon * rec.target
        g = [list(r) for r in inst.lattice.gram]
        m = [list(r) for r in rec.sigma.matrix]
        mt = [list(col) for col in zip(*m)]
        assert mat_mul(mat_mul(mt, g), m) == g
        # (iv) pushed-forward class equals [-B/d]
        assert brauer_equal(rec.alpha_x, b_field_class(inst))
        # (v) epsilon-independence
        _, _, sig_m, _, _ = transport(
            inst, rec.D, rec.g, rec.t, rec.H2, force_epsilon=-rec.epsilon
        )
        assert sig_m.apply(rec.source) == -rec.epsilon * rec.target
        alpha_m, ok_m = pushforward_brauer(inst, sig_m, rec.g, rec.t, -rec.epsilon)
        assert ok_m and brauer_equal(rec.alpha_x, alpha_m)
        # (vi) wall bound and certificate
        assert rec.g > inst.C0 * rec.C1
        assert wall_for_record(inst, rec).verdict
        successes += 1
    elapsed = time.perf_counter() - start
    assert successes >= 200, f"only {successes} successful runs"
    assert elapsed < 60, f"property suite took {elapsed:.1f}s"
    _report(f"property-suite ({successes} instances, {elapsed:.1f}s)")


def test_criterion_4_oracle_equivalence():
    # divisibility vs brute-force pairing gcd, 100 random vectors
    rng = random.Random(5302)
    small = direct_sum(hyperbolic_plane(), hyperbolic_plane(), label="U+U")
    box = []

    def box_vectors(rank, bound):
        if rank == 0:
            yield ()
            return
        for rest in box_vectors(rank - 1, bound):
            for c in range(-bound, bound + 1):
                yield (c,) + rest

    box = list(box_vectors(4, 2))
    done = 0
    while done < 100:
        v = small.vector([rng.randint(-5, 5) for _ in range(4)])
        if v.is_zero():
            continue
        brute = 0
        for coords in box:
            brute = gcd(brute, abs(pair(v, small.vector(coords))))
        assert brute == divisibility(v)
        done += 1

    # SNF identity on 200 random matrices
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        U, D, V = smith_normal_form(M)
        assert mat_mul(mat_mul(U, M), V) == D
        assert det_bareiss(U) in (1, -1) and det_bareiss(V) in (1, -1)
        diag = snf_diagonal(D)
        for a, b in zip(diag, diag[1:]):
            assert (a and b % a == 0) or (a == 0 and b == 0)

    # span membership vs denominator-clearing brute force, rank <= 3 spans
    _span_oracle_block(rng, small)

    # proportionality pairs vs double loop, C0 <= 100
    for c0 in range(1, 101):
        expect = [
            (a, b)
            for a in range(1, c0)
            if a * a < c0
            for b in range(1, c0)
            if b * b < c0 and gcd(a, b) == 1
        ]
        assert proportionality_bound(c0) == expect
    _report("oracle-equivalence")


def _span_oracle_block(rng, small):
    def in_rational_span(x, gens):
        cols = [list(g) for g in gens]
        if not cols:
            return all(c == 0 for c in x)
        rows = len(x)
        M = [
            [Fraction(cols[j][i]) for j in range(len(cols))] + [Fraction(x[i])]
            for i in range(rows)
        ]
        piv = 0
        for col in range(len(cols)):
            hit = next((r for r in range(piv, rows) if M[r][col] != 0), None)
            if hit is None:
                continue
            M[piv], M[hit] = M[hit], M[piv]
            pv = M[piv][col]
            for r in range(rows):
                if r != piv and M[r][col] != 0:
                    f = M[r][col] / pv
                    M[r] = [a - f * b for a, b in zip(M[r], M[piv])]
            piv += 1
        return all(M[r][-1] == 0 for r in range(piv, rows))

    def box_vectors(rank, bound):
        if rank == 0:
            yield ()
            return
        for rest in box_vectors(rank - 1, bound):
            for c in range(-bound, bound + 1):
                yield (c,) + rest

    box = list(box_vectors(4, 3))
    for _ in range(40):
        k = rng.randint(0, 3)
        S = tuple(
            s
            for s in (small.vector([rng.randint(-2, 2) for _ in range(4)]) for _ in range(k))
            if not s.is_zero()
        )
        den = rng.randint(1, 4)
        num = small.vector([rng.randint(-4, 4) for _ in range(4)])
        q = RationalClass(num, den)
        got = in_span_plus_lattice(q, S)
        brute = any(
            in_rational_span(
                [Fraction(c, q.denominator) - m for c, m in zip(q.numerator.coords, mu)],
                [s.coords for s in S],
            )
            for mu in box
        )
        if got:
            # a witness with small entries may sit outside the box only if the
            # class itself is large; re-check membership through the witness
            from hkcert.lattice import span_lattice_witness

            mu = span_lattice_witness(q, S)
            assert mu is not None
            assert in_rational_span(
                [Fraction(c, q.denominator) - m for c, m in zip(q.numerator.coords, mu.coords)],
                [s.coords for s in S],
            )
        else:
            assert not brute


def test_criterion_5_tamper_detection(e2_instance, tmp_path):
    import io

    from hkcert.cli import cmd_verify

    rec = run_pipeline(e2_instance)
    wall = wall_for_record(e2_instance, rec)
    budgets = {"coeff_bound": 16, "u_budget": 10**6, "t_budget": 10**6, "isometry_budget": 10000}
    payload = cert.certificate_payload(e2_instance, rec, wall, budgets)

    def int_paths(node, prefix=()):
        if isinstance(node, dict):
            for k, v in node.items():
                yield from int_paths(v, prefix + (k,))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                yield from int_paths(v, prefix + (i,))
        elif isinstance(node, str):
            try:
                int(node)
            except ValueError:
                return
            yield prefix

    paths = list(int_paths(payload))
    rng = random.Random(424242)
    mutated_file = tmp_path / "mutated.json"
    detected = 0
    for _ in range(500):
        path = rng.choice(paths)
        delta = rng.choice((-7, -3, -1, 1, 2, 5))
        bad = copy.deepcopy(payload)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = str(int(node[path[-1]]) + delta)
        cert.write_json(mutated_file, bad)
        if cmd_verify([str(mutated_file)], out=io.StringIO()) != 0:
            detected += 1
    assert detected == 500, f"only {detected}/500 mutations detected"
    _report("tamper-detection (500/500 via cmd_verify)")
