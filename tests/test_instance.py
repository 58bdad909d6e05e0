import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from hkcert import construction, sampler, snf
from hkcert.errors import SearchExhausted
from hkcert.construction import (
    form_evaluator,
    gram_of,
    normalize_brauer,
    orthogonal_complement_basis,
)
from hkcert.instance import (
    BrauerClass,
    HKInstance,
    MukaiVector,
    b_field_class,
    brauer_equal,
    mukai_data,
    pic_coordinates,
    validate_instance,
)
from hkcert.lattice import DELTA_INDEX, RationalClass, build_lambda, norm, pair
from hkcert.sampler import _kernel_has_bounded_positive, _saturated, _try_sample, random_instance
from lattice_reference import (
    dense_form_value,
    kernel_has_bounded_positive,
    orthogonal_complement_basis as dense_complement_basis,
    saturated_by_snf,
)
from test_sampler_stream import CELLS


def failing(inst):
    return [c.name for c in validate_instance(inst) if not c.ok]


def test_e2_all_pass(e2_instance):
    assert failing(e2_instance) == []


def test_w_not_primitive(e2_instance):
    bad = e2_instance.replace(W=2 * e2_instance.W)
    assert "w_primitive" in failing(bad)


def test_b_not_orthogonal(e2_instance, lam2):
    bad = e2_instance.replace(B=lam2.basis_vector(0))
    names = failing(bad)
    assert "b_orthogonal_pic" in names


def test_w_outside_pic(e2_instance, lam2):
    bad = e2_instance.replace(W=lam2.vector([0, 0, 1, -1] + [0] * 19))
    assert "w_in_pic" in failing(bad)


def test_w_norm_out_of_bound(e2_instance):
    bad = e2_instance.replace(C0=2)   # -W^2 = 2 is not < 2
    assert "w_norm_bound" in failing(bad)


def test_pic_not_saturated(lam2):
    p1 = lam2.vector([2] + [0] * 22)
    p2 = lam2.basis_vector(1)
    inst = HKInstance(n=2, pic_basis=(p1, p2), W=p2, B=lam2.vector([0, 0, 1, 1] + [0] * 19), d=1, C0=3)
    assert "pic_saturated" in failing(inst)


def test_pic_rank_one_flagged(lam2):
    p1 = lam2.vector([1] + [0] * 21 + [1])
    inst = HKInstance(n=2, pic_basis=(p1,), W=p1, B=lam2.vector([0, 0, 1, 1] + [0] * 19), d=1, C0=3)
    assert "pic_rank" in failing(inst)


def test_zero_b_field_rejected(e2_instance, lam2):
    # a vanishing B-field never reaches the pipeline
    bad = e2_instance.replace(B=lam2.zero())
    names = failing(bad)
    assert "b_primitive" in names and "b_norm_positive" in names


def test_pic_coordinates(e2_instance):
    w = e2_instance.W
    assert pic_coordinates(e2_instance, w) == [1, 0]
    out = e2_instance.lattice.basis_vector(4)
    assert pic_coordinates(e2_instance, out) is None


# --- Brauer classes ----------------------------------------------------------

def test_brauer_integral_class_is_zero(e2_instance, lam2):
    pic = e2_instance.pic_basis
    beta = lam2.vector([0, 0, 3, -2, 1] + [0] * 18)
    a = BrauerClass(RationalClass(beta, 1), pic)
    zero = BrauerClass(RationalClass(lam2.zero(), 1), pic)
    assert brauer_equal(a, zero)


def test_brauer_differ_by_picard_class(e2_instance, lam2):
    pic = e2_instance.pic_basis
    delta = lam2.basis_vector(22)
    f1 = lam2.basis_vector(1)
    a = BrauerClass(RationalClass(delta, 2), pic)
    b = BrauerClass(RationalClass(delta + 2 * f1, 2), pic)
    assert brauer_equal(a, b)


def test_brauer_distinct(e2_instance, lam2):
    pic = e2_instance.pic_basis
    a = BrauerClass(RationalClass(lam2.vector([0, 0, 1, 1] + [0] * 19), 2), pic)
    zero = BrauerClass(RationalClass(lam2.zero(), 1), pic)
    assert not brauer_equal(a, zero)


def test_brauer_context_mismatch(e2_instance, lam2):
    a = BrauerClass(RationalClass(lam2.zero(), 1), e2_instance.pic_basis)
    b = BrauerClass(RationalClass(lam2.zero(), 1), (lam2.basis_vector(0),))
    with pytest.raises(ValueError):
        brauer_equal(a, b)


def test_brauer_equivalence_relation(e2_instance, lam2):
    # reflexive, symmetric, transitive over random representatives
    rng = random.Random(99)
    pic = e2_instance.pic_basis
    classes = []
    for _ in range(12):
        num = lam2.vector([rng.randint(-3, 3) for _ in range(23)])
        classes.append(BrauerClass(RationalClass(num, rng.randint(1, 4)), pic))
    for a in classes:
        assert brauer_equal(a, a)
    for a in classes[:6]:
        for b in classes[:6]:
            assert brauer_equal(a, b) == brauer_equal(b, a)
    for a in classes[:4]:
        for b in classes[:4]:
            for c in classes[:4]:
                if brauer_equal(a, b) and brauer_equal(b, c):
                    assert brauer_equal(a, c)


# --- normalization -----------------------------------------------------------

def test_normalize_noop_when_positive(e2_instance):
    assert normalize_brauer(e2_instance) is e2_instance


def test_normalize_pinned_example(e2_instance, lam2):
    # B = e2 - f2 has norm -2; the documented search shifts by -2 f2
    neg = e2_instance.replace(B=lam2.vector([0, 0, 1, -1] + [0] * 19), d=1)
    out = normalize_brauer(neg)
    assert out.B == lam2.vector([0, 0, 1, 1] + [0] * 19)
    assert norm(out.B) == 2


def test_normalize_preserves_class(e2_instance, lam2):
    neg = e2_instance.replace(B=lam2.vector([0, 0, 1, -1] + [0] * 19), d=1)
    out = normalize_brauer(neg)
    assert norm(out.B) > 0
    assert brauer_equal(b_field_class(neg), b_field_class(out))


def test_normalize_preserves_class_d2(e2_instance, lam2):
    neg = e2_instance.replace(B=lam2.vector([0, 0, 2, -1] + [0] * 19))
    assert norm(neg.B) < 0
    out = normalize_brauer(neg)
    assert norm(out.B) > 0
    assert brauer_equal(b_field_class(neg), b_field_class(out))
    assert all(c.ok for c in validate_instance(out))


def test_normalize_exhausted_when_the_complement_is_negative(e2_instance, lam2):
    # Pic = U^3 + E8(-1)^2 leaves the complement <delta>, and each shift
    # (1 - c) delta of B = delta has norm -2 (1 - c)^2 <= 0, so the scan
    # tries the 16 nonzero c in [-8, 8] and gives up
    delta = lam2.basis_vector(DELTA_INDEX)
    pic = [lam2.basis_vector(i) for i in range(DELTA_INDEX)]
    assert orthogonal_complement_basis(lam2, pic) == [delta]
    with pytest.raises(SearchExhausted) as exc:
        normalize_brauer(e2_instance.replace(pic_basis=pic, B=delta, d=1))
    assert str(exc.value) == (
        "no orthogonal shift with positive norm within coefficient bound 8 (16 candidates tried)"
    )


# --- generator ---------------------------------------------------------------

def test_random_instance_deterministic():
    a = random_instance(2, 2, 3, 3, seed=7)
    b = random_instance(2, 2, 3, 3, seed=7)
    assert a == b
    c = random_instance(2, 2, 3, 3, seed=8)
    assert a != c


def test_random_instance_rejects_rank_one():
    with pytest.raises(ValueError):
        random_instance(2, 1, 3, 3, seed=1)
    with pytest.raises(ValueError):
        random_instance(7, 2, 3, 3, seed=1)


def test_random_instance_is_forwarded_from_the_sampler():
    import hkcert.instance

    assert hkcert.instance.random_instance is sampler.random_instance
    with pytest.raises(AttributeError, match="'no_such_name'"):
        hkcert.instance.no_such_name


def test_instance_import_loads_neither_sampler_nor_construction():
    # the forwarder imports hkcert.sampler on first use only
    from test_certificate import loaded_modules

    loaded = loaded_modules("import hkcert.instance")
    assert "hkcert.instance" in loaded
    assert loaded & {"hkcert.sampler", "hkcert.construction"} == set()


def test_random_instances_valid_200_seeds():
    rng = random.Random(314)
    for i in range(200):
        n = rng.choice((2, 3, 4, 5))
        rho = rng.choice((2, 3))
        c0 = rng.choice((3, 4, 5, 6))
        dmax = rng.randint(1, 4)
        try:
            inst = random_instance(n, rho, c0, dmax, seed=5000 + i)
        except SearchExhausted:
            continue
        assert all(c.ok for c in validate_instance(inst))
        assert 0 < -norm(inst.W) < inst.C0
        assert 1 <= inst.d <= dmax
        # orthogonality of B against the Picard span, wall class included
        assert pair(inst.B, inst.W) == 0
        for p in inst.pic_basis:
            assert pair(inst.B, p) == 0


class _ScriptedRng:
    """A stand-in for random.Random whose randint and sample return scripted
    values."""

    def __init__(self, values):
        self.values = iter(values)
        self.calls = 0

    def randint(self, a, b):
        self.calls += 1
        return next(self.values)

    def sample(self, population, k):
        self.calls += 1
        return next(self.values)


@pytest.mark.parametrize("rho, zero_at", [(2, 0), (2, 1), (3, 2)])
def test_try_sample_rejects_zero_picard_vector(lam2, rho, zero_at):
    # one draw per support index for each Picard vector, then a rejection
    # before any further draw: the stream of later samples is unchanged
    draws = []
    for k in range(rho):
        draws += [0] * 5 if k == zero_at else [1, k, 0, 1, 1]
    rng = _ScriptedRng(draws)
    assert _try_sample(rng, lam2, 2, rho, 3, 3) is None
    assert rng.calls == 5 * rho


def test_try_sample_rebuilds_the_worked_instance_without_find_a(lam2, e2_instance, monkeypatch):
    # draws that build the worked instance: Picard vectors e1 + delta and f1,
    # W = 1 * p1 + 0 * p2, B = e2 + f2 (two complement vectors at
    # coefficient 1) and d = 2.  The sampler runs no construct stage: a
    # stand-in find_A fails if it is called
    def find_A(inst, coeff_bound):
        raise AssertionError("the sampler ran find_A")

    monkeypatch.setattr(construction, "find_A", find_A)
    assert not hasattr(sampler, "find_A")
    rng = _ScriptedRng([1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 2, [1, 2], 1, 1, 2])
    assert _try_sample(rng, lam2, 2, 2, 3, 3) == e2_instance
    assert rng.calls == 17


# --- the sampler's feasibility and saturation tests ------------------------

_SIGNS = {
    "definite": lambda rho: [1] * rho,
    "negative": lambda rho: [-1] * rho,
    "indefinite": lambda rho: [1] + [-1] * (rho - 1),
    "degenerate": lambda rho: [1] + [-1] * (rho - 2) + [0],
}


@st.composite
def _feasibility_cases(draw):
    # sub-Grams A^T S A for a sign pattern S (a singular A makes any of them
    # degenerate too) or plain symmetric; weights with zero entries, all zero
    # only below rank 4, where the reference scans 25^rho tuples
    rho = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(sorted(_SIGNS) + ["symmetric"]))
    if kind == "symmetric":
        gram = [[0] * rho for _ in range(rho)]
        for i in range(rho):
            for j in range(i, rho):
                gram[i][j] = gram[j][i] = draw(st.integers(-12, 12))
    else:
        a = [[draw(st.integers(-3, 3)) for _ in range(rho)] for _ in range(rho)]
        s = _SIGNS[kind](rho)
        gram = [
            [sum(a[k][i] * s[k] * a[k][j] for k in range(rho)) for j in range(rho)]
            for i in range(rho)
        ]
    top = draw(st.sampled_from((4, 40)))
    weights = draw(
        st.lists(st.one_of(st.just(0), st.integers(-top, top)), min_size=rho, max_size=rho)
        .filter(lambda w: rho < 4 or any(w))
    )
    return kind, gram, weights


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_feasibility_cases())
def test_feasibility_interval_test_matches_scan(case):
    kind, gram, weights = case
    got = _kernel_has_bounded_positive(gram, weights)
    assert got == kernel_has_bounded_positive(gram, weights)
    if kind == "negative":
        assert not got  # a negative semidefinite form has no positive value


def test_feasibility_interval_test_edge_cases():
    cases = [
        ([[1]], [3], False),  # rank 1: no kernel
        ([[0, 1], [1, 0]], [0, 0], True),  # zero weights: the whole box
        ([[-1, 0], [0, -1]], [0, 0], False),
        # the kernel is spanned by (1, w): inside |c| <= 16 only up to w = 16
        ([[1, 0], [0, 1]], [16, -1], True),
        ([[1, 0], [0, 1]], [17, -1], False),
        # the kernel of (1, 0, 0) is spanned by e2, e3, the last of them the
        # line's step; y^2 - (x - m y)^2 is positive on (x, y) = +-(m, 1)
        # only, inside the kernel box [-12, 12] up to m = 12
        ([[-1, 0, 0], [0, -1, 12], [0, 12, -143]], [1, 0, 0], True),
        ([[-1, 0, 0], [0, -143, 12], [0, 12, -1]], [1, 0, 0], True),
        ([[-1, 0, 0], [0, -1, 13], [0, 13, -168]], [1, 0, 0], False),
        ([[-1, 0, 0], [0, -168, 13], [0, 13, -1]], [1, 0, 0], False),
    ]
    for gram, weights, expected in cases:
        assert _kernel_has_bounded_positive(gram, weights) == expected
        assert kernel_has_bounded_positive(gram, weights) == expected


def _add_column(rows, src, dst, c):
    for row in rows:
        row[dst] += c * row[src]


@st.composite
def _support_matrices(draw):
    # 5 x rho support matrices: dependent columns (minors' gcd 0), a column
    # basis change of determinant k >= 2 (gcd divisible by k), or an
    # identity block under a unimodular change (gcd 1), rows shuffled
    rho = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(("random", "dependent", "unsaturated", "saturated")))
    rows = [[draw(st.integers(-3, 3)) for _ in range(rho)] for _ in range(5)]
    if kind == "saturated":
        for i in range(rho):
            rows[i] = [int(i == j) for j in range(rho)]
    if kind == "dependent":
        for row in rows:
            row[-1] = 0
        for src in range(rho - 1):
            _add_column(rows, src, rho - 1, draw(st.integers(-3, 3)))
    elif kind == "unsaturated":
        k = draw(st.integers(2, 5))
        for row in rows:
            row[0] *= k
    for _ in range(draw(st.integers(0, 6))):
        src, dst = draw(st.permutations(range(rho)))[:2]
        _add_column(rows, src, dst, draw(st.integers(-2, 2)))
    return kind, draw(st.permutations(rows)), rho


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_support_matrices())
def test_saturation_pre_check_matches_smith_form(case):
    kind, rows, rho = case
    got = _saturated(rows, rho)
    assert got == saturated_by_snf(rows, rho)
    if kind != "random":
        assert got == (kind == "saturated")


# --- the sampler's prepared forms --------------------------------------------

_HUGE = 10**30


@st.composite
def _forms(draw):
    # symmetric matrices of size 1-6 with entries up to 10^30, some of them
    # zero and some rows zero, and coefficient vectors with zeros
    size = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-_HUGE, _HUGE))
    gram = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            gram[i][j] = gram[j][i] = draw(entry)
    for i in draw(st.sets(st.integers(0, size - 1), max_size=size)):
        for j in range(size):
            gram[i][j] = gram[j][i] = 0
    coeff = st.one_of(st.just(0), st.integers(-16, 16), st.integers(-_HUGE, _HUGE))
    coeffs = draw(st.lists(st.lists(coeff, min_size=size, max_size=size), min_size=1, max_size=4))
    return gram, coeffs


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_forms())
def test_form_evaluator_matches_dense_sum(case):
    gram, coeffs = case
    value = form_evaluator(gram)
    for c in coeffs:
        assert value(c) == dense_form_value(gram, c)


@st.composite
def _lambda_vectors(draw):
    # 1-5 vectors of build_lambda(n), sparse or dense, with coordinates up
    # to 10^30, vectors with one nonzero entry of 1, -1 or 2 (gram_of reads
    # only the first as a unit vector), zero vectors and repeats included
    L = build_lambda(draw(st.integers(2, 6)))
    coord = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-_HUGE, _HUGE))
    vector = st.one_of(
        st.lists(coord, min_size=L.rank, max_size=L.rank),
        st.dictionaries(st.integers(0, L.rank - 1), coord, max_size=5).map(
            lambda d: [d.get(i, 0) for i in range(L.rank)]
        ),
        st.tuples(st.integers(0, L.rank - 1), st.sampled_from((1, -1, 2))).map(
            lambda kc: [kc[1] if i == kc[0] else 0 for i in range(L.rank)]
        ),
    )
    vectors = [L.vector(x) for x in draw(st.lists(vector, min_size=1, max_size=5))]
    if len(vectors) > 1 and draw(st.booleans()):
        vectors.append(vectors[0])
    return vectors


_E = build_lambda(2).basis_vector


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_lambda_vectors())
@example([_E(3), -_E(3), 2 * _E(3), _E(22) - 10**30 * _E(0), _E(22), _E(3)])
@example([_E(0), _E(1), -_E(1), 2 * _E(22), _E(0)])
def test_gram_of_matches_pairings(vectors):
    assert gram_of(vectors) == [[pair(a, b) for b in vectors] for a in vectors]


def _dense_gram(vectors):
    # C G C^T, with C the vectors as rows
    basis = [v.coords for v in vectors]
    columns = [list(col) for col in zip(*basis)]
    return snf.mat_mul(snf.mat_mul(basis, vectors[0].lattice.gram), columns)


def test_complement_gram_matches_dense_product(lam2, monkeypatch):
    # vectors with one nonzero entry other than 1 are no unit vectors
    e = lam2.basis_vector
    comp = [e(0), 2 * e(1), -e(2), e(3) + e(22), 3 * e(22), e(5), e(4) - 10**30 * e(6)]
    assert gram_of(comp) == _dense_gram(comp)

    # every Gram matrix that the sampler builds on the golden cells, the
    # Picard basis's and its orthogonal complement's; and every complement,
    # against the reference's HNF of the kernel over all 23 columns
    seen, complements = [], []

    def checked(vectors):
        gram = gram_of(vectors)
        assert gram == _dense_gram(vectors)
        seen.append(len(vectors))
        return gram

    def complement(L, vectors):
        basis = orthogonal_complement_basis(L, vectors)
        assert basis == dense_complement_basis(L, vectors)
        complements.append(basis)
        return basis

    monkeypatch.setattr(sampler, "gram_of", checked)
    monkeypatch.setattr(sampler, "orthogonal_complement_basis", complement)
    for cell, seed in CELLS:
        try:
            random_instance(*cell, seed)
        except SearchExhausted:
            pass
    # rho = 2, 3 and 4, and the complements in the 23 coordinates of build_lambda(n)
    assert len(complements) == 588
    assert sum(k > 4 for k in seen) == len(complements) and set(seen) == {2, 3, 4, 19, 20, 21}


def test_mukai_closed_forms_are_polynomial_identities():
    # the package's own closed forms on symbols hold for every n, g, t, d, e
    sympy = pytest.importorskip("sympy")
    n, g, t, d, e = sympy.symbols("n g t d e")
    r, m, s, H2 = mukai_data(n, g, t, d, e)
    zero = [
        MukaiVector(r, m, s, H2).self_pairing(),
        H2 - 2 * g * s,
        r - 16 * g * t**2 * d**4,
        m - 4 * t * d**2,
        g * m - 4 * g * t * d**2,
        # the transport ends' norms: h^2 = H2, delta^2 = 2 - 2n and (h, delta) = 0
        # for the source; D^2 = 2g, B^2 = 2e and (D, B) = 0 for the target
        (H2 + (2 * g * t * d**2) ** 2 * (2 - 2 * n)) - (2 * g + (4 * g * t * d) ** 2 * 2 * e),
    ]
    assert [sympy.expand(x) for x in zero] == [0] * len(zero)


def test_mukai_gcd_and_rank_follow_from_the_closed_forms():
    # the verifier's mukai_gcd_rs and mukai_rank hold on every (g, t, d) >= 1
    # that the checks before them pass: r divides (4gt^2d^2)^2, so every prime
    # factor of r divides 4gt^2d^2, which divides s - 1, so none divides s
    sympy = pytest.importorskip("sympy")
    n, g, t, d, e = sympy.symbols("n g t d e")
    r, _, s, _ = mukai_data(n, g, t, d, e)
    step = 4 * g * t**2 * d**2
    for quotient in ((s - 1) / step, step**2 / r):
        assert sympy.cancel(quotient).is_polynomial(n, g, t, d, e)
    # r >= 16: with g, t, d = 1 + x, 1 + y, 1 + z, r - 16 has no negative
    # coefficient and no constant term
    x, y, z = sympy.symbols("x y z")
    shifted = sympy.Poly(r.subs({g: 1 + x, t: 1 + y, d: 1 + z}) - 16, x, y, z)
    assert min(shifted.coeffs()) >= 0 and shifted.coeff_monomial(1) == 0


def test_mukai_gcd_and_rank_hold_on_a_seeded_grid():
    # the same two implications on integers, without sympy, and mukai_isotropic's:
    # the Mukai vector (r, m, s) is isotropic
    rng = random.Random(37)
    for _ in range(2000):
        g, t, d = (rng.randint(1, 10 ** rng.randint(0, 30)) for _ in range(3))
        n, e = rng.randint(2, 10**6), rng.randint(-(10**6), 10**6)
        r, m, s, H2 = mukai_data(n, g, t, d, e)
        assert math.gcd(r, s) == 1 and r >= 16
        assert MukaiVector(r, m, s, H2).self_pairing() == 0
