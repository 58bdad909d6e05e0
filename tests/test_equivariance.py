"""Mon^2-equivariance: a metamorphic oracle for construct and verify.

A parallel-transport operator tau of Lambda(n) maps a valid instance to a
valid one and a certificate to a certificate:
- the Picard rows, W, B, A, omega, D, target and alpha_x's numerator go to
  tau x, and sigma to tau sigma;
- source (h - 2gtd^2 delta, in the canonical frame of sigma's domain) and
  every scalar field stay as they are;
- the digest is recomputed.
Every check reads invariants (norms, pairings, divisibility, Picard
membership and saturation, the Brauer test, Mon^2 membership and the
scalars), so under tau every verdict and every details string must stay the
same, and construct must find the same scalars and tau of the same vectors.
No second implementation is needed to check that (T. Y. Chen, S. C. Cheung
and S. M. Yiu, "Metamorphic testing: a new approach for generating next
test cases", HKUST-CS98-01, 1998).  A difference found here is a bug.

tau is a product of Eichler transvections, each built from the formula

    t(e, a): x -> x - (a, x) e + (e, x) a - (a, a)/2 (e, x) e

with e an isotropic basis vector of U1, U2 or U3 and a orthogonal to e, not
from hkcert's construction or lattice code, and checked with the dense
oracles of ``verifier_reference``.  Each t(e, a) is unipotent, keeps the
orientation of positive 3-planes and acts trivially on L*/L, so tau lies in
Markman's Mon^2 of K3^[n]-type (E. Markman, "A survey of Torelli and
monodromy results for holomorphic-symplectic varieties", 2011).  a has no
delta coordinate, so tau fixes delta and is the same isometry of every
Lambda(n): a tamper of n leaves it one.
"""

import copy
import random
from functools import lru_cache
from operator import mul

import pytest

from hkcert import certificate as cert
from hkcert import snf
from hkcert.construction import run_pipeline, wall_for_record
from hkcert.instance import BUDGETS
from hkcert.lattice import DELTA_INDEX, Isometry, build_lambda
from test_corpus import CORPUS, _parent, certified, instance_of, tamper_payloads
from verifier_reference import acts_trivially_reference, dense_isometry_reference, orientation_reference

# the basis vectors of U1, U2 and U3 (coordinates 0-5), each isotropic
ISOTROPIC = range(6)


def random_parallel_transport(n, rng, steps, size):
    """tau = t(e_steps, a_steps) ... t(e_1, a_1) on Lambda(n), as the integer
    rows of the matrix acting on coordinate columns.  Each e is drawn from
    ISOTROPIC, and a has one to four nonzero entries in [-size, size], off
    delta and off the coordinate that pairs with e, so (e, a) = 0."""
    G = build_lambda(n).gram
    rank = len(G)
    cols = [[int(i == j) for i in range(rank)] for j in range(rank)]
    for _ in range(steps):
        ie = rng.choice(ISOTROPIC)
        free = [i for i in range(rank) if i != DELTA_INDEX and G[ie][i] == 0]
        a = [0] * rank
        for i in rng.sample(free, rng.randint(1, 4)):
            a[i] = rng.choice([c for c in range(-size, size + 1) if c])
        ga = [sum(map(mul, row, a)) for row in G]
        half = sum(map(mul, a, ga)) // 2
        for x in cols:
            ax, ex = sum(map(mul, ga, x)), sum(map(mul, G[ie], x))
            for i in range(rank):
                x[i] += ex * a[i]
            x[ie] += -ax - half * ex
    return tuple(zip(*cols))


@lru_cache(maxsize=None)
def small_tau():
    """The tau of the tier-1 properties: 12 transvections, entries up to 9."""
    return random_parallel_transport(2, random.Random(2408), 12, 9)


def _tau_vec(tau, coords):
    return [sum(map(mul, row, coords)) for row in tau]


def _tau_strs(tau, entries):
    # tau x for x a payload's list of decimal strings
    return [str(x) for x in _tau_vec(tau, [int(x) for x in entries])]


def transform(payload, tau):
    """The certificate payload under tau, with its digest recomputed."""
    out = copy.deepcopy(payload)
    inst, rec = out["instance"], out["record"]
    inst["pic_basis"] = [_tau_strs(tau, row) for row in inst["pic_basis"]]
    for path in (("instance", "W"), ("instance", "B"), ("record", "A"), ("record", "omega"),
                 ("record", "D"), ("record", "target"), ("record", "alpha_x", "num")):
        node = _parent(out, path)
        node[path[-1]] = _tau_strs(tau, node[path[-1]])
    # tau sigma, column by column
    rec["sigma"] = [list(row) for row in zip(*[_tau_strs(tau, col) for col in zip(*rec["sigma"])])]
    out["digest"] = cert.compute_digest(out)
    return out


def transcript(payload):
    return [(c.name, c.ok, c.details) for c in cert.verify_payload(payload)]


@pytest.mark.parametrize("steps, size, seed", [(4, 3, 1), (12, 9, 2408), (30, 99, 3)])
def test_parallel_transport_passes_the_dense_oracles(steps, size, seed):
    # the same draws give the same tau on every Lambda(n), since it fixes
    # delta; there it preserves the Gram form, has determinant 1, keeps the
    # orientation and acts trivially on the discriminant group
    tau = random_parallel_transport(2, random.Random(seed), steps, size)
    assert any(x != (i == j) for i, row in enumerate(tau) for j, x in enumerate(row))
    assert snf.det_bareiss([list(row) for row in tau]) == 1
    for n in (2, 3, 6):
        L = build_lambda(n)
        assert random_parallel_transport(n, random.Random(seed), steps, size) == tau
        assert dense_isometry_reference(tau, L) == tau
        iso = Isometry(tau, L)
        assert orientation_reference(iso) == 1
        assert acts_trivially_reference(iso)


def test_verify_transcripts_are_invariant_on_the_corpus():
    tau = small_tau()
    for entry in CORPUS:
        payload = certified(entry)[1]
        moved = transform(payload, tau)
        assert moved["instance"]["pic_basis"] != payload["instance"]["pic_basis"]
        assert transcript(moved) == transcript(payload), entry["label"]


def test_verify_transcripts_are_invariant_on_the_tamper_payloads():
    # each tamper with its digest recomputed, so that the checks that fail
    # are those of the tampered field; 4 tampers fail none, as no check
    # recomputes what they change (two budgets, and a recorded check's
    # details twice)
    tau = small_tau()
    failing = 0
    for bad in tamper_payloads():
        bad["digest"] = cert.compute_digest(bad)
        before = transcript(bad)
        assert transcript(transform(bad, tau)) == before
        failing += not all(ok for _, ok, _ in before)
    assert failing == 496


# the record fields construct keeps under tau, and those it moves to tau x
KEPT = ("u", "C1", "g", "t", "e", "H2", "v0", "epsilon", "rk_un", "source")
MOVED = ("A", "omega", "D", "target")


def test_construct_is_equivariant_on_the_corpus():
    # the searches step through Picard coefficients, whose pairings tau
    # keeps: the same scalars and tau of the same vectors, and a certificate
    # that verifies; sigma, found by its own reduction, need not be tau sigma
    tau = small_tau()
    for entry in CORPUS:
        inst, rec = instance_of(entry), certified(entry)[0]
        L = inst.lattice

        def image(v):
            return L.vector(_tau_vec(tau, v.coords))

        moved = inst.replace(pic_basis=tuple(map(image, inst.pic_basis)), W=image(inst.W), B=image(inst.B))
        new = run_pipeline(moved)
        assert [getattr(new, k) for k in KEPT] == [getattr(rec, k) for k in KEPT], entry["label"]
        assert [getattr(new, k) for k in MOVED] == [image(getattr(rec, k)) for k in MOVED], entry["label"]
        payload = cert.certificate_payload(moved, new, wall_for_record(moved, new), BUDGETS)
        assert all(c.ok for c in cert.verify_payload(payload)), entry["label"]
