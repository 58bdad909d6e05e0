"""A fixed corpus of certificates: the byte-for-byte gate, plus the
structure-aware checks of the lattice core held to the dense oracles of
``verifier_reference`` on every corpus sigma.

The corpus is the worked E2 instance, the first 60 successful draws of the
acceptance property suite (``random.Random(881)``, seeds ``30000 + attempts``)
and six instances whose ``d`` has 50-150 digits, so sigma entries run to
well over a thousand digits.  Any change to certificate bytes, search order
or the recorded check list changes a digest.

A second gate pins what the verifier says: ``golden_transcript.json`` holds
a sha256 of every (name, ok, details) that ``verify_payload`` returns over
the corpus, and one of ``cmd_verify``'s stdout over the 500 tamper mutations
of acceptance criterion 5 (``random.Random(424242)``).

The digests cover only the compact sorted-key serialization, so a third gate
pins the files as written: ``golden_files.json`` holds the sha256 of each
corpus instance file and of the certificate ``cmd_construct`` writes for it,
of the CLI's stdout, and of the files of one ``cmd_random`` run.

The three files were recorded once and must not be regenerated to make these
tests pass.  After a deliberate change of the certificate format or of the
verifier's output, rewrite them with

    PYTHONPATH=src python tests/test_corpus.py
"""

import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

from hkcert import certificate as cert
from hkcert import snf
from hkcert.cli import cmd_construct, cmd_random, cmd_verify
from hkcert.construction import (
    _isometry_of_ops,
    _reduction_ops,
    run_pipeline,
    transport,
    wall_for_record,
)
from hkcert.errors import SearchExhausted
from hkcert.instance import BUDGETS, HKInstance, canonical_degree_class, pushed_class, random_instance
from hkcert.lattice import (
    DELTA_INDEX,
    Isometry,
    RationalClass,
    acts_trivially_on_discriminant,
    build_k3_lattice,
    build_lambda,
    divisibility,
    norm,
)
from verifier_reference import (
    acts_trivially_reference,
    dense_isometry_reference,
    orientation_reference,
    u3_reversed,
)

GOLDEN = Path(__file__).with_name("golden_digests.json")
TRANSCRIPT = Path(__file__).resolve().with_name("golden_transcript.json")
FILES = Path(__file__).resolve().with_name("golden_files.json")
BIG_D = [  # (n, pic_rank, C0, decimal exponent of d_max, seed)
    (2, 2, 3, 50, 41001),
    (3, 3, 4, 70, 41002),
    (4, 2, 5, 90, 41003),
    (5, 3, 6, 110, 41004),
    (6, 2, 3, 130, 41005),
    (3, 2, 5, 150, 41006),
]


def e2_instance():
    """The worked instance: n=2, Pic = {e1+delta, f1}, W = e1+delta,
    B = e2+f2, d = 2, C0 = 3."""
    L = build_lambda(2)
    p1 = L.vector([1] + [0] * 21 + [1])
    b = L.vector([0, 0, 1, 1] + [0] * 19)
    return HKInstance(n=2, pic_basis=(p1, L.basis_vector(1)), W=p1, B=b, d=2, C0=3)


def instance_of(entry):
    if entry["label"] == "e2":
        return e2_instance()
    n, rho, c0, dmax = (int(x) for x in entry["params"])
    return random_instance(n, rho, c0, dmax, entry["seed"])


@lru_cache(maxsize=None)
def _certified(entry_json):
    entry = json.loads(entry_json)
    inst = instance_of(entry)
    rec = run_pipeline(inst)
    return rec, cert.certificate_payload(inst, rec, wall_for_record(inst, rec), BUDGETS)


def certified(entry):
    """(record, certificate payload) of a corpus entry, built once per session."""
    key = {k: v for k, v in entry.items() if k != "digest"}
    return _certified(json.dumps(key, sort_keys=True))


# (rows, decimal digits per entry) of the hostile Picard bases of ROADMAP item
# 17; the last has more rows than the rank of 23
HOSTILE_PIC_SHAPES = ((8, 100), (8, 400), (16, 100), (22, 100), (16, 400), (22, 400), (100, 400))


def hostile_pic_payload(rows, digits):
    """The e2 certificate with its Picard basis replaced by ``rows`` seeded
    random vectors (``random.Random(5)``, drawn afresh for each shape) of 23
    entries in [-10^digits, 10^digits], and its digest recomputed."""
    rng = random.Random(5)
    payload = copy.deepcopy(certified(CORPUS[0])[1])
    bound = 10**digits
    payload["instance"]["pic_basis"] = [[str(rng.randint(-bound, bound)) for _ in range(23)] for _ in range(rows)]
    payload["digest"] = cert.compute_digest(payload)
    return payload


def draw_corpus():
    """The corpus entries, without digests."""
    entries = [{"label": "e2"}]
    rng = random.Random(881)
    attempts = 0
    while len(entries) < 61:
        attempts += 1
        params = [rng.choice((2, 3, 4, 5)), rng.choice((2, 3)), rng.choice((3, 4, 5, 6)),
                  rng.randint(1, 4)]
        try:
            run_pipeline(random_instance(*params, seed=30000 + attempts))
        except SearchExhausted:
            continue
        entries.append({"label": "criterion3", "seed": 30000 + attempts, "params": params})
    for n, rho, c0, k, seed in BIG_D:
        entries.append({"label": "bigd", "seed": seed, "params": [n, rho, c0, str(10**k)]})
    return entries


def _entry_id(entry):
    return entry["label"] + (f"-{entry['seed']}" if "seed" in entry else "")


CORPUS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


# an absent file collects no digest test; the completeness test then fails
@pytest.mark.parametrize("entry", CORPUS, ids=_entry_id)
def test_golden_digest(entry):
    assert certified(entry)[1]["digest"] == entry["digest"]


def test_golden_corpus_is_complete():
    entries = json.loads(GOLDEN.read_text())
    labels = [e["label"] for e in entries]
    assert labels.count("e2") == 1
    assert labels.count("criterion3") == 60
    big = [len(e["params"][3]) - 1 for e in entries if e["label"] == "bigd"]
    assert len(big) == 6 and all(50 <= k <= 150 for k in big)


# --- the verifier transcript ------------------------------------------------

def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify_transcript():
    """sha256 of every check verify_payload reports over the corpus, in order."""
    rows = [
        [[c.name, c.ok, c.details] for c in cert.verify_payload(certified(entry)[1])]
        for entry in CORPUS
    ]
    return _sha(json.dumps(rows))


def _int_paths(node, prefix=()):
    # every decimal-string leaf of a payload, as its key path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _int_paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _int_paths(v, prefix + (i,))
    elif isinstance(node, str):
        try:
            int(node)
        except ValueError:
            return
        yield prefix


def _parent(payload, path):
    # the node that holds the last key of a key path
    for key in path[:-1]:
        payload = payload[key]
    return payload


def _mutate(payload, path, delta):
    # the tamper step: a copy with the decimal string at a key path moved by delta
    bad = copy.deepcopy(payload)
    node = _parent(bad, path)
    node[path[-1]] = str(int(node[path[-1]]) + delta)
    return bad


def tamper_payloads():
    """Criterion 5's 500 mutations of the E2 certificate, in order."""
    payload = certified(CORPUS[0])[1]
    paths = list(_int_paths(payload))
    rng = random.Random(424242)
    for _ in range(500):
        path = rng.choice(paths)
        delta = rng.choice((-7, -3, -1, 1, 2, 5))
        yield _mutate(payload, path, delta)


def tamper_transcript():
    """sha256 of cmd_verify's stdout over the 500 tamper payloads, each
    written to ``mutated.json`` in the working directory."""
    out = io.StringIO()
    for bad in tamper_payloads():
        cert.write_json("mutated.json", bad)
        cmd_verify(["mutated.json"], out=out)
    return _sha(out.getvalue())


def test_verify_transcript():
    assert verify_transcript() == json.loads(TRANSCRIPT.read_text())["verify_payload"]


def test_tamper_transcript(tmp_path, monkeypatch):
    assert CORPUS[0]["label"] == "e2"
    monkeypatch.chdir(tmp_path)
    assert tamper_transcript() == json.loads(TRANSCRIPT.read_text())["cmd_verify_tamper"]


_DIGESTS = """
import json, sys
if sys.argv[2] == "fallback":
    sys.modules["_sha2"] = sys.modules["_sha256"] = None  # a build without the built-in module
from hkcert import certificate as cert
with open(sys.argv[1], encoding="utf-8") as fh:
    digests = [cert.compute_digest(p) for p in json.load(fh)]
# the digests' constructor: hashlib's where it is loaded, else the built-in
hashlib = sys.modules.get("hashlib")
print(json.dumps([hashlib is not None, cert._builtin_sha256 is getattr(hashlib, "sha256", None), digests]))
"""


def test_digests_agree_under_every_sha256(tmp_path):
    # hashlib's SHA-256 (this process has imported hashlib), CPython's
    # built-in one (a fresh process that has not) and hashlib's again as the
    # fallback of a build without the built-in module digest every corpus
    # certificate and tamper payload alike
    from test_certificate import _buffered_child_env

    payloads = [certified(entry)[1] for entry in CORPUS] + list(tamper_payloads())
    (tmp_path / "payloads.json").write_text(json.dumps(payloads), encoding="utf-8")
    assert "hashlib" in sys.modules
    digests = [cert.compute_digest(p) for p in payloads]
    assert digests[: len(CORPUS)] == [entry["digest"] for entry in CORPUS]
    for mode, route in (("builtin", [False, False]), ("fallback", [True, True])):
        r = subprocess.run([sys.executable, "-c", _DIGESTS, str(tmp_path / "payloads.json"), mode],
                           capture_output=True, text=True, env=_buffered_child_env())
        assert (r.returncode, r.stderr) == (0, "")
        assert json.loads(r.stdout) == [*route, digests]


_GOLDENS = """
import json
from test_corpus import CORPUS, certified, verify_transcript
print(json.dumps([[certified(entry)[1]["digest"] for entry in CORPUS], verify_transcript()]))
"""


@pytest.mark.parametrize("digits", [
    "0",
    # 640 is the lowest int/str digit limit CPython accepts; the bigd sigma
    # entries have over 1000 digits, so their constructs raise until ROADMAP
    # item 1's codec lands, and this case must then lose its mark
    pytest.param("640", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ROADMAP item 1: integers of any size")),
])
def test_goldens_under_the_int_str_digit_limit(digits):
    # the corpus digests and the verify transcript, in a fresh interpreter
    # under PYTHONINTMAXSTRDIGITS, are the goldens
    from test_certificate import _buffered_child_env

    env = {**_buffered_child_env(), "PYTHONINTMAXSTRDIGITS": digits}
    r = subprocess.run([sys.executable, "-c", _GOLDENS], capture_output=True, text=True, env=env)
    assert (r.returncode, r.stderr) == (0, "")
    assert json.loads(r.stdout) == [[entry["digest"] for entry in CORPUS],
                                    json.loads(TRANSCRIPT.read_text())["verify_payload"]]


# --- the bytes the CLI writes ---------------------------------------------

def _file_sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def written_files():
    """sha256 of what the CLI writes for the corpus, in the working directory:
    each instance file and the certificate ``cmd_construct`` makes of it,
    construct's stdout, ``cmd_verify``'s stdout over every certificate (the
    same with jobs 1 and 2), and the files and stdout of one ``cmd_random``."""
    sums = {"instances": {}, "certificates": {}}
    out = io.StringIO()
    names = [_entry_id(entry) for entry in CORPUS]
    for name, entry in zip(names, CORPUS):
        cert.write_json(f"{name}.json", cert.instance_to_payload(instance_of(entry)))
        assert cmd_construct(f"{name}.json", f"{name}.cert.json", out=out) == 0
        sums["instances"][name] = _file_sha(f"{name}.json")
        sums["certificates"][name] = _file_sha(f"{name}.cert.json")
    sums["construct_stdout"] = _sha(out.getvalue())
    verified = []
    for jobs in (1, 2):
        out = io.StringIO()
        assert cmd_verify([f"{name}.cert.json" for name in names], jobs=jobs, out=out) == 0
        verified.append(_sha(out.getvalue()))
    assert verified[0] == verified[1]
    sums["verify_stdout"] = verified[0]
    out = io.StringIO()
    assert cmd_random(4, 3, 5, 10**40, 2026, 4, "random", out=out) == 0
    sums["random"] = {f: _file_sha(Path("random", f)) for f in sorted(os.listdir("random"))}
    sums["random_stdout"] = _sha(out.getvalue())
    return sums


def test_written_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert written_files() == json.loads(FILES.read_text())


@pytest.mark.parametrize("entry", CORPUS, ids=_entry_id)
def test_construct_summary_line(entry, tmp_path, monkeypatch):
    # the whole line, formatted from the record's own integers
    monkeypatch.chdir(tmp_path)
    inst = instance_of(entry)
    rec = certified(entry)[0]
    cert.write_json("in.json", cert.instance_to_payload(inst))
    out = io.StringIO()
    assert cmd_construct("in.json", "out.json", out=out) == 0
    assert out.getvalue() == (
        f"out.json: C1={rec.C1} u={rec.u} g={rec.g} t={rec.t} H2={rec.H2} "
        f"v0=({rec.v0.r},{rec.v0.m},{rec.v0.s}) epsilon={rec.epsilon} "
        f"wall={wall_for_record(inst, rec).verdict}\n"
    )


# --- oracles for the discriminant and determinant shortcuts -----------------

def _twisted(sigma, sign_of_row):
    # sigma followed by the diagonal isometry diag(sign_of_row(i))
    return Isometry(
        tuple(tuple(sign_of_row(i) * x for x in row) for i, row in enumerate(sigma.matrix)),
        sigma.lattice,
    )


def test_corpus_sigma_shortcuts_match_definitions():
    checked = 0
    for entry in CORPUS:
        sigma = certified(entry)[0].sigma
        assert sigma.det() == snf.det_bareiss(sigma.matrix) == 1
        assert acts_trivially_on_discriminant(sigma) is acts_trivially_reference(sigma) is True
        # -sigma and (reflection in delta)*sigma act as -1 on Z/(2n-2), trivially iff n = 2
        for twisted in (
            _twisted(sigma, lambda i: -1),
            _twisted(sigma, lambda i: -1 if i == DELTA_INDEX else 1),
        ):
            fast = acts_trivially_on_discriminant(twisted)
            assert fast is acts_trivially_reference(twisted) is (sigma.lattice == build_lambda(2))
            assert twisted.det() == snf.det_bareiss(twisted.matrix)
        checked += 1
    assert checked == len(CORPUS) == 67


def test_corpus_orientation_matches_a_second_positive_plane():
    for entry in CORPUS:
        sigma = certified(entry)[0].sigma
        assert sigma.orientation() == orientation_reference(sigma) == 1
        # sigma followed by -1 on U3, as in the U3 forgery of a certificate
        u3 = Isometry(u3_reversed(sigma.matrix), sigma.lattice)
        assert (u3.det(), u3.orientation(), orientation_reference(u3)) == (1, -1, -1)
        for twisted in (
            _twisted(sigma, lambda i: -1),
            _twisted(sigma, lambda i: -1 if i == DELTA_INDEX else 1),
            _twisted(sigma, lambda i: -1 if i in (0, 1) else 1),
        ):
            assert twisted.orientation() == orientation_reference(twisted)


def test_corpus_pushed_class_meets_the_brauer_congruence():
    # the Brauer match as an exact congruence, on each corpus sigma and on
    # the transport forced to the other epsilon: with den = 4gtd^2, the
    # numerator num = -sigma(eps h - (den/2) delta) of pushed_class satisfies
    # num + D = -(den/d) B modulo den Lambda, since sigma(source) = eps target;
    # D lies in Pic, so [num/den] = [-B/d] modulo Pic (x) Q + Lambda
    checked = 0
    for entry in CORPUS:
        inst, rec = instance_of(entry), certified(entry)[0]
        L, den = inst.lattice, 4 * rec.g * rec.t * inst.d**2
        forced = transport(inst, rec.D, rec.g, rec.t, rec.H2, force_epsilon=-rec.epsilon)
        assert forced[3] == -rec.epsilon
        assert forced[2].apply(rec.source) == forced[3] * rec.target
        h = canonical_degree_class(L, rec.H2)
        for sigma, eps in ((rec.sigma, rec.epsilon), (forced[2], forced[3])):
            num = -sigma.apply(eps * h - (den // 2) * L.basis_vector(DELTA_INDEX))
            pushed = pushed_class(inst, sigma, rec.H2, den, eps).representative
            assert pushed == RationalClass(num, den)
            assert all(x % den == 0 for x in (num + rec.D + den // inst.d * inst.B).coords)
            checked += 1
    assert checked == 2 * len(CORPUS) == 134


def _isometry_outcome(build, matrix, L):
    try:
        result = build(matrix, L)
    except ValueError as exc:
        return "rejected", str(exc)
    return "accepted", getattr(result, "matrix", result)


def _dense_r_sigma():
    # the dense-r-part case of the reduction's hypothesis test: every
    # coordinate of both vectors nonzero, so every column of sigma moves
    rng = random.Random(4343)
    L = build_lambda(3)
    ops = []
    while len(ops) < 2:
        v = L.vector([rng.choice((-1, 1)) * rng.randint(1, 10**30) for _ in range(L.rank)])
        if divisibility(v) == 1:
            ops.append(_reduction_ops(10000, v, norm(v) // 2))
    return _isometry_of_ops(ops[0], ops[1], L)


def _moved_set_cases(L):
    # (name, matrix, expected moved set) where finding S decides the outcome
    n = L.rank
    eye = [[int(i == j) for j in range(n)] for i in range(n)]

    def edit(*changes):
        m = [list(row) for row in eye]
        for i, j, x in changes:
            m[i][j] = x
        return tuple(map(tuple, m))

    e3, f3 = 4, 5
    yield "identity", edit(), []
    yield "minus_identity", tuple(tuple(-x for x in row) for row in eye), list(range(n))
    yield "swap_e3_f3", edit((e3, e3, 0), (f3, e3, 1), (f3, f3, 0), (e3, f3, 1)), [e3, f3]
    yield "negated_e3", edit((e3, e3, -1)), [e3]
    yield "negated_delta", edit((DELTA_INDEX, DELTA_INDEX, -1)), [DELTA_INDEX]
    for j in (0, e3, 9, DELTA_INDEX):
        yield f"zero_diagonal_{j}", edit((j, j, 0)), [j]
        yield f"two_diagonal_{j}", edit((j, j, 2)), [j]
        for i in (1, f3, 10, DELTA_INDEX):
            if i != j:
                yield f"off_diagonal_{i}_{j}", edit((i, j, 1)), [j]


def test_isometry_check_matches_dense_reference():
    def same(matrix, L):
        fast = _isometry_outcome(Isometry, matrix, L)
        assert fast == _isometry_outcome(dense_isometry_reference, matrix, L)
        if fast[0] == "accepted":
            assert Isometry(matrix, L).det() == snf.det_bareiss(matrix)
        return fast[0]

    for L in (build_lambda(2), build_lambda(5)):
        accepted = set()
        for name, matrix, moved in _moved_set_cases(L):
            if same(matrix, L) == "accepted":
                assert Isometry(matrix, L)._moved == moved
                accepted.add(name)
        assert accepted == {"identity", "minus_identity", "swap_e3_f3", "negated_delta"}
    dense = _dense_r_sigma()
    assert dense._moved == list(range(dense.lattice.rank))
    assert same(dense.matrix, dense.lattice) == "accepted"

    sigmas = [certified(entry)[0].sigma for entry in CORPUS]
    assert len(sigmas) == 67
    assert all(same(s.matrix, s.lattice) == "accepted" for s in sigmas)
    verdicts = set()
    for sigma in sigmas[:10]:
        m, L = sigma.matrix, sigma.lattice
        bad = [list(row) for row in m]
        for i in range(L.rank):
            for j in range(L.rank):
                for delta in (-3, -1, 1, 3):
                    bad[i][j] += delta
                    verdicts.add(same(bad, L))
                    bad[i][j] -= delta
        # wrong shapes: a column missing, a row missing, a column too many
        assert same([row[:-1] for row in m], L) == "rejected"
        assert same(m[:-1], L) == "rejected"
        assert same([row + (0,) for row in m], L) == "rejected"
    assert "rejected" in verdicts

    # the big-d sigmas: every entry of every moved column, off by one, where
    # the pairings multiply entries of hundreds to thousands of digits
    big = [s for entry, s in zip(CORPUS, sigmas) if entry["label"] == "bigd"]
    assert len(big) == 6
    cases = 0
    for sigma in big:
        m, L = sigma.matrix, sigma.lattice
        assert max(abs(x) for row in m for x in row) > 10**500
        bad = [list(row) for row in m]
        for j in sigma._moved:
            for i in range(L.rank):
                for delta in (-1, 1):
                    bad[i][j] += delta
                    assert same(bad, L) == "rejected"
                    bad[i][j] -= delta
                    cases += 1
    assert cases == 2 * 23 * 41


def test_isometry_apply_matches_dense_product():
    # apply sums x_j (sigma - I) e_j over the moved columns j with x_j != 0;
    # the dense snf.mat_vec over all 23 columns is its reference, on every
    # corpus sigma (the big-d ones included), their twists, the accepted
    # moved-set cases and the sigma whose every column moves
    isometries = []
    for entry in CORPUS:
        rec = certified(entry)[0]
        sigma = rec.sigma
        isometries += [
            (sigma, rec.source),
            (_twisted(sigma, lambda i: -1), rec.source),
            (_twisted(sigma, lambda i: -1 if i == DELTA_INDEX else 1), rec.source),
        ]
    for L in (build_lambda(2), build_lambda(5)):
        for name, matrix, moved in _moved_set_cases(L):
            if _isometry_outcome(Isometry, matrix, L)[0] == "accepted":
                isometries.append((Isometry(matrix, L), L.zero()))
    dense = _dense_r_sigma()
    isometries.append((dense, dense.lattice.zero()))
    rng = random.Random(2828)
    for iso, source in isometries:
        L = iso.lattice
        vectors = [L.basis_vector(i) for i in range(L.rank)] + [source]
        for bound in (1, 10**30):
            vectors.append(L.vector([rng.randint(-bound, bound) for _ in range(L.rank)]))
            vectors.append(L.vector([rng.randint(-bound, bound) * (rng.random() < 0.2)
                                     for _ in range(L.rank)]))
        for v in vectors:
            assert iso.apply(v).coords == tuple(snf.mat_vec(iso.matrix, v.coords))
    assert len(isometries) == 3 * 67 + 2 * 4 + 1


def test_minus_identity_on_discriminant():
    for L in [build_lambda(n) for n in range(2, 7)] + [build_k3_lattice()]:
        minus = Isometry(tuple(tuple(-(i == j) for j in range(L.rank)) for i in range(L.rank)), L)
        # -1 is trivial on Z/2 and on the unimodular K3 lattice, not on Z/(2n-2), n >= 3
        expect = L.rank == 22 or L == build_lambda(2)
        assert acts_trivially_on_discriminant(minus) is expect
        assert acts_trivially_reference(minus) is expect


if __name__ == "__main__":
    corpus = draw_corpus()
    for entry in corpus:
        entry["digest"] = certified(entry)[1]["digest"]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in corpus) + "\n]\n")
    print(f"wrote {len(corpus)} digests to {GOLDEN}")
    CORPUS = corpus
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        sums = {"verify_payload": verify_transcript(), "cmd_verify_tamper": tamper_transcript()}
        files = written_files()
    TRANSCRIPT.write_text(json.dumps(sums, indent=1) + "\n")
    print(f"wrote the verifier transcript to {TRANSCRIPT}")
    FILES.write_text(json.dumps(files, indent=1) + "\n")
    print(f"wrote the hashes of the written files to {FILES}")
