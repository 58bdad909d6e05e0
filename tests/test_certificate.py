import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hkcert import certificate as cert
from hkcert import lattice, sampler, snf
from hkcert.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_INPUT, EXIT_OK, cmd_construct, cmd_random, cmd_verify
from hkcert.construction import run_pipeline, wall_for_record
from hkcert.instance import BUDGETS
from test_corpus import CORPUS, _entry_id, _int_paths, _mutate, _parent, certified
from verifier_reference import u3_reversed


@pytest.fixture(scope="module")
def e2_payload():
    return copy.deepcopy(certified({"label": "e2"})[1])


def test_instance_round_trip(e2_instance, tmp_path):
    path = tmp_path / "inst.json"
    cert.write_json(path, cert.instance_to_payload(e2_instance))
    back = cert.instance_from_payload(cert.read_json(path))
    assert back == e2_instance


def test_instance_accepts_plain_ints(e2_instance):
    payload = cert.instance_to_payload(e2_instance)
    payload["n"] = 2
    payload["d"] = 2
    payload["W"] = [int(c) for c in payload["W"]]
    assert cert.instance_from_payload(payload) == e2_instance


def test_instance_rejects_garbage():
    with pytest.raises(cert.CertificateFormatError):
        cert.instance_from_payload({"n": "2"})
    with pytest.raises(cert.CertificateFormatError):
        cert.instance_from_payload({"n": "x", "pic_basis": [], "W": [], "B": [], "d": "1", "C0": "1"})


# the largest integer the codec tables hold
_K = max(cert._STR_OF)

_ODD_ENTRIES = [True, 1.5, None, [], {}, " 7", "1_0", "+3", "0x10", "", "1" * 4301]
# the tables' edges and near misses: only the exact text str(i) is a key
_ODD_ENTRIES += ["-0", "00", "01", str(_K), str(-_K), str(_K + 1), str(-_K - 1), "\u0663", "1 ", str(2**70)]
# entries that hold the separator of the comma-joined text the grammar reads
_ODD_ENTRIES += ["1,2", ",", "1,"]


def _per_entry(seq, what):
    # the reference: _dec_int on each entry in turn
    try:
        return tuple(cert._dec_int(x, what) for x in seq)
    except cert.CertificateFormatError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("odd", _ODD_ENTRIES, ids=lambda x: repr(x)[:12])
def test_dec_ints_matches_per_entry_decoding(odd):
    for seq in ([odd], [1, "-2", odd], [odd, "0x10"], ["5", odd, 7, True], ["3", 4, "-05"], []):
        try:
            got = cert._dec_ints(seq, "sigma")
        except cert.CertificateFormatError as exc:
            got = "error", str(exc)
        assert got == _per_entry(seq, "sigma")


_EDGES = [0, 1, -1, _K, -_K, _K + 1, -_K - 1, 2**70, -(2**70)]
_CODEC_INTS = st.lists(
    st.one_of(st.integers(-3, 3), st.integers(-2 * _K, 2 * _K), st.sampled_from(_EDGES), st.integers()),
    max_size=30,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_CODEC_INTS, st.data())
def test_int_codecs_match_str_and_int(seq, data):
    # the tables give exactly what str() and the per-entry decoding give,
    # on lists all inside them, with an entry outside, and with an entry
    # (an int, a bool or a near miss) that must miss the decode table
    text = cert._enc_ints(seq)
    assert text == list(map(str, seq))
    assert cert._enc_ints(tuple(seq)) == text
    assert cert._dec_ints(text, "v") == tuple(seq)
    odd = data.draw(st.sampled_from(_ODD_ENTRIES + [7, -_K, True, False]))
    at = data.draw(st.integers(0, len(text)))
    mixed = text[:at] + [odd] + text[at:]
    try:
        got = cert._dec_ints(mixed, "v")
    except cert.CertificateFormatError as exc:
        got = "error", str(exc)
    assert got == _per_entry(mixed, "v")


# text with what json escapes: quotes, backslashes, control characters,
# non-ASCII, astral characters and lone surrogates
_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\x80\u2028\ud800\udfff\U0001f600'),
        st.characters(codec=None, exclude_categories=()),
    ),
    max_size=8,
)
# what the writer lays out in one join: printable ASCII without a quote or
# a backslash, decimal strings among it
_PLAIN = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'), max_size=6)
_PLAIN_LISTS = st.lists(_PLAIN | st.integers().map(str), max_size=6)
# a list that would be plain but for one entry that holds one character json
# escapes (or is empty)
_ONE_ESCAPE_LISTS = st.builds(
    lambda head, pre, ch, post, tail: head + [pre + ch + post] + tail,
    _PLAIN_LISTS,
    _PLAIN,
    st.sampled_from(['"', "\\", "\x7f", "\x00", "\x1f", "\n", "\xe9", "\u2028", "\ud800", "\U0001f600", ""]),
    _PLAIN,
    _PLAIN_LISTS,
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT | _PLAIN_LISTS | _ONE_ESCAPE_LISTS,
    lambda inner: st.lists(inner, max_size=5)
    | st.tuples(inner, inner)
    | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=25,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_JSON_VALUES)
@example(1.5)
@example(None)
@example([[1]])
@example(True)
@example("")
@example({"checks": [], "wall": {}, "v": ["1", "-2"], "ok": [True, False, None, 1.5, [[1]], ""]})
@example([["1", "-2"], ["1", '"'], ["\\"], ["\x7f", "0"], ["", ""], [""], ("a", "\ud800")])
def test_write_json_matches_json_dumps(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        cert.write_json(path, obj)
        with open(path, "rb") as fh:
            assert fh.read() == (json.dumps(obj, indent=1) + "\n").encode("ascii")


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": {None: [1]}}, [{1.5: True}], {(): 1}, [set()]])
def test_write_json_refuses_other_values(obj, tmp_path):
    # json would turn int, float, bool and None keys into strings; no
    # payload has them, so the writer takes str keys only
    path = tmp_path / "out.json"
    with pytest.raises(TypeError):
        cert.write_json(path, obj)
    assert not path.exists()


@pytest.mark.parametrize("wrap", [lambda x: x, lambda x: {"instance": {"n": "2", "d": x}}])
def test_write_json_oversized_int_leaves_no_file(wrap, tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        cert.write_json(path, wrap(10**4300))  # 4301 digits
    assert not path.exists()


def test_each_written_object_is_its_records_fields_in_order():
    # the writer writes each object as its record's fields, so a reordered
    # or renamed field fails here by name, not only as a file digest
    from hkcert.construction import ConstructionRecord
    from hkcert.instance import CheckResult, HKInstance
    from hkcert.obstruction import WallCertificate

    assert ConstructionRecord._fields[-1] == "checks"
    for entry in CORPUS:
        payload = certified(entry)[1]
        assert list(payload["instance"]) == list(HKInstance._fields)
        assert list(payload["record"]) == list(ConstructionRecord._fields[:-1])
        assert list(payload["wall"]) == list(WallCertificate._fields)
        assert all(list(c) == list(CheckResult._fields) for c in payload["checks"])


def test_writer_refuses_a_value_of_an_unknown_type(e2_instance):
    # an int-like float is not written as "2"
    with pytest.raises(KeyError):
        cert.instance_to_payload(e2_instance.replace(d=2.0))


def test_verify_clean_certificate(e2_payload):
    checks = cert.verify_payload(e2_payload)
    assert all(c.ok for c in checks)
    names = [c.name for c in checks]
    for expected in (
        "digest",
        "instance_pic_saturated",
        "divisor_divisibility",
        "mukai_isotropic",
        "sigma_gram_identity",
        "transport_maps",
        "alpha_is_b_field",
        "wall_verdict",
    ):
        assert expected in names


def test_verify_detects_sigma_corruption(e2_payload):
    bad = _mutate(e2_payload, ("record", "sigma", 0, 0), 1)
    failed = {c.name for c in cert.verify_payload(bad) if not c.ok}
    assert "sigma_gram_identity" in failed


def test_verify_detects_tamper_in_fixed_sigma_column(e2_payload, lam2):
    # the Gram identity is multiplied out on the moved columns only, so a
    # column sigma fixes must leave that set once it is edited
    rows = e2_payload["record"]["sigma"]
    sigma = lattice.Isometry(tuple(cert._dec_ints(row, "sigma") for row in rows), lam2)
    assert 0 < len(sigma._moved) < lam2.rank
    j = next(j for j in range(lam2.rank) if j not in sigma._moved)
    i = (j + 1) % lam2.rank
    for row, value in ((i, "1"), (j, "0"), (j, "2")):
        bad = copy.deepcopy(e2_payload)
        bad["record"]["sigma"][row][j] = value
        failed = {c.name: c.details for c in cert.verify_payload(bad) if not c.ok}
        assert failed["sigma_gram_identity"] == "matrix does not preserve the Gram form"


def test_verify_detects_h2_tamper(e2_payload):
    bad = _mutate(e2_payload, ("record", "H2"), -2)
    failed = {c.name for c in cert.verify_payload(bad) if not c.ok}
    assert "mukai_isotropic" in failed


def test_verify_detects_c0_headroom_tamper(e2_payload):
    # C0 3 -> 4 leaves every arithmetic predicate true; the digest must catch it
    bad = copy.deepcopy(e2_payload)
    bad["instance"]["C0"] = "4"
    failed = {c.name for c in cert.verify_payload(bad) if not c.ok}
    assert "digest" in failed


def test_verify_rejects_wrong_valid_isometry(e2_payload, lam2):
    # identity is a perfectly valid isometry, just not the recorded transport
    bad = copy.deepcopy(e2_payload)
    n = lam2.rank
    bad["record"]["sigma"] = [[("1" if i == j else "0") for j in range(n)] for i in range(n)]
    failed = {c.name for c in cert.verify_payload(bad) if not c.ok}
    assert "sigma_gram_identity" not in failed
    assert "transport_maps" in failed


def test_tamper_detection_500(e2_payload):
    # flipping any single recorded integer must trip at least one check
    rng = random.Random(20250810)
    paths = list(_int_paths(e2_payload))
    assert len(paths) > 600   # plenty of fields to sample
    for trial in range(500):
        path = rng.choice(paths)
        delta = rng.choice((-3, -2, -1, 1, 2, 3))
        bad = _mutate(e2_payload, path, delta)
        try:
            checks = cert.verify_payload(bad)
        except cert.CertificateFormatError:
            continue   # detected as malformed: exit code 2
        assert not all(c.ok for c in checks), f"undetected mutation at {path} by {delta}"


# --- CLI ----------------------------------------------------------------------

def _buffered_child_env():
    """The environment for a child that imports the same hkcert as this
    process, installed or not, and these test modules.  Its stdout is
    block-buffered even where the caller's environment sets PYTHONUNBUFFERED,
    so what reaches the pipe is what the entry flushed before `os._exit`."""
    path = [os.path.dirname(os.path.dirname(cert.__file__)), os.path.dirname(__file__)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(path + [os.environ.get("PYTHONPATH", "")])
    return env


def loaded_modules(code):
    """The modules a fresh interpreter holds after it runs code."""
    r = subprocess.run(
        [sys.executable, "-c", f"import sys; {code}; print(' '.join(sys.modules))"],
        capture_output=True, text=True, env=_buffered_child_env(),
    )
    assert r.returncode == 0, r.stderr
    return set(r.stdout.split())


def _hkcert(*args, **kwargs):
    """`python -m hkcert ARGS` in a child with `_buffered_child_env()`."""
    return subprocess.run(
        [sys.executable, "-m", "hkcert", *args], text=True, env=_buffered_child_env(), **kwargs
    )


def _sigma_tampered(payload):
    return _mutate(payload, ("record", "sigma", 2, 3), 1)


def _cli_verify(path, payload):
    """cmd_verify's exit code and stdout on the payload written to path."""
    cert.write_json(path, payload)
    out = io.StringIO()
    return cmd_verify([str(path)], out=out), out.getvalue()


def test_cli_construct_verify_round_trip(e2_instance, tmp_path):
    inst_path = tmp_path / "e2.json"
    cert_path = tmp_path / "e2.cert.json"
    cert.write_json(inst_path, cert.instance_to_payload(e2_instance))
    assert cmd_construct(str(inst_path), str(cert_path)) == EXIT_OK
    assert cmd_verify([str(cert_path)]) == EXIT_OK


def test_cli_construct_invalid_instance(e2_instance, tmp_path):
    payload = cert.instance_to_payload(e2_instance)
    payload["W"] = [str(2 * int(c)) for c in payload["W"]]   # W no longer primitive
    inst_path = tmp_path / "bad.json"
    cert.write_json(inst_path, payload)
    assert cmd_construct(str(inst_path), str(tmp_path / "out.json")) == EXIT_INPUT


@pytest.mark.parametrize(
    "field, line", [("W", "w_primitive"), ("pic_basis", "pic_independent")]
)
def test_cli_construct_zero_vector_instance(e2_instance, tmp_path, field, line):
    # a zero W, or a zero Picard vector, is a failed instance check, not a crash
    payload = cert.instance_to_payload(e2_instance)
    if field == "W":
        payload["W"] = ZERO_VECTOR
    else:
        payload["pic_basis"][1] = ZERO_VECTOR
    inst_path = tmp_path / "zero.json"
    cert_path = tmp_path / "zero.cert.json"
    cert.write_json(inst_path, payload)
    out = io.StringIO()
    assert cmd_construct(str(inst_path), str(cert_path), out=out) == EXIT_INPUT
    assert out.getvalue() == f"error: invalid instance: {line}\n"
    assert not cert_path.exists()


def test_cli_construct_parse_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cmd_construct(str(p), str(tmp_path / "out.json")) == EXIT_INPUT


def test_cli_construct_budget_exhausted(e2_instance, tmp_path):
    inst_path = tmp_path / "e2.json"
    cert.write_json(inst_path, cert.instance_to_payload(e2_instance))
    rc = cmd_construct(str(inst_path), str(tmp_path / "out.json"), u_budget=1)
    assert rc == EXIT_BUDGET


def test_cli_construct_unwritable_output(e2_instance, tmp_path):
    inst_path = tmp_path / "e2.json"
    cert.write_json(inst_path, cert.instance_to_payload(e2_instance))
    cert_path = tmp_path / "missing" / "e2.cert.json"
    out = io.StringIO()
    assert cmd_construct(str(inst_path), str(cert_path), out=out) == EXIT_INPUT
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {cert_path}: ")
    assert not cert_path.exists()


def test_cli_construct_records_every_budget(e2_instance, tmp_path, monkeypatch):
    # each budget reaches the pipeline and the certificate under its own name
    from hkcert import construction

    real, passed = construction.run_pipeline, []

    def run_pipeline(inst, **budgets):
        passed.append(budgets)
        return real(inst, **budgets)

    monkeypatch.setattr(construction, "run_pipeline", run_pipeline)
    inst_path = tmp_path / "e2.json"
    cert_path = tmp_path / "e2.cert.json"
    cert.write_json(inst_path, cert.instance_to_payload(e2_instance))
    rc = cmd_construct(
        str(inst_path), str(cert_path), coeff_bound=15, u_budget=999999,
        t_budget=999998, isometry_budget=9999, out=io.StringIO(),
    )
    assert rc == EXIT_OK
    budgets = {"coeff_bound": 15, "u_budget": 999999, "t_budget": 999998, "isometry_budget": 9999}
    assert passed == [budgets]
    assert cert.read_json(cert_path)["budgets"] == {k: str(v) for k, v in budgets.items()}
    assert cmd_verify([str(cert_path)], out=io.StringIO()) == EXIT_OK


def test_cli_construct_unexpected_error_is_one_line(e2_instance, tmp_path, monkeypatch):
    # a crash is an input error named with its file; a failed pipeline
    # self-check is a failure (exit 1) that names the check
    from hkcert import construction
    from hkcert.errors import ConstructionInvariantViolated

    inst_path = tmp_path / "e2.json"
    cert_path = tmp_path / "e2.cert.json"
    cert.write_json(inst_path, cert.instance_to_payload(e2_instance))
    for exc, code, line in (
        (ZeroDivisionError("boom"), EXIT_INPUT, f"error: {inst_path}: ZeroDivisionError: boom"),
        (ConstructionInvariantViolated("pipeline check failed: transport_det"), EXIT_FAIL,
         "error: pipeline check failed: transport_det"),
    ):
        def run_pipeline(inst, **budgets):
            raise exc

        monkeypatch.setattr(construction, "run_pipeline", run_pipeline)
        out = io.StringIO()
        assert cmd_construct(str(inst_path), str(cert_path), out=out) == code
        assert out.getvalue() == line + "\n"
        assert not cert_path.exists()


@pytest.mark.parametrize("k", [200, 1200])
def test_cli_construct_huge_d_is_input_error_subprocess(tmp_path, k):
    # d = 10^k: at k = 200 the rank factor n! r^n, at k = 1200 already a
    # check's details, passes the 4300-digit int/str limit; either way one
    # line and exit 2, no traceback and no certificate file
    from hkcert.instance import random_instance

    inst_path = tmp_path / "huge.json"
    cert_path = tmp_path / "huge.cert.json"
    cert.write_json(inst_path, cert.instance_to_payload(random_instance(6, 2, 3, 10**k, 5)))
    r = _hkcert("construct", "-i", str(inst_path), "-o", str(cert_path), capture_output=True)
    assert r.returncode == EXIT_INPUT, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {inst_path}: ")
    assert "Traceback" not in r.stdout + r.stderr
    assert not cert_path.exists()


def test_cli_construct_huge_n_is_refused_at_once(tmp_path):
    # n = 10^6 makes n! r^n about 2 * 10^7 bits; construct refuses it from
    # the bit lengths alone, in one line, before forming the product
    from test_construction import huge_n_instance

    inst_path = tmp_path / "huge_n.json"
    cert_path = tmp_path / "huge_n.cert.json"
    cert.write_json(inst_path, cert.instance_to_payload(huge_n_instance(10**6)))
    out = io.StringIO()
    start = time.perf_counter()
    assert cmd_construct(str(inst_path), str(cert_path), out=out) == EXIT_INPUT
    assert time.perf_counter() - start < 1
    assert out.getvalue() == (
        f"error: {inst_path}: rank factor n! r^n would have more than 1048576 bits "
        "(n has 20 bits, r has 7)\n"
    )
    assert not cert_path.exists()


def test_cli_construct_normalizes_negative_b(e2_instance, lam2, tmp_path):
    neg = e2_instance.replace(B=lam2.vector([0, 0, 1, -1] + [0] * 19), d=1)
    inst_path = tmp_path / "neg.json"
    cert_path = tmp_path / "neg.cert.json"
    cert.write_json(inst_path, cert.instance_to_payload(neg))
    assert cmd_construct(str(inst_path), str(cert_path)) == EXIT_OK
    assert cmd_verify([str(cert_path)]) == EXIT_OK


@pytest.mark.parametrize(
    "coords, line",
    [([0] * 23, "b_norm_positive norm 0"), ([0, 0, 2, -2] + [0] * 19, "b_norm_positive norm -8")],
    ids=["zero_b", "twice_e2_minus_f2"],
)
def test_cli_construct_unnormalizable_b_is_refused_at_once(e2_instance, lam2, tmp_path, coords, line):
    # with d = 2, gcd(d, content(B)) = 2 divides every shift B - d*c, so none is
    # primitive: construct names validation's first failing check instead
    # of scanning all 200 000 shifts into "search exhausted"
    inst_path = tmp_path / "unnormalizable.json"
    cert_path = tmp_path / "unnormalizable.cert.json"
    inst = e2_instance.replace(B=lam2.vector(coords))
    assert inst.d == 2
    cert.write_json(inst_path, cert.instance_to_payload(inst))
    out = io.StringIO()
    start = time.perf_counter()
    assert cmd_construct(str(inst_path), str(cert_path), out=out) == EXIT_INPUT
    assert time.perf_counter() - start < 1
    assert out.getvalue() == f"error: invalid instance: {line}\n"
    assert not cert_path.exists()


@pytest.mark.parametrize("rho", [6, 10])
def test_cli_construct_negative_definite_pic_is_exhausted_at_once(e2_instance, lam2, tmp_path, rho):
    # Pic = a1 ... a_rho (the first E8(-1) block, then the second's b1, b2)
    # holds no class of positive norm: find_omega reads that off the Picard
    # form's signature, with the message of the scan of the 33^(rho - 2)
    # prefixes of its coefficient box that it skips (36.6 s at rho = 6)
    basis = [lam2.basis_vector(i) for i in range(6, 6 + rho)]
    inst = e2_instance.replace(n=2, pic_basis=tuple(basis), W=basis[0], B=lam2.vector([0, 0, 1, 1] + [0] * 19),
                               d=2, C0=3)
    cert.write_json(tmp_path / "negative.json", cert.instance_to_payload(inst))
    start = time.perf_counter()
    r = _hkcert("construct", "-i", "negative.json", "-o", "negative.cert.json", cwd=tmp_path,
                capture_output=True, timeout=30)
    assert time.perf_counter() - start < 1
    assert (r.returncode, r.stderr) == (EXIT_BUDGET, "")
    assert r.stdout == "error: search exhausted: no positive-norm class orthogonal to W within coefficient bound 16\n"
    assert not (tmp_path / "negative.cert.json").exists()


def test_cli_construct_validates_before_it_shifts_b(e2_instance, lam2, tmp_path):
    # 20 small random Picard rows span a non-saturated lattice, and B = a1
    # has norm -2: no B shift can mend pic_saturated, so construct names it
    # instead of scanning shifts into "search exhausted"
    rng = random.Random(0)
    rows = rng.choice([8, 12, 16, 20, 22])
    pic = tuple(lam2.vector([rng.randint(-3, 3) for _ in range(23)]) for _ in range(rows))
    inst = e2_instance.replace(pic_basis=pic, B=lam2.basis_vector(6))
    inst_path = tmp_path / "unsaturated.json"
    cert_path = tmp_path / "unsaturated.cert.json"
    cert.write_json(inst_path, cert.instance_to_payload(inst))
    out = io.StringIO()
    assert cmd_construct(str(inst_path), str(cert_path), out=out) == EXIT_INPUT
    assert out.getvalue() == f"error: invalid instance: pic_saturated invariant factors {[1] * 19 + [2]}\n"
    assert not cert_path.exists()


def test_cli_verify_tampered_exit_code(e2_payload, tmp_path):
    assert _cli_verify(tmp_path / "tampered.json", _sigma_tampered(e2_payload))[0] == EXIT_FAIL


def test_cli_verify_malformed_exit_code(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text('{"schema_version": "hkcert/1"}')
    assert cmd_verify([str(p)]) == EXIT_INPUT


def test_cli_verify_multiple_jobs(e2_payload, tmp_path):
    paths = []
    for i in range(3):
        p = tmp_path / f"c{i}.json"
        cert.write_json(p, e2_payload)
        paths.append(str(p))
    assert cmd_verify(paths, jobs=2) == EXIT_OK


def _inline_pool(monkeypatch, cpus, affinity=True):
    """Replace ProcessPoolExecutor by a pool that maps in this process and
    starts no process, and return the list of the max_workers it is asked
    for.  The usable CPUs read as `cpus`: through os.sched_getaffinity or,
    with `affinity` false, through os.cpu_count with os.sched_getaffinity
    removed."""
    import concurrent.futures

    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return asked


def _copies(payload, tmp_path, count):
    paths = []
    for i in range(count):
        p = tmp_path / f"c{i}.json"
        cert.write_json(p, payload)
        paths.append(str(p))
    return paths


def test_cli_verify_jobs_starts_no_more_workers_than_files(e2_payload, tmp_path, monkeypatch):
    # a fork-started pool launches max_workers processes at the first submit,
    # so the pool is asked for one worker per file at most; 8 usable CPUs are
    # stubbed, so the cap does not depend on the machine
    paths = _copies(e2_payload, tmp_path, 2)
    alone = io.StringIO()
    rc = cmd_verify(paths, out=alone)
    asked = _inline_pool(monkeypatch, 8)
    out = io.StringIO()
    assert cmd_verify(paths, jobs=64, out=out) == rc == EXIT_OK
    assert asked == [2]
    assert out.getvalue() == alone.getvalue()


def test_cli_verify_jobs_starts_no_more_workers_than_usable_cpus(e2_payload, tmp_path, monkeypatch):
    # --jobs 64 on 5 files asks for min(64, 5, usable CPUs) workers: the
    # CPUs in this process's affinity set, else os.cpu_count(), else 1; one
    # usable CPU asks for no pool, and verifies in this process
    paths = _copies(e2_payload, tmp_path, 5)
    alone = io.StringIO()
    rc = cmd_verify(paths, out=alone)
    for cpus, affinity, asks in ((3, True, [3]), (64, True, [5]), (2, False, [2]), (None, False, []), (1, True, [])):
        asked = _inline_pool(monkeypatch, cpus, affinity)
        out = io.StringIO()
        assert cmd_verify(paths, jobs=64, out=out) == rc == EXIT_OK
        assert asked == asks
        assert out.getvalue() == alone.getvalue()


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_verify_prints_each_file_before_the_next_is_verified(tmp_path, monkeypatch, jobs):
    # a file's lines are written and flushed once it and every file before
    # it are done, not at the end of the batch; --jobs 2 maps in this process
    # here, lazily in input order, as the process pool's map yields
    from hkcert import cli

    events = []

    class Out(io.StringIO):
        def flush(self):
            events.append(("flushed", self.getvalue()))

    def verify_one(path):
        events.append(("verified", path))
        return EXIT_OK, [f"{path}: OK"]

    monkeypatch.setattr(cli, "_verify_one", verify_one)
    if jobs > 1:
        _inline_pool(monkeypatch, 8)
    assert cmd_verify(["a", "b"], jobs=jobs, out=Out()) == EXIT_OK
    assert events == [("verified", "a"), ("flushed", "a: OK\n"), ("verified", "b"), ("flushed", "a: OK\nb: OK\n")]


def _set(path, value):
    def mutate(payload):
        _parent(payload, path)[path[-1]] = value
        return payload

    return mutate


def _drop(path):
    def mutate(payload):
        del _parent(payload, path)[path[-1]]
        return payload

    return mutate


def _forged(payload, fields):
    # set {key path: value} fields and recompute the digest to match
    bad = copy.deepcopy(payload)
    for path, value in fields.items():
        _set(path, value)(bad)
    bad["digest"] = cert.compute_digest(bad)
    return bad


@pytest.mark.parametrize("field", ["t", "g"])
def test_verify_zero_t_or_g_fails_cleanly(e2_payload, tmp_path, field):
    bad = _forged(e2_payload, {("record", field): "0"})
    failed = {c.name: c.details for c in cert.verify_payload(bad) if not c.ok}
    assert failed["alpha_matches_record"] == failed["alpha_is_b_field"] == "4gtd^2 = 0"
    code, text = _cli_verify(tmp_path / "zero.json", bad)
    assert code == EXIT_FAIL and "FAIL alpha_is_b_field 4gtd^2 = 0" in text


def test_cli_verify_jobs_reports_every_file(e2_payload, tmp_path):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    cert.write_json(bad, _forged(e2_payload, {("record", "t"): "0"}))
    cert.write_json(good, e2_payload)
    out = io.StringIO()
    assert cmd_verify([str(bad), str(good)], jobs=2, out=out) == EXIT_FAIL
    lines = out.getvalue().splitlines()
    assert any(line.startswith(f"{bad}: FAIL") for line in lines)
    assert f"{good}: OK" in "\n".join(lines)


@pytest.fixture(scope="module")
def bigd_payload():
    # the corpus entry bigd-41006: d_max = 10^150, sigma entries of over 1600
    # digits on five moved columns
    return copy.deepcopy(certified(next(e for e in CORPUS if _entry_id(e) == "bigd-41006"))[1])


def test_verify_detects_tamper_in_big_sigma_block(bigd_payload, tmp_path):
    # the Gram identity pairs the moved columns on one triangle of their
    # block only: an entry off by one below, on or above its diagonal fails it
    rows = bigd_payload["record"]["sigma"]
    L = lattice.build_lambda(3)
    s = lattice.Isometry(tuple(cert._dec_ints(row, "sigma") for row in rows), L)._moved
    assert len(s) == 5 and max(len(x) for row in rows for x in row) > 1600
    p = tmp_path / "bigd.json"
    code, text = _cli_verify(p, bigd_payload)
    assert code == EXIT_OK and text.startswith(f"{p}: OK")
    for i, j in ((s[3], s[1]), (s[2], s[2]), (s[1], s[3])):
        bad = _forged(bigd_payload, {("record", "sigma", i, j): str(int(rows[i][j]) + 1)})
        line = f"{p}: FAIL sigma_gram_identity matrix does not preserve the Gram form\n"
        assert _cli_verify(p, bad) == (EXIT_FAIL, line)


ZERO_VECTOR = ["0"] * 23
ZERO_FORGERIES = {  # forged fields -> the check that must fail instead of raising
    "source": ({("record", "source"): ZERO_VECTOR}, "transport_div_source"),
    "target": ({("record", "target"): ZERO_VECTOR}, "transport_div_target"),
    "D_and_g": ({("record", "D"): ZERO_VECTOR, ("record", "g"): "0"}, "twist_divisibility"),
    "A": ({("record", "A"): ZERO_VECTOR}, "class_a_divisibility"),
    "W": ({("instance", "W"): ZERO_VECTOR}, "instance_w_primitive"),
    "B": ({("instance", "B"): ZERO_VECTOR}, "instance_b_primitive"),
}
# each forgery's full set of failing checks: a zero vector has divisibility 0
# and is not primitive, so it fails exactly the checks that ask for 1
ZERO_FORGERY_FAILURES = {
    "source": {"source_formula", "transport_div_source", "transport_maps", "transport_norms"},
    "target": {"target_formula", "transport_div_target", "transport_maps", "transport_norms"},
    "D_and_g": {
        "alpha_is_b_field", "alpha_matches_record", "degree_formula", "divisor_bound",
        "divisor_divisibility", "divisor_formula", "divisor_pairing_w", "mukai_r_formula",
        "mukai_s_formula", "mukai_stability", "source_formula", "target_formula",
        "twist_divisibility", "wall_parameters",
    },
    "A": {"class_a_divisibility", "class_a_pairing", "divisor_formula"},
    "W": {"class_a_pairing", "divisor_pairing_w", "instance_w_norm_bound", "instance_w_primitive"},
    "B": {
        "alpha_is_b_field", "e_matches_b", "instance_b_norm_positive", "instance_b_primitive",
        "target_formula",
    },
}


@pytest.mark.parametrize("case", sorted(ZERO_FORGERIES))
def test_verify_zero_vector_fails_cleanly(e2_payload, tmp_path, case):
    fields, check = ZERO_FORGERIES[case]
    bad = _forged(e2_payload, fields)
    checks = cert.verify_payload(bad)
    assert [c.name for c in checks] == [c.name for c in cert.verify_payload(e2_payload)]
    assert check in {c.name for c in checks if not c.ok}
    assert _cli_verify(tmp_path / "zero.json", bad)[0] == EXIT_FAIL


@pytest.mark.parametrize("case", sorted(ZERO_FORGERIES))
def test_verify_zero_vector_failing_checks(e2_payload, case):
    fields, _ = ZERO_FORGERIES[case]
    failed = {c.name for c in cert.verify_payload(_forged(e2_payload, fields)) if not c.ok}
    assert failed == ZERO_FORGERY_FAILURES[case]


def test_cli_verify_jobs_reports_every_file_with_zero_vectors(e2_payload, tmp_path):
    good = tmp_path / "good.json"
    cert.write_json(good, e2_payload)
    paths = [str(good)]
    for case, (fields, _) in sorted(ZERO_FORGERIES.items()):
        p = tmp_path / f"{case}.json"
        cert.write_json(p, _forged(e2_payload, fields))
        paths.append(str(p))
    out = io.StringIO()
    assert cmd_verify(paths, jobs=2, out=out) == EXIT_FAIL
    text = out.getvalue()
    assert f"{good}: OK" in text
    for p in paths[1:]:
        assert f"{p}: FAIL" in text


@pytest.mark.parametrize("verdict", ["x", 1.5, [[1]], 1, "true", None])
def test_verify_wall_verdict_must_be_true(e2_payload, verdict):
    bad = _forged(e2_payload, {("wall", "verdict"): verdict})
    failed = {c.name for c in cert.verify_payload(bad) if not c.ok}
    assert failed == {"wall_verdict"}


def _plain_ints(node):
    # the payload with each decimal string as a plain JSON integer
    if isinstance(node, dict):
        return {k: _plain_ints(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_plain_ints(v) for v in node]
    try:
        return int(node) if isinstance(node, str) else node
    except ValueError:
        return node


@pytest.mark.parametrize("entry", CORPUS[:2], ids=["e2", "C0=6"])
def test_cli_verify_accepts_plain_json_integers(entry, tmp_path):
    # the parser reads an integer entry as it reads its decimal string, the
    # wall's tested values of a (one pair at C0 = 3, two at C0 = 6) included
    payload = certified(entry)[1]
    plain = _plain_ints(payload)
    plain["digest"] = cert.compute_digest(plain)
    tested = plain["wall"]["tested_a"]
    assert tested == [[a, a * plain["wall"]["C1"]] for a in range(1, len(tested) + 1)]
    checks = cert.verify_payload(plain)
    assert [(c.name, c.ok) for c in checks] == [(c.name, c.ok) for c in cert.verify_payload(payload)]
    p = tmp_path / "plain.json"
    assert _cli_verify(p, plain) == (EXIT_OK, f"{p}: OK ({len(checks)} checks)\n")


_MALFORMED_TESTED_A = [
    ([["x", "1"]], "bad integer 'x'"),
    ([["01", "1"]], "bad integer '01'"),
    ([[" 1", 1]], "bad integer ' 1'"),
    ([["1.0", 1]], "bad integer '1.0'"),
    ([[True, 1]], "expected an integer or decimal string"),
    ([[1.0, 1]], "expected an integer or decimal string"),
    ([[None, 1]], "expected an integer or decimal string"),
    ([[[1], 1]], "expected an integer or decimal string"),
    ([[1, 1, 1]], "expected 2 coordinates"),
    ([[1]], "expected 2 coordinates"),
    ([[2, 2]], None),
    (["11"], "expected 2 coordinates"),
    ([{"1": 1}], "expected 2 coordinates"),
    ([None], "expected 2 coordinates"),
]


@pytest.mark.parametrize("tested_a, reason", _MALFORMED_TESTED_A,
                         ids=[f"tested_a{i}" for i in range(len(_MALFORMED_TESTED_A))])
def test_cli_verify_malformed_tested_a_fails_wall_enumeration(e2_payload, tmp_path, tested_a, reason):
    # an entry other than a list of two integers, each an int or its exact
    # decimal string, is a format error (exit 2) that names the wall list,
    # even a row that spells the pair ("11" for ["1", "1"]); a well-formed
    # pair that is not the enumerated one fails that one check (exit 1)
    bad = _forged(e2_payload, {("wall", "tested_a"): tested_a})
    p = tmp_path / "bad.json"
    if reason is None:
        assert [c.name for c in cert.verify_payload(bad) if not c.ok] == ["wall_enumeration"]
        assert _cli_verify(p, bad) == (EXIT_FAIL, f"{p}: FAIL wall_enumeration\n")
    else:
        assert _cli_verify(p, bad) == (EXIT_INPUT, f"{p}: malformed certificate: wall.tested_a: {reason}\n")


@pytest.mark.parametrize("at", [0, 1, 2])
def test_verify_decodes_every_wall_entry(e2_payload, at):
    # at C0 = 10 three pairs are enumerated: a malformed one is a format
    # error wherever it sits, after a mismatch too, and with a list too
    # long, or a g below C0*C1 that makes wall_certificate refuse, as well
    good = [["1", "1"], ["2", "2"], ["3", "3"]]
    wall = {("wall", "g"): "11", ("wall", "C1"): "1", ("wall", "C0"): "10"}
    for fields in (wall, {**wall, ("wall", "g"): "5"}, {**wall, ("wall", "C0"): "3"}):
        bad = copy.deepcopy(good)
        bad[0][0] = "9"
        bad[at][1] = "+%d" % (at + 1)
        with pytest.raises(cert.CertificateFormatError, match=f"^wall.tested_a: bad integer '\\+{at + 1}'$"):
            cert.verify_payload(_forged(e2_payload, {**fields, ("wall", "tested_a"): bad}))
    checks = cert.verify_payload(_forged(e2_payload, {**wall, ("wall", "tested_a"): good}))
    assert [c.name for c in checks if not c.ok] == ["wall_parameters"]


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
_FULLWIDTH = str.maketrans("0123456789", "".join(chr(0xFF10 + i) for i in range(10)))
# spellings of a positive integer's digits that int() reads as that integer,
# then texts that are no integer's str(); each is refused (exit 2)
_SPELLINGS = {
    "+2": lambda s: "+" + s,
    "0_2": lambda s: "0_" + s,
    " 2 ": lambda s: f" {s} ",
    "0002": lambda s: "000" + s,
    "\u0662": lambda s: s.translate(_ARABIC_INDIC),
    "\uff12": lambda s: s.translate(_FULLWIDTH),
    "": lambda s: "",
    "1e3": lambda s: "1e3",
    "-0": lambda s: "-0",
    "0x10": lambda s: "0x10",
}
_INT_AS_READ = {"+2", "0_2", " 2 ", "0002", "\u0662", "\uff12"}


@pytest.mark.parametrize("spelling", sorted(_SPELLINGS), ids=ascii)
@pytest.mark.parametrize("path, label", [
    (("record", "g"), "g"),
    (("record", "A", None), "A"),
    (("record", "sigma", 3, None), "sigma"),
    (("wall", "tested_a", 0, None), "wall.tested_a"),
], ids=["scalar", "vector", "sigma_row", "wall_pair"])
def test_cli_verify_reads_only_the_text_str_writes(e2_payload, tmp_path, path, label, spelling):
    # one integer grammar, 0|-?[1-9][0-9]*: an integer field, a vector entry,
    # a sigma row and a wall pair with one value spelled otherwise, digest
    # recomputed, end in one line that names the field and exit 2; a None
    # in the path stands for the list's first positive entry
    if path[-1] is None:
        row = _parent(e2_payload, path)
        path = path[:-1] + (next(i for i, x in enumerate(row) if int(x) > 0),)
    value = _parent(e2_payload, path)[path[-1]]
    text = _SPELLINGS[spelling](value)
    if spelling in _INT_AS_READ:
        assert int(text) == int(value)
    p = tmp_path / "spelled.json"
    assert _cli_verify(p, _forged(e2_payload, {path: text})) == (
        EXIT_INPUT, f"{p}: malformed certificate: {label}: bad integer {text!r}\n")


def test_cli_verify_reads_the_json_number_minus_zero_as_zero(e2_payload, tmp_path):
    # JSON reads the number -0 as the integer 0, and so does verify; only the
    # string "-0" is refused, since str(0) is "0"
    i = e2_payload["record"]["A"].index("0")
    forged = _forged(e2_payload, {("record", "A", i): 0})
    forged["record"]["A"][i] = "minus zero"
    p = tmp_path / "minus_zero.json"
    p.write_text(json.dumps(forged).replace('"minus zero"', "-0"))
    out = io.StringIO()
    assert cmd_verify([str(p)], out=out) == EXIT_OK
    assert out.getvalue() == f"{p}: OK ({len(cert.verify_payload(e2_payload))} checks)\n"


@pytest.mark.parametrize("spelling", sorted(_SPELLINGS), ids=ascii)
def test_cli_construct_reads_only_the_text_str_writes(e2_instance, tmp_path, spelling):
    # instance files take the certificate's grammar
    payload = cert.instance_to_payload(e2_instance)
    payload["d"] = text = _SPELLINGS[spelling](payload["d"])
    p = tmp_path / "spelled.json"
    cert.write_json(p, payload)
    out = io.StringIO()
    assert cmd_construct(str(p), str(tmp_path / "cert.json"), out=out) == EXIT_INPUT
    assert out.getvalue() == f"error: {p}: d: bad integer {text!r}\n"
    assert not (tmp_path / "cert.json").exists()


def test_verify_rejects_huge_c0_forgery_fast(e2_payload):
    big_c0, big_g = str(10**24), str(10**30)
    bad = _forged(e2_payload, {("instance", "C0"): big_c0, ("wall", "C0"): big_c0,
                               ("record", "g"): big_g, ("wall", "g"): big_g})
    start = time.perf_counter()
    checks = cert.verify_payload(bad)
    assert time.perf_counter() - start < 1.0
    failed = {c.name: c.details for c in checks if not c.ok}
    assert failed["wall_enumeration"] == f"expected {10**12 - 1} tested values of a"


@pytest.mark.parametrize("n", [str(10**6), "3000000", str(10**31)])
def test_verify_rejects_huge_n_forgery_fast(e2_payload, n):
    # n! r^n would take minutes for n = 3 * 10^6 and overflow for 10^31
    bad = _forged(e2_payload, {("instance", "n"): n})
    start = time.perf_counter()
    checks = cert.verify_payload(bad)
    assert time.perf_counter() - start < 1.0
    assert "rank_factor" in {c.name for c in checks if not c.ok}
    names = [c.name for c in cert.verify_payload(e2_payload)]
    assert [c.name for c in checks].index("rank_factor") == names.index("rank_factor")


def test_verify_rank_factor_one_bit_short_fails(e2_payload):
    rk_un = int(e2_payload["record"]["rk_un"])
    bad = _forged(e2_payload, {("record", "rk_un"): str(rk_un >> 1)})
    failed = {c.name for c in cert.verify_payload(bad) if not c.ok}
    assert failed == {"rank_factor"}


@pytest.mark.parametrize("n", ["3000000", str(10**31)])
def test_cli_verify_huge_n_forgery_exit_code(e2_payload, tmp_path, n):
    p = tmp_path / "huge_n.json"
    cert.write_json(p, _forged(e2_payload, {("instance", "n"): n}))
    out = io.StringIO()
    start = time.perf_counter()
    assert cmd_verify([str(p)], out=out) == EXIT_FAIL
    assert time.perf_counter() - start < 1.0
    assert f"{p}: FAIL rank_factor" in out.getvalue()


@pytest.mark.parametrize("r", ["1", "0"])
def test_verify_rank_factor_small_r_with_huge_n_fast(e2_payload, r):
    # r < 2 gives no lower bound on n! r^n, so the check must not compute it
    bad = _forged(e2_payload, {("instance", "n"): "3000000", ("record", "v0", "r"): r})
    start = time.perf_counter()
    checks = cert.verify_payload(bad)
    assert time.perf_counter() - start < 1.0
    assert "rank_factor" in {c.name for c in checks if not c.ok}


def test_verify_builds_picard_smith_form_once(e2_payload, monkeypatch):
    # from cold caches with the Gram Smith form warm, the Picard matrix's is
    # the only Smith form built: by verify alone, and by construct then verify
    inst = cert.instance_from_payload(e2_payload["instance"])
    pic = [[p.coords[i] for p in inst.pic_basis] for i in range(inst.lattice.rank)]
    lattice._discriminant_generators(inst.lattice)
    caches = [f for f in vars(lattice).values() if hasattr(f, "cache_clear")]
    calls = []
    real = snf.smith_normal_form

    def counting(M):
        calls.append([list(row) for row in M] == pic)
        return real(M)

    monkeypatch.setattr(snf, "smith_normal_form", counting)
    for run_construct in (False, True):
        for cache in caches:
            if cache is not lattice._discriminant_generators:
                cache.cache_clear()
        calls.clear()
        if run_construct:
            run_pipeline(inst)
        assert all(c.ok for c in cert.verify_payload(e2_payload))
        assert calls == [True]


def _bare_big_u(payload):
    # the record's u as a bare 5000-digit JSON integer, over Python's
    # int/str conversion limit, so json.load raises a plain ValueError
    text = json.dumps(payload)
    u = payload["record"]["u"]
    assert text.count(f'"u": "{u}"') == 1
    return text.replace(f'"u": "{u}"', '"u": ' + "9" * 5000)


def test_cli_verify_int_digit_limit_is_format_error(e2_payload, tmp_path):
    p = tmp_path / "big_u.json"
    p.write_text(_bare_big_u(e2_payload))
    with pytest.raises(cert.CertificateFormatError):
        cert.read_json(p)
    out = io.StringIO()
    assert cmd_verify([str(p)], out=out) == EXIT_INPUT
    assert out.getvalue().startswith(f"{p}: malformed certificate: not valid JSON")
    assert len(out.getvalue().splitlines()) == 1


def test_cli_verify_jobs_int_digit_limit_keeps_good_verdict(e2_payload, tmp_path):
    bad, good = tmp_path / "big_u.json", tmp_path / "good.json"
    bad.write_text(_bare_big_u(e2_payload))
    cert.write_json(good, e2_payload)
    out = io.StringIO()
    assert cmd_verify([str(bad), str(good)], jobs=2, out=out) == EXIT_INPUT
    text = out.getvalue()
    assert f"{bad}: malformed certificate: not valid JSON" in text
    assert f"{good}: OK" in text


def _repeated_key(payload, path, value):
    # the payload's JSON text with the key at a key path written twice: first
    # with value, then with its own value, the one a last-key-wins reader keeps
    payload = copy.deepcopy(payload)
    node, key = _parent(payload, path), path[-1]
    items = list(node.items())
    node.clear()
    for k, v in items:
        if k == key:
            node["\0"] = value
        node[k] = v
    return json.dumps(payload).replace(json.dumps("\0"), json.dumps(key))


@pytest.mark.parametrize("path, value", [
    (("digest",), "sha256:" + "0" * 64),
    (("instance", "d"), "999"),
    (("record", "u"), "0"),
    (("checks", 0, "ok"), False),
])
def test_cli_verify_refuses_a_repeated_key(e2_payload, tmp_path, path, value):
    # a repeated key is refused, not read as its last value: the digest is
    # taken of the parsed payload, so it would not see the first one
    p = tmp_path / "repeated.json"
    p.write_text(_repeated_key(e2_payload, path, value))
    assert json.loads(p.read_text()) == e2_payload
    message = f"not valid JSON: repeated key {path[-1]!r}"
    with pytest.raises(cert.CertificateFormatError, match=f"^{message}$"):
        cert.read_json(p)
    out = io.StringIO()
    assert cmd_verify([str(p)], out=out) == EXIT_INPUT
    assert out.getvalue() == f"{p}: malformed certificate: {message}\n"


def test_cli_construct_refuses_a_repeated_key(e2_instance, tmp_path):
    p = tmp_path / "repeated.json"
    p.write_text(_repeated_key(cert.instance_to_payload(e2_instance), ("d",), "999"))
    out = io.StringIO()
    assert cmd_construct(str(p), str(tmp_path / "cert.json"), out=out) == EXIT_INPUT
    assert out.getvalue() == f"error: {p}: not valid JSON: repeated key 'd'\n"
    assert not (tmp_path / "cert.json").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_deeply_nested_json_is_format_error(e2_payload, tmp_path, jobs):
    # nested past the decoder's recursion limit, json.load raises
    # RecursionError rather than a ValueError
    bad, good = tmp_path / "deep.json", tmp_path / "good.json"
    bad.write_text("[" * 200000 + "]" * 200000)
    cert.write_json(good, e2_payload)
    out = io.StringIO()
    assert cmd_verify([str(bad), str(good)], jobs=jobs, out=out) == EXIT_INPUT
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"{bad}: malformed certificate: not valid JSON: ")
    assert lines[1] == f"{good}: OK ({len(cert.verify_payload(e2_payload))} checks)"
    out = io.StringIO()
    assert cmd_construct(str(bad), str(tmp_path / "out.json"), out=out) == EXIT_INPUT
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {bad}: not valid JSON: ")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_verify_crash_keeps_other_verdicts(e2_payload, tmp_path, monkeypatch, jobs):
    # an unexpected exception is one line for its own file; every other
    # file's lines are the ones it gets alone, in input order
    paths = [tmp_path / f"c{i}.json" for i in range(3)]
    for p in paths:
        cert.write_json(p, e2_payload)
    alone = []
    for p in paths:
        out = io.StringIO()
        assert cmd_verify([str(p)], out=out) == EXIT_OK
        alone.append(out.getvalue())
    crash = copy.deepcopy(e2_payload)
    crash["crash"] = True
    cert.write_json(paths[1], crash)
    real = cert.verify_payload

    def verify_payload(payload):
        if payload.get("crash"):
            raise ZeroDivisionError("boom")
        return real(payload)

    monkeypatch.setattr(cert, "verify_payload", verify_payload)
    if jobs > 1:
        # the patch reaches the workers through fork only, which CPython 3.14
        # no longer starts them by on Linux (forkserver)
        import concurrent.futures
        import functools
        import multiprocessing

        pool = functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    out = io.StringIO()
    assert cmd_verify([str(p) for p in paths], jobs=jobs, out=out) == EXIT_INPUT
    assert out.getvalue() == "".join(
        [alone[0], f"{paths[1]}: malformed certificate: ZeroDivisionError: boom\n", alone[2]]
    )


def _huge_omega(payload):
    # omega = (10^3000, 10^3000, 0, ...) is readable, but its norm 2 * 10^6000
    # has more digits than int -> str converts, so the omega_positive details
    # cannot print it
    big = str(10**3000)
    return _forged(payload, {("record", "omega"): [big, big] + ["0"] * 21})


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_verify_unprintable_integer_is_format_error(e2_payload, tmp_path, jobs):
    bad, good = tmp_path / "huge_omega.json", tmp_path / "good.json"
    cert.write_json(bad, _huge_omega(e2_payload))
    cert.write_json(good, e2_payload)
    out = io.StringIO()
    assert cmd_verify([str(bad), str(good)], jobs=jobs, out=out) == EXIT_INPUT
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"{bad}: malformed certificate: ")
    assert lines[1] == f"{good}: OK ({len(cert.verify_payload(e2_payload))} checks)"


def test_cli_import_leaves_out_unused_modules():
    # start-up loads neither the process pool (multiprocessing; only a
    # --jobs run of two or more workers needs it), nor dataclasses with
    # inspect, nor fractions with decimal (the package uses neither).
    # Compared with a bare interpreter, so a module that a site .pth file
    # loads cannot decide the result.
    added = loaded_modules("import hkcert.cli") - loaded_modules("pass")
    assert "hkcert.cli" in added
    unused = {"concurrent.futures", "dataclasses", "inspect", "fractions", "decimal"}
    assert added & unused == set()


def test_verifier_reference_loads_no_pipeline_instance_or_codec():
    # the dense oracles import snf and lattice only, so they share no code
    # with construct, the instance checks, the certificate codec or the sampler
    loaded = loaded_modules("import verifier_reference")
    assert {"hkcert.snf", "hkcert.lattice"} <= loaded
    unused = {"hkcert.construction", "hkcert.instance", "hkcert.certificate", "hkcert.sampler"}
    assert loaded & unused == set()


def test_cli_random_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cmd_random(2, 2, 3, 3, seed=7, count=5, out_dir=str(d1)) == EXIT_OK
    assert cmd_random(2, 2, 3, 3, seed=7, count=5, out_dir=str(d2)) == EXIT_OK
    files1 = sorted(p.name for p in d1.iterdir())
    files2 = sorted(p.name for p in d2.iterdir())
    assert files1 == files2 and len(files1) == 5
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_cli_random_count_zero(tmp_path):
    d = tmp_path / "none"
    assert cmd_random(2, 2, 3, 3, seed=7, count=0, out_dir=str(d)) == EXIT_OK
    assert list(d.iterdir()) == []


def test_cli_random_negative_count_is_input_error(tmp_path):
    # refused before anything is drawn, written or made
    d = tmp_path / "neg"
    out = io.StringIO()
    assert cmd_random(2, 2, 3, 3, seed=7, count=-3, out_dir=str(d), out=out) == EXIT_INPUT
    assert out.getvalue() == "error: count must be >= 0, got -3\n"
    assert not d.exists()


@pytest.mark.parametrize("count", [0, 1])
@pytest.mark.parametrize(
    "n, pic_rank, c0, d_max, line",
    [
        (9, 2, 3, 3, "error: n must be in [2, 6], got 9"),
        (2, 5, 3, 3, "error: pic_rank must be in [2, 4], got 5"),
        (2, 2, 0, 3, "error: C0 and d_max must be positive"),
        (2, 2, 3, 0, "error: C0 and d_max must be positive"),
        (2, 2, 1, 3, "error: C0 must be at least 3 for an even wall norm to lie in (-C0, 0), got 1"),
        (2, 2, 2, 3, "error: C0 must be at least 3 for an even wall norm to lie in (-C0, 0), got 2"),
    ],
)
def test_cli_random_out_of_range_leaves_no_directory(tmp_path, n, pic_rank, c0, d_max, line, count):
    # the sampler's ranges are checked before the output directory is made
    d = tmp_path / "out"
    out = io.StringIO()
    assert cmd_random(n, pic_rank, c0, d_max, seed=7, count=count, out_dir=str(d), out=out) == EXIT_INPUT
    assert out.getvalue() == line + "\n"
    assert not d.exists()


def test_cli_random_unwritable_file_is_one_line(tmp_path):
    # a directory where the instance file should go
    d = tmp_path / "rnd"
    path = d / "instance_7_0000.json"
    path.mkdir(parents=True)
    out = io.StringIO()
    assert cmd_random(2, 2, 3, 3, seed=7, count=1, out_dir=str(d), out=out) == EXIT_INPUT
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")


def test_cli_random_exhausted_generation_is_budget_error(tmp_path, monkeypatch):
    # with every try rejected, every seed exhausts the sampler: exit 3, one
    # line naming the seeds, and no instance file
    monkeypatch.setattr(sampler, "_try_sample", lambda *args: None)
    d = tmp_path / "none"
    out = io.StringIO()
    assert cmd_random(2, 2, 3, 3, seed=5, count=2, out_dir=str(d), out=out) == EXIT_BUDGET
    assert out.getvalue() == "error: generation exhausted for seeds [5, 6]\n"
    assert list(d.iterdir()) == []


def test_cli_random_uncreatable_directory_is_one_line(tmp_path):
    # the output directory would lie under a regular file
    plain = tmp_path / "plain"
    plain.write_text("")
    d = plain / "out"
    out = io.StringIO()
    assert cmd_random(2, 2, 3, 3, seed=7, count=1, out_dir=str(d), out=out) == EXIT_INPUT
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {d}: [Errno 20] Not a directory: ")
    assert not d.exists()


def test_cli_random_outputs_validate(tmp_path):
    d = tmp_path / "r"
    assert cmd_random(3, 2, 4, 2, seed=901, count=4, out_dir=str(d)) == EXIT_OK
    from hkcert.instance import validate_instance

    for p in sorted(d.iterdir()):
        inst = cert.instance_from_payload(cert.read_json(p))
        assert all(c.ok for c in validate_instance(inst))


def test_cli_entry_point_subprocess(e2_instance, e2_payload, tmp_path):
    # `python -m hkcert` ends in os._exit after flushing: each exit code and
    # each stdout byte is the one the in-process command returns and prints
    inst = str(tmp_path / "e2.json")
    cert_path = str(tmp_path / "e2.cert.json")
    tampered = str(tmp_path / "tampered.json")
    missing = str(tmp_path / "missing.json")
    unwritten = str(tmp_path / "unwritten.json")
    cert.write_json(inst, cert.instance_to_payload(e2_instance))
    cert.write_json(tampered, _sigma_tampered(e2_payload))
    cases = [
        (["construct", "-i", inst, "-o", cert_path], EXIT_OK,
         lambda out: cmd_construct(inst, cert_path, out=out)),
        (["verify", cert_path], EXIT_OK, lambda out: cmd_verify([cert_path], out=out)),
        (["verify", tampered], EXIT_FAIL, lambda out: cmd_verify([tampered], out=out)),
        (["verify", missing], EXIT_INPUT, lambda out: cmd_verify([missing], out=out)),
        (["construct", "-i", missing, "-o", unwritten], EXIT_INPUT,
         lambda out: cmd_construct(missing, unwritten, out=out)),
        (["construct", "-i", inst, "-o", unwritten, "--budget-u", "1"], EXIT_BUDGET,
         lambda out: cmd_construct(inst, unwritten, u_budget=1, out=out)),
    ]
    for args, code, in_process in cases:
        r = _hkcert(*args, capture_output=True)
        out = io.StringIO()
        assert in_process(out) == code
        assert (r.returncode, r.stdout, r.stderr) == (code, out.getvalue(), ""), args
    assert not os.path.exists(unwritten)


def test_cli_entry_point_verify_jobs_subprocess(e2_payload, tmp_path):
    # the pool is joined before the process ends, so the run returns (no
    # worker holds the pipe open) with what --jobs 1 prints
    paths = [str(tmp_path / f"c{i}.json") for i in range(3)]
    cert.write_json(paths[0], e2_payload)
    cert.write_json(paths[1], _sigma_tampered(e2_payload))
    cert.write_json(paths[2], e2_payload)
    one = _hkcert("verify", *paths, capture_output=True, timeout=60)
    two = _hkcert("verify", "--jobs", "2", *paths, capture_output=True, timeout=60)
    assert one.returncode == two.returncode == EXIT_FAIL
    assert two.stdout == one.stdout and two.stderr == one.stderr == ""
    named = [line.split(": ")[0] for line in one.stdout.splitlines()]
    assert list(dict.fromkeys(named)) == paths


_CLI_LOADS = """
import sys
from pathlib import Path
from hkcert.cli import main
watched, args = sys.argv[1].split(), sys.argv[2:]
code = main(args)
files = [m.__file__ for name, m in sys.modules.items() if name.split(".")[0] == "hkcert"]
lines = sum(len(Path(f).read_text(encoding="utf-8").splitlines()) for f in files)
print(code, *(name in sys.modules for name in watched), lines)
"""


def _cli_loads(args, cwd, watched=("hkcert.construction", "hkcert.sampler")):
    """Run `hkcert ARGS` through main in a fresh process: its output lines,
    then its exit code, whether it loaded each watched module, and the lines
    of the hkcert modules it loaded."""
    r = subprocess.run(
        [sys.executable, "-c", _CLI_LOADS, " ".join(watched), *args],
        cwd=cwd, capture_output=True, text=True, env=_buffered_child_env(),
    )
    assert (r.returncode, r.stderr) == (0, "")
    *output, summary = r.stdout.splitlines()
    return output, summary.split()


def test_cli_main_passes_each_construct_flag_to_its_budget(e2_instance, tmp_path):
    # four distinct values, none a default: a flag bound to another budget
    # records a value under the wrong name, or exhausts a search
    cert.write_json(tmp_path / "e2.json", cert.instance_to_payload(e2_instance))
    output, (code, loads_construction, _, _) = _cli_loads(
        ["construct", "-i", "e2.json", "-o", "e2.cert.json", "--bound-coeff", "15",
         "--budget-u", "999999", "--budget-t", "999998", "--budget-isometry", "9999"], tmp_path,
    )
    assert len(output) == 1 and output[0].startswith("e2.cert.json: ")
    assert (code, loads_construction) == ("0", "True")
    assert cert.read_json(tmp_path / "e2.cert.json")["budgets"] == {
        "coeff_bound": "15", "u_budget": "999999", "t_budget": "999998", "isometry_budget": "9999"
    }


def test_cli_default_budgets_are_the_table_on_every_path(e2_instance, tmp_path):
    # main with no budget flag, cmd_construct with no budget keyword, and
    # run_pipeline's defaults with the table given to certificate_payload
    # make one certificate, whose budgets block is the table in its order
    from hkcert.construction import normalize_brauer

    cert.write_json(tmp_path / "e2.json", cert.instance_to_payload(e2_instance))
    _, (code, loads_construction, _, _) = _cli_loads(
        ["construct", "-i", "e2.json", "-o", "main.json"], tmp_path
    )
    assert (code, loads_construction) == ("0", "True")
    assert cmd_construct(str(tmp_path / "e2.json"), str(tmp_path / "cmd.json"), out=io.StringIO()) == EXIT_OK
    inst = normalize_brauer(e2_instance)
    rec = run_pipeline(inst)
    payload = cert.certificate_payload(inst, rec, wall_for_record(inst, rec), BUDGETS)
    files = [cert.read_json(tmp_path / name) for name in ("main.json", "cmd.json")]
    assert [p["digest"] for p in files] == [payload["digest"]] * 2
    assert list(payload["budgets"].items()) == [(k, str(v)) for k, v in BUDGETS.items()]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("files", [1, 200])
def test_cli_entry_point_full_stdout_is_reported(e2_payload, tmp_path, files):
    # stdout on /dev/full ends as when the interpreter's own shutdown flushes
    # the same amount of text: exit 120 and "Exception ignored ..." on
    # stderr.  200 files print about 5 KB, which a failed flush drops from
    # the buffer, so a second flush by the shutdown would report nothing.
    names = [f"c{i:03d}.json" for i in range(files)]
    for name in names:
        cert.write_json(tmp_path / name, e2_payload)
    size = len(_hkcert("verify", *names, cwd=tmp_path, capture_output=True).stdout)
    with open("/dev/full", "w") as full:
        r = _hkcert("verify", *names, cwd=tmp_path, stdout=full, stderr=subprocess.PIPE)
        ref = subprocess.run(
            [sys.executable, "-c", f"print('x' * {size - 1})"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_buffered_child_env(),
        )
    assert ref.returncode == 120 and ref.stderr.startswith("Exception ignored ")
    assert (r.returncode, r.stderr) == (ref.returncode, ref.stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("files, unbuffered", [(1, True), (400, False)], ids=["unbuffered", "400_files"])
def test_cli_entry_point_stdout_write_failure_is_reported(e2_payload, tmp_path, files, unbuffered):
    # a print inside main that must write (stdout unbuffered, or a batch past
    # the 8 KiB buffer) and fails ends as a failed final flush of one
    # buffered file does: exit 120 and its one report, no traceback
    names = [f"c{i:03d}.json" for i in range(files)]
    for name in names:
        cert.write_json(tmp_path / name, e2_payload)
    env = _buffered_child_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    else:
        line = f"{names[0]}: OK ({len(cert.verify_payload(e2_payload))} checks)\n"
        assert files * len(line) > 8192
    with open("/dev/full", "w") as full:
        one = _hkcert("verify", names[0], cwd=tmp_path, stdout=full, stderr=subprocess.PIPE)
        r = subprocess.run(
            [sys.executable, "-m", "hkcert", "verify", *names],
            cwd=tmp_path, stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert one.returncode == 120 and one.stderr.startswith("Exception ignored ")
    assert (r.returncode, r.stderr) == (one.returncode, one.stderr)


@pytest.mark.parametrize(
    "stdout, stderr, code, report",
    [
        ("ok", "ok", EXIT_INPUT, ""),
        ("full", "ok", 120, "OSError: [Errno 28] No space left on device\n"),
        ("closed", "ok", EXIT_INPUT, ""),
        ("ok", "full", 120, ""),
        ("ok", None, EXIT_INPUT, ""),
        (None, "ok", EXIT_INPUT, ""),
    ],
    ids=["ok", "stdout_full", "stdout_closed", "stderr_full", "no_stderr", "no_stdout"],
)
def test_cli_run_flushes_as_shutdown_does(tmp_path, monkeypatch, stdout, stderr, code, report):
    # run flushes both streams as the interpreter's shutdown would: a missing
    # or closed stream is skipped, a failed flush makes the status 120, and
    # a failed stdout flush is reported on stderr.  main prints its line to
    # a working stdout; each stream takes its state once main has returned,
    # so that the state meets run's flush and nothing before it; run sets
    # nothing of the library's, so the certificate module ends as it began
    from hkcert import cli

    class Ended(Exception):
        pass

    class Stream(io.StringIO):
        full = False

        def flush(self):
            if self.full:
                raise OSError(28, "No space left on device")

    def then_set_states(argv):
        status = main(argv)
        printed.append(sys.stdout.getvalue())
        for name, kind in (("stdout", stdout), ("stderr", stderr)):
            if kind is None:
                monkeypatch.setattr(sys, name, None)
            elif kind == "closed":
                streams[name].close()
            else:
                streams[name].full = kind == "full"
        return status

    def _exit(status):
        ended.append(status)
        raise Ended

    ended, printed, main = [], [], cli.main
    streams = {"stdout": Stream(), "stderr": Stream()}
    monkeypatch.setattr(cli, "main", then_set_states)
    monkeypatch.setattr(cli.os, "_exit", _exit)
    for name, value in streams.items():
        monkeypatch.setattr(sys, name, value)
    missing = str(tmp_path / "missing.json")
    library = dict(vars(cert))
    with pytest.raises(Ended):
        cli.run(["verify", missing])
    assert ended == [code] and vars(cert) == library
    assert printed[0].startswith(f"{missing}: malformed certificate: ")
    if stderr is not None:
        # the report's first line is the interpreter's, checked against it by
        # test_cli_entry_point_full_stdout_is_reported
        reported = streams["stderr"].getvalue()
        if report:
            assert reported.startswith("Exception ignored ") and reported.endswith(report)
        else:
            assert reported == ""


def test_cli_main_prints_to_stdout_as_it_is_at_the_call(tmp_path):
    # no command binds the stream it prints to when the module is imported
    from hkcert.cli import main

    missing = str(tmp_path / "missing.json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", missing]) == EXIT_INPUT
    assert out.getvalue().startswith(f"{missing}: malformed certificate: ")


_LIBRARY_VERIFY = """
import sys
if sys.argv[2] == "hashlib":
    import hashlib
    digested, sha256 = [], hashlib.sha256
    hashlib.sha256 = lambda data: digested.append(data) or sha256(data)
from hkcert import certificate as cert
checks = cert.verify_payload(cert.read_json(sys.argv[1]))
print(all(c.ok for c in checks), len(digested) if sys.argv[2] == "hashlib" else "-", *sys.modules)
"""


def test_library_digests_use_hashlib_once_imported_and_the_builtin_before(e2_payload, tmp_path):
    # in a fresh interpreter, a library verify that never imported hashlib
    # digests with the built-in SHA-256 and loads neither hashlib nor its
    # OpenSSL module; one that imported hashlib first digests through
    # hashlib.sha256, looked up at the digest
    cert.write_json(tmp_path / "e2.json", e2_payload)
    bare = loaded_modules("pass")
    for mode, digests in (("builtin", "-"), ("hashlib", "1")):
        r = subprocess.run([sys.executable, "-c", _LIBRARY_VERIFY, str(tmp_path / "e2.json"), mode],
                           capture_output=True, text=True, env=_buffered_child_env())
        assert (r.returncode, r.stderr) == (0, "")
        ok, digested, *loaded = r.stdout.split()
        assert (ok, digested) == ("True", digests)
        if mode == "builtin":
            assert {"hashlib", "_hashlib"} & (set(loaded) - bare) == set()


def test_digest_changes_with_content(e2_payload):
    other = _mutate(e2_payload, ("record", "u"), 1)
    assert cert.compute_digest(other) != e2_payload["digest"]
    assert cert.compute_digest(e2_payload) == e2_payload["digest"]


# --- the verifier stays small and total --------------------------------------

# the most lines of src/hkcert/*.py, of the hkcert modules a construct process
# loads, and of those a verify process loads (the whole checker it compiles)
PACKAGE_LINE_BUDGET = 2668
CONSTRUCT_LINE_BUDGET = 2460
VERIFY_LINE_BUDGET = 1647


def test_package_stays_within_its_line_budget():
    files = Path(cert.__file__).parent.glob("*.py")
    assert sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files) <= PACKAGE_LINE_BUDGET


def test_cli_verify_loads_no_search_code_within_its_line_budget(e2_payload, tmp_path):
    # a certifying algorithm's checker is small and apart from the search:
    # a fresh verify process compiles no search code, no sampler and no writer
    cert.write_json(tmp_path / "e2.cert.json", e2_payload)
    output, (code, loads_construction, loads_sampler, loads_writer, lines) = _cli_loads(
        ["verify", "e2.cert.json"], tmp_path, ("hkcert.construction", "hkcert.sampler", "hkcert.writer")
    )
    assert output == [f"e2.cert.json: OK ({len(cert.verify_payload(e2_payload))} checks)"]
    assert (code, loads_construction, loads_sampler, loads_writer) == ("0", "False", "False", "False")
    assert int(lines) <= VERIFY_LINE_BUDGET


# the most bytecode instructions CPython 3.11 executes for one pass over the
# 61 small corpus certificates, after a warm one: of verify_payload, and of
# run_pipeline with the wall and certificate_payload
VERIFY_OPCODE_BUDGET = 1987279
CONSTRUCT_OPCODE_BUDGET = 3485107

_OPCODE_COUNTS = """
import itertools, json, sys
from hkcert import certificate as cert
from hkcert.construction import run_pipeline, wall_for_record
from hkcert.instance import BUDGETS

instances = [cert.instance_from_payload(p) for p in json.load(sys.stdin)]

def construct():
    payloads = []
    for inst in instances:
        rec = run_pipeline(inst)
        payloads.append(cert.certificate_payload(inst, rec, wall_for_record(inst, rec), BUDGETS))
    return payloads

def verify(payloads):
    for payload in payloads:
        cert.verify_payload(payload)

def executed(run, *args):
    ticks = itertools.count()
    def step(frame, event, arg):
        if event == "opcode":
            next(ticks)
        return step
    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return step
    sys.settrace(call)
    try:
        run(*args)
    finally:
        sys.settrace(None)
    return next(ticks)

payloads = construct()
verify(payloads)
print(executed(verify, payloads), executed(construct))
"""


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the budgets are pinned for CPython 3.11: another interpreter compiles other bytecode",
)
def test_verify_and_construct_stay_within_their_opcode_budgets():
    """The bytecode instructions one pass executes are exact and repeatable
    where wall time is noisy: the same for every run and hash seed.  They
    follow wall time on small integers only: one big-integer product is one
    instruction however many digits it has, so the count does not price
    digits and the 61 certificates leave out the corpus's six bigd ones.
    A fresh interpreter starts every cache empty; one warm pass fills them."""
    small = [certified(e)[1]["instance"] for e in CORPUS if e["label"] != "bigd"]
    assert len(small) == 61
    r = subprocess.run([sys.executable, "-c", _OPCODE_COUNTS], input=json.dumps(small),
                       capture_output=True, text=True, env=_buffered_child_env())
    assert (r.returncode, r.stderr) == (0, "")
    verify_count, construct_count = map(int, r.stdout.split())
    assert verify_count <= VERIFY_OPCODE_BUDGET
    assert construct_count <= CONSTRUCT_OPCODE_BUDGET


def wall_instance(k):
    """The wall shape: Pic = {e1 - f1, f1 + M(e2 + f2)}, W = e1 - f1,
    B = e3 + f3, d = 2 and C0 = 10^k, with M = 10^(k//2 + 2) so that u = 1;
    its certificate's wall list has floor(sqrt(C0 - 1)) pairs."""
    from hkcert.instance import HKInstance

    L = lattice.build_lambda(2)
    M = 10 ** (k // 2 + 2)
    w = L.vector([1, -1] + [0] * 21)
    pic = (w, L.vector([0, 1, M, M] + [0] * 19))
    return HKInstance(n=2, pic_basis=pic, W=w, B=L.vector([0] * 4 + [1, 1] + [0] * 17), d=2, C0=10**k)


_VERIFY_PEAKS = """
import resource, subprocess, sys
for path in sys.argv[1:]:
    subprocess.run([sys.executable, "-m", "hkcert", "verify", path], check=True, stdout=subprocess.DEVNULL)
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""

# the most resident memory a verify may take over a small one's, per byte of
# its file, on the wall certificate at C0 = 10^9: 9.1 to 9.6 (CPython 3.10,
# 3.11) and 6.1 to 6.5 (3.12, 3.13) since the wall list is compared with
# obstruction.wall_pairs' iterator, against 11.2 to 11.6 and 9.9 to 10.1
# when verify held the tuple of every pair beside the file
VERIFY_RSS_PER_FILE_BYTE = 11


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
def test_cli_verify_memory_is_bounded_by_its_file(e2_payload, tmp_path):
    small, wall = tmp_path / "e2.json", tmp_path / "wall.json"
    cert.write_json(small, e2_payload)
    inst = wall_instance(9)
    rec = run_pipeline(inst)
    cert.write_json(wall, cert.certificate_payload(inst, rec, wall_for_record(inst, rec), BUDGETS))
    # a fresh interpreter, whose children are the two verifies alone; the
    # peak over its children after the second is the wall certificate's
    r = subprocess.run([sys.executable, "-c", _VERIFY_PEAKS, str(small), str(wall)],
                       capture_output=True, text=True, env=_buffered_child_env())
    assert (r.returncode, r.stderr) == (0, "")
    small_kb, wall_kb = map(int, r.stdout.split())
    assert wall.stat().st_size > 10**6
    assert (wall_kb - small_kb) * 1024 <= VERIFY_RSS_PER_FILE_BYTE * wall.stat().st_size


def test_cli_construct_loads_the_pipeline_and_reproduces_the_golden_digest(e2_instance, tmp_path):
    digest = next(e["digest"] for e in CORPUS if e["label"] == "e2")
    cert.write_json(tmp_path / "e2.json", cert.instance_to_payload(e2_instance))
    output, (code, loads_construction, _, lines) = _cli_loads(
        ["construct", "-i", "e2.json", "-o", "e2.cert.json"], tmp_path
    )
    assert len(output) == 1 and output[0].startswith("e2.cert.json: ")
    assert (code, loads_construction) == ("0", "True")
    assert int(lines) <= CONSTRUCT_LINE_BUDGET
    assert cert.read_json(tmp_path / "e2.cert.json")["digest"] == digest


def test_cli_construct_loads_the_pipeline_but_not_the_sampler(e2_instance, tmp_path):
    # the seeded sampler is test and benchmark tooling: construct runs none
    # of it, so a fresh construct process does not compile it
    cert.write_json(tmp_path / "e2.json", cert.instance_to_payload(e2_instance))
    output, (code, loads_construction, loads_sampler, _) = _cli_loads(
        ["construct", "-i", "e2.json", "-o", "e2.cert.json"], tmp_path
    )
    assert len(output) == 1 and output[0].startswith("e2.cert.json: C1=")
    assert (code, loads_construction, loads_sampler) == ("0", "True", "False")


def imported_modules(args, cwd):
    """The exit code of `python -X importtime ARGS` and the modules that
    process imported, by its import-time report."""
    r = subprocess.run(
        [sys.executable, "-X", "importtime", *args], cwd=cwd, capture_output=True, text=True,
        env=_buffered_child_env(),
    )
    lines = [line for line in r.stderr.splitlines() if line.startswith("import time:")]
    return r.returncode, {line.rsplit("|", 1)[1].strip() for line in lines}


def test_cli_well_formed_command_lines_load_no_argparse(e2_instance, tmp_path):
    # a fresh `python -m hkcert` parses a command line that spells its flags
    # in full without argparse, nor the gettext and locale that argparse
    # loads; it hashes without OpenSSL's hashlib, and loads no __future__;
    # a module a bare interpreter already holds (from a site .pth file)
    # does not count
    watched = ("argparse", "gettext", "locale", "_hashlib", "hashlib", "__future__")
    _, bare = imported_modules(["-c", "pass"], tmp_path)
    cert.write_json(tmp_path / "e2.json", cert.instance_to_payload(e2_instance))
    for args in (
        ["construct", "-i", "e2.json", "-o", "e2.cert.json"],
        ["verify", "e2.cert.json"],
        ["random", "--n", "2", "--pic-rank", "2", "--c0", "3", "--seed", "7", "-o", "out"],
    ):
        code, loaded = imported_modules(["-m", "hkcert", *args], tmp_path)
        assert code == 0 and "hkcert.cli" in loaded
        assert [m for m in watched if m in loaded and m not in bare] == []


def test_annotations_resolve_outside_the_pipeline():
    # every annotation names something its module can resolve, without
    # importing hkcert.construction back onto the verifier's path
    import importlib
    import inspect
    import typing

    for name in ("certificate", "writer", "cli", "instance", "lattice", "snf", "obstruction", "record", "errors"):
        module = importlib.import_module(f"hkcert.{name}")
        for obj in vars(module).values():
            if not (inspect.isfunction(obj) or inspect.isclass(obj)) or obj.__module__ != module.__name__:
                continue
            typing.get_type_hints(obj)
            if inspect.isclass(obj):
                for method in vars(obj).values():
                    if inspect.isfunction(method):
                        typing.get_type_hints(method)


def test_writer_is_forwarded_from_the_certificate_module():
    # the three names construct and random call through hkcert.certificate,
    # and nothing else of the writer's
    import hkcert.writer

    for name in ("instance_to_payload", "write_json", "certificate_payload"):
        assert getattr(cert, name) is getattr(hkcert.writer, name)
    for name in ("_layout", "_enc", "no_such_name"):
        with pytest.raises(AttributeError, match=f"'{name}'"):
            getattr(cert, name)


def _u3_reversed(payload):
    # the U3 forgery: sigma followed by -1 on U3, digest recomputed
    rows = u3_reversed(map(int, row) for row in payload["record"]["sigma"])
    return _forged(payload, {("record", "sigma"): [list(map(str, row)) for row in rows]})


@pytest.fixture(scope="module")
def seed7_payload():
    # the certificate of `hkcert random --n 2 --pic-rank 2 --c0 3 --seed 7`
    from hkcert.instance import random_instance

    inst = random_instance(2, 2, 3, 3, 7)
    rec = run_pipeline(inst)
    return cert.certificate_payload(inst, rec, wall_for_record(inst, rec), BUDGETS)


@pytest.mark.parametrize("which", ["e2_payload", "seed7_payload"])
def test_verify_rejects_orientation_reversing_sigma(which, request, tmp_path):
    payload = request.getfixturevalue(which)
    bad = _u3_reversed(payload)
    assert [c.name for c in cert.verify_payload(bad) if not c.ok] == ["sigma_determinant"]
    sigma = lattice.Isometry(tuple(tuple(map(int, row)) for row in bad["record"]["sigma"]),
                             lattice.build_lambda(2))
    assert (sigma.det(), sigma.orientation()) == (1, -1)
    p = tmp_path / "u3.json"
    assert _cli_verify(p, bad) == (EXIT_FAIL, f"{p}: FAIL sigma_determinant\n")


# one case per CertificateFormatError the verifier raises, each a mutation of
# the e2 certificate with its digest recomputed; below it, one missing and one
# bad value for every field of the instance, the record and the wall, which
# pins the label each decode reports
_HOSTILE = {
    "short_vector": (_set(("record", "A"), ["0"] * 22), "A: expected 23 coordinates"),
    "instance_not_object": (_set(("instance",), []), "instance: expected a JSON object"),
    "n_below_two": (_set(("instance", "n"), "1"), "instance: n must be >= 2, got 1"),
    "empty_pic_basis": (_set(("instance", "pic_basis"), []),
                        "instance: pic_basis must be a nonempty list"),
    "zero_d": (_set(("instance", "d"), "0"), "instance: d and C0 must be positive"),
    "not_object": (lambda p: [p], "certificate: expected a JSON object"),
    "sigma_rows": (lambda p: _set(("record", "sigma"), p["record"]["sigma"][:-1])(p),
                   "record: sigma must be a rank x rank matrix"),
    "sigma_row_length": (lambda p: _set(("record", "sigma", 3), p["record"]["sigma"][3][:-1])(p),
                         "sigma: expected 23 coordinates"),
    "alpha_zero_den": (_set(("record", "alpha_x", "den"), "0"), "alpha_x: zero denominator"),
    "checks_not_list": (_set(("checks",), {}), "certificate: checks must be a list"),
    "A_bad_integer": (_set(("record", "A"), ["x"] + ["0"] * 22), "A: bad integer 'x'"),
    "wall_no_verdict": (_drop(("wall", "verdict")), "wall: missing field 'verdict'"),
    "wall_tested_a_not_list": (_set(("wall", "tested_a"), {}), "wall: tested_a must be a list"),
}
for _key in ("A", "omega", "D", "source", "target"):
    _HOSTILE[f"{_key}_missing"] = (_drop(("record", _key)), f"record: missing field {_key!r}")
    if _key != "A":
        _HOSTILE[f"{_key}_short"] = (_set(("record", _key), ["0"] * 24), f"{_key}: expected 23 coordinates")
for _key in ("u", "C1", "g", "t", "e", "H2", "epsilon", "rk_un"):
    _HOSTILE[f"{_key}_missing"] = (_drop(("record", _key)), f"record: missing field {_key!r}")
    _HOSTILE[f"{_key}_bad"] = (_set(("record", _key), "x"), f"{_key}: bad integer 'x'")
for _key in ("r", "m", "s"):
    _HOSTILE[f"v0_{_key}_missing"] = (_drop(("record", "v0", _key)), f"v0: missing field {_key!r}")
    _HOSTILE[f"v0_{_key}_bad"] = (_set(("record", "v0", _key), "x"), f"{_key}: bad integer 'x'")
for _key in ("g", "C1", "C0"):
    _HOSTILE[f"wall_{_key}_missing"] = (_drop(("wall", _key)), f"wall: missing field {_key!r}")
    _HOSTILE[f"wall_{_key}_bad"] = (_set(("wall", _key), "x"), f"wall.{_key}: bad integer 'x'")
for _key in ("n", "pic_basis", "W", "B", "d", "C0"):
    _HOSTILE[f"instance_{_key}_missing"] = (_drop(("instance", _key)), f"instance: missing field {_key!r}")
for _key in ("n", "d", "C0"):
    _HOSTILE[f"instance_{_key}_bad"] = (_set(("instance", _key), "x"), f"{_key}: bad integer 'x'")
for _key in ("W", "B"):
    _HOSTILE[f"instance_{_key}_short"] = (_set(("instance", _key), ["0"] * 22), f"{_key}: expected 23 coordinates")
_HOSTILE["instance_pic_basis_row_bad"] = (_set(("instance", "pic_basis", 0), "x"), "pic_basis: expected 23 coordinates")
_HOSTILE["sigma_missing"] = (_drop(("record", "sigma")), "record: missing field 'sigma'")
_HOSTILE["alpha_x_missing"] = (_drop(("record", "alpha_x")), "record: missing field 'alpha_x'")
_HOSTILE["alpha_x_bad"] = (_set(("record", "alpha_x"), "junk"), "alpha_x: missing field 'num'")
for _key in ("num", "den"):
    _HOSTILE[f"alpha_x_{_key}_missing"] = (_drop(("record", "alpha_x", _key)), f"alpha_x: missing field {_key!r}")
_HOSTILE["alpha_x_num_bad"] = (_set(("record", "alpha_x", "num"), ["x"] + ["0"] * 22), "alpha_x.num: bad integer 'x'")
_HOSTILE["alpha_x_den_bad"] = (_set(("record", "alpha_x", "den"), "x"), "alpha_x.den: bad integer 'x'")


@pytest.mark.parametrize("case", sorted(_HOSTILE))
def test_cli_verify_hostile_structure_is_one_format_error(e2_payload, tmp_path, case):
    mutate, reason = _HOSTILE[case]
    bad = mutate(copy.deepcopy(e2_payload))
    if isinstance(bad, dict):
        bad["digest"] = cert.compute_digest(bad)
    p = tmp_path / f"{case}.json"
    assert _cli_verify(p, bad) == (EXIT_INPUT, f"{p}: malformed certificate: {reason}\n")


@pytest.mark.parametrize("case", ["alpha_x_missing", "alpha_x_bad", "alpha_x_den_bad"])
def test_cli_verify_malformed_alpha_x_is_a_format_error_beside_a_failing_sigma(e2_payload, tmp_path, case):
    # alpha_x is decoded with sigma, before sigma's Gram check, so a sigma
    # that is no isometry does not mask a malformed alpha_x
    bent = _mutate(e2_payload, ("record", "sigma", 0, 0), 1)
    assert _failing(_forged(bent, {})) == ["sigma_gram_identity"]
    mutate, reason = _HOSTILE[case]
    bad = mutate(bent)
    bad["digest"] = cert.compute_digest(bad)
    p = tmp_path / f"{case}.json"
    assert _cli_verify(p, bad) == (EXIT_INPUT, f"{p}: malformed certificate: {reason}\n")


def test_transport_retries_with_negative_epsilon(tmp_path):
    # on this instance the reductions take 6 (source), 12 (target) and 10
    # (-target) transvections, so the budget picks epsilon
    from hkcert.errors import SearchExhausted
    from hkcert.instance import random_instance

    inst = random_instance(2, 2, 4, 3, 1001)
    assert run_pipeline(inst, isometry_budget=12).epsilon == 1
    for budget in (11, 10):
        assert run_pipeline(inst, isometry_budget=budget).epsilon == -1
    with pytest.raises(SearchExhausted, match="budget of 9 transvections"):
        run_pipeline(inst, isometry_budget=9)

    inst_path, cert_path = tmp_path / "inst.json", tmp_path / "cert.json"
    cert.write_json(inst_path, cert.instance_to_payload(inst))
    out = io.StringIO()
    assert cmd_construct(str(inst_path), str(cert_path), isometry_budget=11, out=out) == EXIT_OK
    assert " epsilon=-1 " in out.getvalue()
    out = io.StringIO()
    assert cmd_verify([str(cert_path)], out=out) == EXIT_OK
    assert out.getvalue().endswith(": OK (53 checks)\n")
    unwritten = tmp_path / "unwritten.json"
    out = io.StringIO()
    assert cmd_construct(str(inst_path), str(unwritten), isometry_budget=9, out=out) == EXIT_BUDGET
    assert out.getvalue().startswith("error: search exhausted: ")
    assert not unwritten.exists()


# --- forgeries that one verdict alone refuses ---------------------------------
# Each forgery recomputes the digest and pins its exact set of failing checks,
# so a verifier whose verdict for that check were forced true would fail here.

def _failing(payload):
    return [c.name for c in cert.verify_payload(payload) if not c.ok]


def test_verify_schema_version_forgery_fails_that_check_alone(e2_payload):
    assert _failing(_forged(e2_payload, {("schema_version",): "hkcert/2"})) == ["schema_version"]


def test_verify_recorded_check_false_fails_that_check_alone(e2_payload):
    last = len(e2_payload["checks"]) - 1
    for k in (0, last):
        assert _failing(_forged(e2_payload, {("checks", k, "ok"): False})) == ["recorded_checks_true"]


def _discriminant_forgeries(payload):
    # R_delta negates delta and R_r reflects in the root r = a1 of the first
    # E8(-1) block (x -> x + (x, r) r); each is integral of determinant -1 and
    # fixes U^3 pointwise, so with sigma both products keep determinant 1 and
    # the orientation but act as -1 on L*/L = <delta/(2n-2)>, nontrivially
    # for n >= 3
    n = int(payload["instance"]["n"])
    L = lattice.build_lambda(n)
    r_delta = [[int(i == j) * (-1 if i == lattice.DELTA_INDEX else 1) for j in range(L.rank)]
               for i in range(L.rank)]
    r_root = [[int(i == j) + (L.gram[6][j] if i == 6 else 0) for j in range(L.rank)]
              for i in range(L.rank)]
    sigma = [list(map(int, row)) for row in payload["record"]["sigma"]]
    forged = {}
    for name, m in (
        ("sigma_R_delta_R_r", snf.mat_mul(snf.mat_mul(sigma, r_delta), r_root)),
        ("R_delta_R_r_sigma", snf.mat_mul(r_delta, snf.mat_mul(r_root, sigma))),
    ):
        iso = lattice.Isometry(tuple(map(tuple, m)), L)
        assert (iso.det(), iso.orientation(), lattice.acts_trivially_on_discriminant(iso)) == (1, 1, False)
        sigma = [list(map(str, row)) for row in m]
        forged[name] = tuple(_failing(_forged(payload, {("record", "sigma"): sigma})))
    return forged


def test_verify_refuses_sigma_acting_as_minus_one_on_the_discriminant():
    outcomes = Counter()
    for entry in CORPUS:
        payload = certified(entry)[1]
        if int(payload["instance"]["n"]) >= 3:
            outcomes.update(_discriminant_forgeries(payload).items())
    maps = ("sigma_discriminant_trivial", "transport_maps", "alpha_matches_record")
    # sigma R_delta R_r moves the source before sigma maps it; R_delta R_r
    # sigma fixes the target on two certificates, and on one of them the
    # pushed Brauer class too, so only the discriminant check refuses it
    assert outcomes == {
        ("sigma_R_delta_R_r", maps): 45,
        ("R_delta_R_r_sigma", maps + ("alpha_is_b_field",)): 43,
        ("R_delta_R_r_sigma", maps): 1,
        ("R_delta_R_r_sigma", ("sigma_discriminant_trivial",)): 1,
    }
