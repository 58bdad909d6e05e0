import copy
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from hkcert import certificate as cert
from hkcert import lattice, snf
from hkcert.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_INPUT, EXIT_OK, cmd_construct, cmd_random, cmd_verify
from hkcert.construction import run_pipeline, wall_for_record


@pytest.fixture(scope="module")
def e2_payload(e2_instance):
    rec = run_pipeline(e2_instance)
    wall = wall_for_record(e2_instance, rec)
    budgets = {"coeff_bound": 16, "u_budget": 10**6, "t_budget": 10**6, "isometry_budget": 10000}
    return cert.certificate_payload(e2_instance, rec, wall, budgets)


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
    bad = copy.deepcopy(e2_payload)
    bad["record"]["sigma"][0][0] = str(int(bad["record"]["sigma"][0][0]) + 1)
    failed = {c.name for c in cert.verify_payload(bad) if not c.ok}
    assert "sigma_gram_identity" in failed


def test_verify_detects_h2_tamper(e2_payload):
    bad = copy.deepcopy(e2_payload)
    bad["record"]["H2"] = str(int(bad["record"]["H2"]) - 2)
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


def _iter_int_paths(node, prefix=()):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _iter_int_paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _iter_int_paths(v, prefix + (i,))
    elif isinstance(node, str):
        try:
            int(node)
        except ValueError:
            return
        yield prefix


def _mutate(payload, path, delta):
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = str(int(node[path[-1]]) + delta)


def test_tamper_detection_500(e2_payload):
    # flipping any single recorded integer must trip at least one check
    rng = random.Random(20250810)
    paths = list(_iter_int_paths(e2_payload))
    assert len(paths) > 600   # plenty of fields to sample
    for trial in range(500):
        path = rng.choice(paths)
        delta = rng.choice((-3, -2, -1, 1, 2, 3))
        bad = copy.deepcopy(e2_payload)
        _mutate(bad, path, delta)
        try:
            checks = cert.verify_payload(bad)
        except cert.CertificateFormatError:
            continue   # detected as malformed: exit code 2
        assert not all(c.ok for c in checks), f"undetected mutation at {path} by {delta}"


# --- CLI ----------------------------------------------------------------------

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


def test_cli_construct_parse_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cmd_construct(str(p), str(tmp_path / "out.json")) == EXIT_INPUT


def test_cli_construct_budget_exhausted(e2_instance, tmp_path):
    inst_path = tmp_path / "e2.json"
    cert.write_json(inst_path, cert.instance_to_payload(e2_instance))
    rc = cmd_construct(str(inst_path), str(tmp_path / "out.json"), u_budget=1)
    assert rc == EXIT_BUDGET


def test_cli_construct_normalizes_negative_b(e2_instance, lam2, tmp_path):
    neg = e2_instance.replace(B=lam2.vector([0, 0, 1, -1] + [0] * 19), d=1)
    inst_path = tmp_path / "neg.json"
    cert_path = tmp_path / "neg.cert.json"
    cert.write_json(inst_path, cert.instance_to_payload(neg))
    assert cmd_construct(str(inst_path), str(cert_path)) == EXIT_OK
    assert cmd_verify([str(cert_path)]) == EXIT_OK


def test_cli_verify_tampered_exit_code(e2_payload, tmp_path):
    bad = copy.deepcopy(e2_payload)
    bad["record"]["sigma"][2][3] = str(int(bad["record"]["sigma"][2][3]) + 1)
    p = tmp_path / "tampered.json"
    cert.write_json(p, bad)
    assert cmd_verify([str(p)]) == EXIT_FAIL


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


def _forged(payload, fields):
    # set {(section, key): value} fields and recompute the digest to match
    bad = copy.deepcopy(payload)
    for (section, key), value in fields.items():
        bad[section][key] = value
    bad["digest"] = cert.compute_digest(bad)
    return bad


@pytest.mark.parametrize("field", ["t", "g"])
def test_verify_zero_t_or_g_fails_cleanly(e2_payload, tmp_path, field):
    bad = _forged(e2_payload, {("record", field): "0"})
    failed = {c.name: c.details for c in cert.verify_payload(bad) if not c.ok}
    assert failed["alpha_matches_record"] == failed["alpha_is_b_field"] == "4gtd^2 = 0"
    p = tmp_path / "zero.json"
    cert.write_json(p, bad)
    out = io.StringIO()
    assert cmd_verify([str(p)], out=out) == EXIT_FAIL
    assert "FAIL alpha_is_b_field 4gtd^2 = 0" in out.getvalue()


def test_cli_verify_jobs_reports_every_file(e2_payload, tmp_path):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    cert.write_json(bad, _forged(e2_payload, {("record", "t"): "0"}))
    cert.write_json(good, e2_payload)
    out = io.StringIO()
    assert cmd_verify([str(bad), str(good)], jobs=2, out=out) == EXIT_FAIL
    lines = out.getvalue().splitlines()
    assert any(line.startswith(f"{bad}: FAIL") for line in lines)
    assert f"{good}: OK" in "\n".join(lines)


ZERO_VECTOR = ["0"] * 23
ZERO_FORGERIES = {  # forged fields -> the check that must fail instead of raising
    "source": ({("record", "source"): ZERO_VECTOR}, "transport_div_source"),
    "target": ({("record", "target"): ZERO_VECTOR}, "transport_div_target"),
    "D_and_g": ({("record", "D"): ZERO_VECTOR, ("record", "g"): "0"}, "twist_divisibility"),
}


@pytest.mark.parametrize("case", sorted(ZERO_FORGERIES))
def test_verify_zero_vector_fails_cleanly(e2_payload, tmp_path, case):
    fields, check = ZERO_FORGERIES[case]
    bad = _forged(e2_payload, fields)
    checks = cert.verify_payload(bad)
    assert [c.name for c in checks] == [c.name for c in cert.verify_payload(e2_payload)]
    assert check in {c.name for c in checks if not c.ok}
    p = tmp_path / "zero.json"
    cert.write_json(p, bad)
    assert cmd_verify([str(p)], out=io.StringIO()) == EXIT_FAIL


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


def test_verify_rejects_huge_c0_forgery_fast(e2_payload):
    big_c0, big_g = str(10**24), str(10**30)
    bad = _forged(e2_payload, {("instance", "C0"): big_c0, ("wall", "C0"): big_c0,
                               ("record", "g"): big_g, ("wall", "g"): big_g})
    start = time.perf_counter()
    checks = cert.verify_payload(bad)
    assert time.perf_counter() - start < 1.0
    failed = {c.name: c.details for c in checks if not c.ok}
    assert failed["wall_enumeration"] == f"expected {10**12 - 1} tested values of a"


@pytest.mark.parametrize("n", ["3000000", str(10**31)])
def test_verify_rejects_huge_n_forgery_fast(e2_payload, n):
    # n! r^n would take minutes for n = 3 * 10^6 and overflow for 10^31
    bad = _forged(e2_payload, {("instance", "n"): n})
    start = time.perf_counter()
    checks = cert.verify_payload(bad)
    assert time.perf_counter() - start < 1.0
    assert "rank_factor" in {c.name for c in checks if not c.ok}
    names = [c.name for c in cert.verify_payload(e2_payload)]
    assert [c.name for c in checks].index("rank_factor") == names.index("rank_factor")


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
    bad = copy.deepcopy(e2_payload)
    bad["instance"]["n"] = "3000000"
    bad["record"]["v0"]["r"] = r
    bad["digest"] = cert.compute_digest(bad)
    start = time.perf_counter()
    checks = cert.verify_payload(bad)
    assert time.perf_counter() - start < 1.0
    assert "rank_factor" in {c.name for c in checks if not c.ok}


def test_verify_builds_picard_smith_form_once(e2_payload, monkeypatch):
    inst = cert.instance_from_payload(e2_payload["instance"])
    pic = [[p.coords[i] for p in inst.pic_basis] for i in range(inst.lattice.rank)]
    calls = []
    real = snf.smith_normal_form

    def counting(M):
        calls.append([list(row) for row in M] == pic)
        return real(M)

    monkeypatch.setattr(snf, "smith_normal_form", counting)
    for cache in (lattice._span_snf, lattice._span_solver):
        cache.cache_clear()
    assert all(c.ok for c in cert.verify_payload(e2_payload))
    assert sum(calls) == 1


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


def test_cli_import_leaves_out_unused_modules():
    # start-up loads neither the process pool (multiprocessing; only
    # --jobs > 1 needs it), nor dataclasses with inspect, nor fractions with
    # decimal (only the instance generator's signature check needs them).
    # Compared with a bare interpreter, so a module that a site .pth file
    # loads cannot decide the result.
    src = os.path.dirname(os.path.dirname(cert.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def loaded(code):
        r = subprocess.run(
            [sys.executable, "-c", code + "; print(' '.join(sys.modules))"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert r.returncode == 0, r.stderr
        return set(r.stdout.split())

    added = loaded("import sys, hkcert.cli") - loaded("import sys")
    assert "hkcert.cli" in added
    unused = {"concurrent.futures", "dataclasses", "inspect", "fractions", "decimal"}
    assert added & unused == set()


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


def test_cli_random_outputs_validate(tmp_path):
    d = tmp_path / "r"
    assert cmd_random(3, 2, 4, 2, seed=901, count=4, out_dir=str(d)) == EXIT_OK
    from hkcert.instance import instance_is_valid

    for p in sorted(d.iterdir()):
        inst = cert.instance_from_payload(cert.read_json(p))
        assert instance_is_valid(inst)


def test_cli_entry_point_subprocess(e2_instance, tmp_path):
    # the module is runnable end to end as `python -m hkcert`
    inst_path = tmp_path / "e2.json"
    cert_path = tmp_path / "e2.cert.json"
    cert.write_json(inst_path, cert.instance_to_payload(e2_instance))
    # the child imports the same hkcert as this process, installed or not
    src = os.path.dirname(os.path.dirname(cert.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run(
        [sys.executable, "-m", "hkcert", "construct", "-i", str(inst_path), "-o", str(cert_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    r = subprocess.run(
        [sys.executable, "-m", "hkcert", "verify", str(cert_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 0
    assert "OK" in r.stdout


def test_digest_changes_with_content(e2_payload):
    other = copy.deepcopy(e2_payload)
    other["record"]["u"] = str(int(other["record"]["u"]) + 1)
    assert cert.compute_digest(other) != e2_payload["digest"]
    assert cert.compute_digest(e2_payload) == e2_payload["digest"]
