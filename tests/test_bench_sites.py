"""Every function the benchmark looks up in hkcert must still be there.

``bench/spans.py`` patches module attributes by name: the sites of its
``SPANS`` and ``COUNTED`` tables and the ``_patch`` calls of
``Tracer.install``.  ``bench/run.py`` also calls a few names directly.  A
deletion or re-import that breaks one of them would only show in a traced
benchmark run (``bench/run.py --trace 1``); here it fails the test suite.
The bench files are read, never edited.  A last test runs the span
recorder over one construct and verify, so a kernel rewrite that stops
calling a spanned function (``snf.mat_mul``, say) fails here as well.
"""

import importlib.util
import io
import re
import sys
from pathlib import Path

import pytest

from hkcert import certificate as cert
from hkcert import cli, lattice, snf

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _install_sites():
    # the site lists passed literally to Tracer._patch in Tracer.install
    text = (BENCH / "spans.py").read_text()
    return [re.findall(r'"([^"]+)"', group) for group in re.findall(r"_patch\(\s*\[([^\]]*)\]", text)]


GROUPS = dict(spans.SPANS)
GROUPS.update(spans.COUNTED)
GROUPS.update({sites[0]: sites for sites in _install_sites()})
# called by name from bench/run.py: the warm-up and the set-up span
GROUPS.update({site: [site] for site in (
    "lattice.discriminant_group", "lattice.build_lambda", "instance.random_instance")})


def test_install_sites_found():
    assert ["construction.graded_coefficient_tuples"] in _install_sites()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_bench_sites_resolve_to_one_object(name):
    found = [getattr(*spans._resolve(site)) for site in GROUPS[name]]
    assert all(obj is found[0] for obj in found), GROUPS[name]


def _clear_package_caches():
    # as in a fresh process: every lru_cache of the package emptied
    for name, module in list(sys.modules.items()):
        if name == "hkcert" or name.startswith("hkcert."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def test_every_span_fires_on_one_construct_and_verify(e2_instance, tmp_path):
    # from emptied caches, so the cached Smith forms are built (and spanned)
    # again
    _clear_package_caches()
    inst_path, cert_path = tmp_path / "e2.json", tmp_path / "e2.cert.json"
    cert.write_json(inst_path, cert.instance_to_payload(e2_instance))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.cmd_construct(str(inst_path), str(cert_path), out=io.StringIO()) == 0
        assert cli.cmd_verify([str(cert_path)], out=io.StringIO()) == 0
    finally:
        tracer.uninstall()
    calls = tracer.span_totals(1)[1]
    assert [name for name in spans.SPANS if calls[name] == 0] == []


def test_discriminant_warm_up_fills_the_cache_verify_reads(monkeypatch):
    # bench/run.py warms each build_lambda(n) through discriminant_group; the
    # verifier's acts_trivially_on_discriminant must then build no Smith form
    _clear_package_caches()
    lattices = [lattice.build_lambda(n) for n in range(2, 7)]
    for L in lattices:
        lattice.discriminant_group(L)
    built = []
    real = snf.smith_normal_form

    def counting(M):
        built.append(len(M))
        return real(M)

    monkeypatch.setattr(snf, "smith_normal_form", counting)
    # -I is trivial on L*/L = Z/(2n - 2) only for n = 2
    minus = [lattice.Isometry(tuple(tuple(-(i == j) for j in range(23)) for i in range(23)), L) for L in lattices]
    assert [lattice.acts_trivially_on_discriminant(iso) for iso in minus] == [True, False, False, False, False]
    assert built == []
