"""Every function the benchmark looks up in hkcert must still be there.

``bench/spans.py`` patches module attributes by name: the sites of its
``SPANS`` and ``COUNTED`` tables and the ``_patch`` calls of
``Tracer.install``.  ``bench/run.py`` also calls a few names directly.  A
deletion or re-import that breaks one of them would only show in a traced
benchmark run (``bench/run.py --trace 1``); here it fails the test suite.
The bench files are read, never edited.
"""

import importlib.util
import re
from pathlib import Path

import pytest

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
