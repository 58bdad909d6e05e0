"""The input envelope: construct's caps in ``construction.LIMITS``.

Every instance the project ships or measures lies well inside the caps:
the corpus, every cell of ``golden_sampler.json`` and the first instances
of each benchmark workload.  An input at a cap ends in its one line and
exit code, within a time ceiling, in a fresh interpreter.  The README's
"Input envelope" table states each limit's time and peak RSS.

``bench/run.py`` is read by path for its workloads' instances, never edited.
"""

import importlib.util
import sys
import time
import types
from pathlib import Path

from hkcert import certificate as cert
from hkcert import construction, errors
from hkcert.cli import EXIT_BUDGET, EXIT_INPUT
from hkcert.instance import HKInstance, random_instance
from hkcert.lattice import build_lambda
from test_certificate import _hkcert
from test_construction import huge_n_instance
from test_corpus import CORPUS, instance_of
from test_sampler_stream import CELLS

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"

# each shipped or measured instance stays within this fraction of each cap
MARGIN = 10


def _load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def _bench_instances(tmp_path):
    """The first instances of each workload, as bench/run.py writes them (one
    shuffled block of mixed's and cli's grid, one of bigint's 24 strata),
    read back as construct reads its input."""
    bench = _load_bench_run()
    for name, count in (("mixed", 128), ("bigint", 24), ("cli", 128)):
        run = types.SimpleNamespace(
            w=bench.WORKLOADS[name],
            hk=types.SimpleNamespace(errors=errors, certificate=cert),
            inst_path=lambda i, name=name: tmp_path / f"{name}_{i:04d}.json",
        )
        for i in range(count):
            bench.Run.generate(run, i, random_instance)
            yield cert.instance_from_payload(cert.read_json(run.inst_path(i)))


def _normalize_candidates_tried(inst, monkeypatch):
    """The B-field shifts normalize_brauer draws on inst: 0 when B needs none."""
    drawn = 0

    def counted(*args):
        nonlocal drawn
        for coeffs in graded(*args):
            drawn += 1
            yield coeffs

    graded = construction.graded_coefficient_tuples
    with monkeypatch.context() as m:
        m.setattr(construction, "graded_coefficient_tuples", counted)
        construction.normalize_brauer(inst)
    return drawn


def test_shipped_and_benchmark_instances_lie_inside_the_envelope(tmp_path, monkeypatch):
    # the largest: 10 406 rank-factor bits over the corpus, 16 022 over
    # the sampler golden and 19 700 over the benchmark instances (bigint's
    # d up to 10^250 at n = 6), against the cap of 2^20; no B needs a shift
    sources = {
        "corpus": [instance_of(entry) for entry in CORPUS],
        "sampler": [random_instance(*cell, seed) for cell, seed in CELLS],
        "bench": list(_bench_instances(tmp_path)),
    }
    assert [len(v) for v in sources.values()] == [len(CORPUS), len(CELLS), 280]
    for name, instances in sources.items():
        bits = [construction.run_pipeline(inst).rk_un.bit_length() for inst in instances]
        tried = [_normalize_candidates_tried(inst, monkeypatch) for inst in instances]
        assert max(bits) * MARGIN <= construction.LIMITS["rank_factor_bits"], name
        assert max(tried) * MARGIN <= construction.LIMITS["normalize_candidates"], name


# --- each cap ends construct in its line, in a fresh interpreter -------------

def _timed_construct(inst, tmp_path):
    inst_path, cert_path = tmp_path / "in.json", tmp_path / "out.json"
    cert.write_json(inst_path, cert.instance_to_payload(inst))
    start = time.perf_counter()
    r = _hkcert("construct", "-i", str(inst_path), "-o", str(cert_path), capture_output=True)
    seconds = time.perf_counter() - start
    assert not cert_path.exists()
    return r.returncode, r.stdout + r.stderr, seconds, inst_path


def test_cli_construct_at_the_rank_factor_cap_ends_within_its_ceiling(tmp_path):
    # 0.07 s on a shared 2-core x86_64 box (CPython 3.11.7); forming n! at
    # n = 10^6 took 15 s before the cap
    code, output, seconds, inst_path = _timed_construct(huge_n_instance(10**6), tmp_path)
    assert (code, output) == (EXIT_INPUT, (
        f"error: {inst_path}: rank factor n! r^n would have more than 1048576 bits "
        "(n has 20 bits, r has 7)\n"
    ))
    assert seconds < 5


def test_cli_construct_at_the_normalize_cap_ends_within_its_ceiling(tmp_path):
    # Pic = U^3 leaves the negative definite complement E8(-1)^2 + <delta>,
    # so no shift of B = a1 has positive norm: all 200 000 candidates are
    # tried, in 1.8 to 2.7 s on a shared 2-core x86_64 box (CPython 3.11.7)
    L = build_lambda(2)
    e = L.basis_vector
    inst = HKInstance(n=2, pic_basis=tuple(e(i) for i in range(6)), W=e(0) - e(1), B=e(6), d=1, C0=3)
    code, output, seconds, _ = _timed_construct(inst, tmp_path)
    assert (code, output) == (EXIT_BUDGET, (
        "error: search exhausted: no orthogonal shift with positive norm within coefficient bound 8 "
        "(200000 candidates tried)\n"
    ))
    assert seconds < 20


def test_each_cap_has_a_row_in_the_readme_envelope():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    envelope = readme.split("\n## Input envelope\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in envelope.splitlines() if line.startswith("| ")]
    for key in construction.LIMITS:
        assert sum(f'`LIMITS["{key}"]`' in row for row in rows) == 1, key
