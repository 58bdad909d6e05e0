"""hkcert command line: construct certificates, verify them, generate instances.

Exit codes: 0 success, 1 verification failure, 2 input/format error,
3 search budget exhausted.  No environment variables are read.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import certificate as cert
from .errors import ConstructionInvariantViolated, SearchExhausted
from .instance import BUDGETS, validate_instance

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _reason(exc):
    """The one-line reason an input failed.  An unreadable or malformed file
    (CertificateFormatError is a ValueError) or an integer over the int/str
    digit limit gives its message alone; any other crash is named too."""
    if isinstance(exc, (OSError, ValueError)):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def cmd_construct(input_path, output_path, out=sys.stdout, **budgets):
    """Construct under instance.BUDGETS, overridden by each budget named as a keyword."""
    # imported here, so that a verify process does not load the pipeline
    from . import construction

    budgets = {**BUDGETS, **budgets}
    try:
        inst = cert.instance_from_payload(cert.read_json(input_path))
        failures = [c for c in validate_instance(inst) if not c.ok]
        if failures and {c.name for c in failures} <= {"b_norm_positive", "b_primitive"}:
            # a B shift by d * (a class orthogonal to Pic) can mend these two only
            inst = construction.normalize_brauer(inst)
            failures = [c for c in validate_instance(inst) if not c.ok]
        if failures:
            bad = failures[0]
            print(f"error: invalid instance: {bad.name} {bad.details}".rstrip(), file=out)
            return EXIT_INPUT
        rec = construction.run_pipeline(inst, **budgets)
        wall = construction.wall_for_record(inst, rec)
        # every integer is turned into a decimal string here, before the
        # certificate file is opened
        payload = cert.certificate_payload(inst, rec, wall, budgets)
    except SearchExhausted as exc:
        print(f"error: search exhausted: {exc}", file=out)
        return EXIT_BUDGET
    except ConstructionInvariantViolated as exc:
        print(f"error: {exc}", file=out)
        return EXIT_FAIL
    except Exception as exc:
        print(f"error: {input_path}: {_reason(exc)}", file=out)
        return EXIT_INPUT
    try:
        cert.write_json(output_path, payload)
    except OSError as exc:
        print(f"error: {output_path}: {exc}", file=out)
        return EXIT_INPUT
    print(
        f"{output_path}: C1={rec.C1} u={rec.u} g={rec.g} t={rec.t} H2={rec.H2} "
        f"v0=({rec.v0.r},{rec.v0.m},{rec.v0.s}) epsilon={rec.epsilon} "
        f"wall={wall.verdict}",
        file=out,
    )
    return EXIT_OK


def _verify_one(path):
    lines = []
    try:
        payload = cert.read_json(path)
        checks = cert.verify_payload(payload)
    except Exception as exc:
        # a crash stays this file's verdict, not the batch's
        return EXIT_INPUT, [f"{path}: malformed certificate: {_reason(exc)}"]
    bad = [c for c in checks if not c.ok]
    if bad:
        for c in bad:
            lines.append(f"{path}: FAIL {c.name} {c.details}".rstrip())
        return EXIT_FAIL, lines
    lines.append(f"{path}: OK ({len(checks)} checks)")
    return EXIT_OK, lines


def cmd_verify(paths, jobs=1, out=sys.stdout):
    if jobs > 1 and len(paths) > 1:
        # imported here: it pulls in multiprocessing, which every other
        # command would pay for at start-up
        from concurrent.futures import ProcessPoolExecutor

        # a fork-started pool launches all of its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(paths))) as pool:
            results = list(pool.map(_verify_one, paths))
    else:
        results = [_verify_one(p) for p in paths]
    code = EXIT_OK
    for rc, lines in results:
        print("\n".join(lines), file=out)
        code = max(code, rc)
    return code


def cmd_random(n, pic_rank, c0, d_max, seed, count, out_dir, out=sys.stdout):
    from . import sampler  # here, not at start-up: construct and verify run none of it
    if count < 0:
        print(f"error: count must be >= 0, got {count}", file=out)
        return EXIT_INPUT
    try:
        sampler.check_parameters(n, pic_rank, c0, d_max)
        os.makedirs(out_dir, exist_ok=True)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {out_dir}: {exc}", file=out)
        return EXIT_INPUT
    failed = []
    for i in range(count):
        sub_seed = seed + i
        try:
            inst = sampler.random_instance(n, pic_rank, c0, d_max, sub_seed)
        except SearchExhausted:
            failed.append(sub_seed)
            continue
        path = os.path.join(out_dir, f"instance_{seed}_{i:04d}.json")
        try:
            cert.write_json(path, cert.instance_to_payload(inst))
        except OSError as exc:
            print(f"error: {path}: {exc}", file=out)
            return EXIT_INPUT
        print(path, file=out)
    if failed:
        print(f"error: generation exhausted for seeds {failed}", file=out)
        return EXIT_BUDGET
    return EXIT_OK


def build_parser():
    """Each flag's dest is its command function's parameter: main passes them by name."""
    parser = argparse.ArgumentParser(
        prog="hkcert",
        description="Construct and verify exact lattice certificates for the "
        "twisted derived-equivalence construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="run the pipeline on an instance file")
    c.set_defaults(run=cmd_construct, **BUDGETS)
    c.add_argument("-i", "--input", dest="input_path", metavar="INPUT", required=True, help="instance JSON")
    c.add_argument("-o", "--output", dest="output_path", metavar="OUTPUT", required=True,
                   help="certificate JSON to write")
    for flag, dest, text in (
        ("--budget-u", "u_budget", "max step multiplier u"),
        ("--budget-t", "t_budget", "max twist multiplier t"),
        ("--budget-isometry", "isometry_budget", "max transvections per reduction"),
        ("--bound-coeff", "coeff_bound", "coefficient bound for the A/omega searches"),
    ):
        c.add_argument(flag, dest=dest, metavar=flag[2:].replace("-", "_").upper(), type=int, help=text)

    v = sub.add_parser("verify", help="recheck certificates from their recorded data")
    v.set_defaults(run=cmd_verify)
    v.add_argument("paths", metavar="certs", nargs="+", help="certificate JSON files")
    v.add_argument("--jobs", type=int, default=1, help="verify files in parallel")

    r = sub.add_parser("random", help="write seeded random instance files")
    r.set_defaults(run=cmd_random)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--pic-rank", type=int, required=True)
    r.add_argument("--c0", type=int, required=True)
    r.add_argument("--d-max", type=int, default=3)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--count", type=int, default=1)
    r.add_argument("-o", "--out-dir", required=True)
    return parser


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    del args["command"]  # the subcommand's name; "run" is its function
    return args.pop("run")(**args)


def run(argv=None):
    """Process entry of `python -m hkcert` and of the `hkcert` script.

    Runs `main`, flushes stdout and stderr, and ends with `os._exit`,
    skipping interpreter teardown (about 10 ms per process).  Nothing needs
    it: every file the CLI writes is closed and the `verify --jobs` pool is
    joined before `main` returns, and the package registers no `atexit`
    handler.  Usage errors and uncaught exceptions propagate as ever.

    The flushes follow the interpreter's shutdown: a missing or closed
    stream is skipped, and a failed flush gives exit status 120, reported
    for stdout in the shutdown's words.  The report cannot be left to the
    shutdown: a failed flush may drop the text it could not write (seen
    with over 4 KiB on CPython 3.11), and a second flush then succeeds.
    An OSError escaping `main` is a failed write to stdout (every file a
    command opens handles its own), and ends as a failed stdout flush does.
    """
    try:
        code, unwritten = main(argv), None
    except OSError as exc:
        code, unwritten = 120, exc
    for stream in (sys.stdout, sys.stderr):
        if stream is None or stream.closed:
            continue
        try:
            stream.flush()
            if stream is sys.stdout and unwritten is not None:
                raise unwritten
        except OSError as exc:
            code = 120
            if stream is sys.stdout:
                # the shutdown's wording, which CPython 3.13 changed
                if sys.version_info >= (3, 13):
                    where = "on flushing sys.stdout:"
                else:
                    where = f"in: {stream!r}"
                try:
                    sys.stderr.write(f"Exception ignored {where}\n{type(exc).__name__}: {exc}\n")
                except (AttributeError, OSError, ValueError):
                    pass  # stderr missing, closed or failing: nothing to report on
    os._exit(code)


if __name__ == "__main__":
    run()
