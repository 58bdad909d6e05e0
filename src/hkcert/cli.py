"""hkcert command line: construct certificates, verify them, generate instances.

Exit codes: 0 success, 1 verification failure, 2 input/format error,
3 search budget exhausted.  No environment variables are read.
"""

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


def cmd_construct(input_path, output_path, out=None, **budgets):
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
        # certificate file is opened; the summary line prints those strings
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
    r, v0 = payload["record"], payload["record"]["v0"]
    print(f"{output_path}: C1={r['C1']} u={r['u']} g={r['g']} t={r['t']} H2={r['H2']} v0=({v0['r']},"
          f"{v0['m']},{v0['s']}) epsilon={r['epsilon']} wall={payload['wall']['verdict']}", file=out)
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


def cmd_verify(paths, jobs=1, out=None):
    """Verify each file, printing its lines, in input order, as soon as it and
    every file before it are done."""
    # the pool may start all its workers at once (at the first submit under
    # fork, on demand under forkserver, CPython 3.14's default on Linux): no
    # more than the files or usable CPUs, and no pool for one worker
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if (workers := min(jobs, len(paths), cpus)) > 1:
        # imported here: it pulls in multiprocessing, which every other
        # command would pay for at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map submits every file at once and yields the results in order
            return _report(pool.map(_verify_one, paths), out)
    return _report(map(_verify_one, paths), out)


def _report(results, out):
    code = EXIT_OK
    for rc, lines in results:
        print("\n".join(lines), file=out, flush=True)
        code = max(code, rc)
    return code


def cmd_random(n, pic_rank, c0, d_max, seed, count, out_dir, out=None):
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


# The command line, one entry per command: its function's name, its help,
# its positional argument as (dest, metavar, help) or None, and its options
# as (flags, dest, type, default, metavar, help), a default of None marking
# a required option.  main parses a command line that spells every flag in
# full against this table alone; build_parser makes argparse's parser of it
# for help, usage errors and every other spelling.
COMMANDS = {
    "construct": ("cmd_construct", "run the pipeline on an instance file", None, (
        (("-i", "--input"), "input_path", str, None, "INPUT", "instance JSON"),
        (("-o", "--output"), "output_path", str, None, "OUTPUT", "certificate JSON to write"),
        (("--budget-u",), "u_budget", int, BUDGETS["u_budget"], "BUDGET_U", "max step multiplier u"),
        (("--budget-t",), "t_budget", int, BUDGETS["t_budget"], "BUDGET_T", "max twist multiplier t"),
        (("--budget-isometry",), "isometry_budget", int, BUDGETS["isometry_budget"], "BUDGET_ISOMETRY",
         "max transvections per reduction"),
        (("--bound-coeff",), "coeff_bound", int, BUDGETS["coeff_bound"], "BOUND_COEFF",
         "coefficient bound for the A/omega searches"),
    )),
    "verify": ("cmd_verify", "recheck certificates from their recorded data",
               ("paths", "certs", "certificate JSON files"), (
        (("--jobs",), "jobs", int, 1, None, "verify files in parallel"),
    )),
    "random": ("cmd_random", "write seeded random instance files", None, (
        (("--n",), "n", int, None, None, None),
        (("--pic-rank",), "pic_rank", int, None, None, None),
        (("--c0",), "c0", int, None, None, None),
        (("--d-max",), "d_max", int, 3, None, None),
        (("--seed",), "seed", int, None, None, None),
        (("--count",), "count", int, 1, None, None),
        (("-o", "--out-dir"), "out_dir", str, None, None, None),
    )),
}


def _parse_exact(argv):
    """(command, keywords) of an argv that argparse would read the same way,
    or None.  Every token after the command is a flag of it, spelled in full
    and followed by its value (an int in ASCII digits that int() reads, a
    string not starting with "-"), or, for verify, one run of paths not
    starting with "-"; no flag twice, and every required one given."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, _, positional, options = COMMANDS[argv[0]]
    by_flag = {flag: option for option in options for flag in option[0]}
    kwargs, i = {}, 1
    while i < len(argv):
        if argv[i] not in by_flag:
            # the paths, up to the next token that starts with "-"
            j = next((j for j in range(i, len(argv)) if argv[j].startswith("-")), len(argv))
            if positional is None or positional[0] in kwargs or j == i:
                return None
            kwargs[positional[0]], i = argv[i:j], j
            continue
        _, dest, kind, *_ = by_flag[argv[i]]
        value = argv[i + 1] if i + 1 < len(argv) else "-"
        if dest in kwargs or value.startswith("-") or kind is int and not (value.isascii() and value.isdigit()):
            return None
        try:
            kwargs[dest], i = kind(value), i + 2
        except ValueError:  # an int past the int/str digit limit
            return None
    for _, dest, _, default, _, _ in options:
        kwargs.setdefault(dest, default)
    if positional is not None:
        kwargs.setdefault(positional[0], None)
    # None: a required option, or the paths, not given
    return None if None in kwargs.values() else (argv[0], kwargs)


def build_parser():
    """argparse's parser of COMMANDS.  Each dest is its command function's
    parameter: main passes them by name."""
    import argparse  # here: a well-formed command line never needs it

    parser = argparse.ArgumentParser(
        prog="hkcert",
        description="Construct and verify exact lattice certificates for the "
        "twisted derived-equivalence construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, positional, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if positional is not None:
            dest, metavar, text = positional
            p.add_argument(dest, metavar=metavar, nargs="+", help=text)
        for flags, dest, kind, default, metavar, text in options:
            given = {"required": True} if default is None else {"default": default}
            p.add_argument(*flags, dest=dest, metavar=metavar, type=kind, help=text, **given)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parsed = _parse_exact(argv)
    if parsed is None:
        args = vars(build_parser().parse_args(argv))
        parsed = args.pop("command"), args
    command, kwargs = parsed
    # looked up at each call, so that a wrapper set on cli.cmd_* sees it
    return globals()[COMMANDS[command][0]](**kwargs)


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
