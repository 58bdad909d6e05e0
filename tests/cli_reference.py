"""The argparse command line as hkcert.cli built it for every argv, kept as
the reference that tests/test_cli.py compares the CLI's parsing with: the
help and usage text, the exit codes, and the command and keywords each argv
gives.  Not collected by pytest (no ``test_`` prefix).
"""

import argparse

from hkcert.cli import cmd_construct, cmd_random, cmd_verify
from hkcert.instance import BUDGETS


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
