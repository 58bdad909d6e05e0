"""Record the golden certificate digests that every benchmark run must reproduce.

    python3 bench/make_golden.py --seconds 30

Builds each workload's corpus at the size ``--seconds`` gives, constructs
every instance in-process and writes ``bench/golden.json``: per workload, the
digest of instance i's certificate, or null where construction fails.  The
corpus does not depend on the seed, so one list serves every seed; a shorter
run checks the prefix it builds.  Regenerate only from a commit whose
certificates are known to be right: certificates must never change.
"""

from __future__ import annotations

import argparse
import json
import os

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    hk = run.import_program()
    golden = {}
    for name, workload in run.WORKLOADS.items():
        r = run.Run(hk, workload, 0, args.seconds, run.OUT / f"golden-{name}-{os.getpid()}", [])
        try:
            r.setup(hk.instance.random_instance)
            r.inprocess(r.order())
        finally:
            run.shutil.rmtree(r.work, ignore_errors=True)
        golden[name] = r.digests
        failed = [i for i, d in enumerate(r.digests) if d is None]
        print(f"{name}: {len(r.digests)} instances, construct failed on {failed}")
    run.GOLDEN.write_text(json.dumps(golden, indent=0) + "\n")


if __name__ == "__main__":
    main()
