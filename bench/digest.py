"""Print the SHA-256 of every CSV one round of each workload writes.

Usage (from the root of a checkout):

    python3 bench/digest.py [WORKLOAD ...]

Information only, not a gate: the optimisation seeds are fixed, so the
digests change exactly when a change to hubo changes which points are
evaluated or how the CSVs are written.  Regenerate them on the parent and on
the change and compare, instead of copying digests from a document.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    for name in names:
        run_dir = os.path.join(run.OUT_ROOT, f"digest-{name}-{os.getpid()}")
        os.makedirs(run_dir)
        try:
            rnd = run.run_round(run.Launcher(run_dir, trace=False), name, 0, final_fit=False)
            if rnd["failed"]:
                print(f"{name}: {rnd['failed']} operations failed", file=sys.stderr)
                return 1
            for file, digest in sorted(run.csv_digests(rnd["results"]).items()):
                print(f"{digest}  {name}/{file}")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
