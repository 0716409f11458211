"""dyntr benchmark: closed-loop churn on one engine per workload.

Run from the repository root, one workload per process:

    python3 benchmark/run.py --workload comb-dag-churn --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another, each in a
fresh child process.  The last line of a single workload's output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See README.md next to this file.
"""

from __future__ import annotations

import os

# one thread per workload: numpy must not start a BLAS/OpenMP pool, so the
# caps are set before anything imports numpy
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "dyntr" / "__init__.py").is_file():
        print(f"benchmark: no dyntr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dyntr

    if Path(dyntr.__file__).resolve().parent != (SRC / "dyntr").resolve():
        print(f"benchmark: imported dyntr from {dyntr.__file__}", file=sys.stderr)
        return 2
    from measure import run_workload
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd).returncode)
        return status
    run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
