"""Benchmark of the training-on-the-edge reproduction: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train_resnet_revolve --seed 0 --seconds 30 --trace 0

It imports the program from ``src/`` of the checkout, pins BLAS to one
thread, runs the named workload (see ``workloads.py`` and ``README.md``
in this directory), checks the program's outputs and prints every metric
by name with its unit, the host fingerprint, and as the last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer ones, measured by wrapping each layer's
public entry points from outside the program.

Exit codes: 0 when the run completed (``correct`` says whether every
check passed), 2 when the program is not found next to this directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# BLAS threads are fixed before NumPy loads: one thread gave the same
# throughput as two on a 2-core host, with a narrower run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def host_fingerprint() -> dict:
    """Cores, interpreter, NumPy, BLAS, and the program's revision."""
    import ctypes
    import hashlib
    import platform

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _git_sha() -> str:
    """HEAD of the checkout's own ``.git``, or ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import json

    from workloads import Checks, placement, run_workload

    checks = Checks()
    metrics, ops_done = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), checks)
    for what in checks.failures:
        print(f"perfbench: check failed: {what}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {ops_done} operations timed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(f"  {'error_rate':28s} {checks.failed / max(1, checks.attempted):14.6g} "
          f"({checks.failed} failed of {checks.attempted} checks)")
    if args.trace:
        shares = ", ".join(f"{k} {v:.3f}" for k, v in placement(metrics).items())
        print(f"  placement (share of traced step): {shares}")
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
