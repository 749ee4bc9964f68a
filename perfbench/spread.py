"""Run-to-run spread of the end-to-end metrics, and a held-out seed check.

Runs ``run.py`` once per seed (one process at a time, each waited for),
then prints for every end-to-end metric of ``BENCHMARK.json`` the
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives
them, and the spread ``(q3 - q1) / median`` against the metric's bound.
A metric passes when its spread is under a third of its bound;
``setup_s`` is listed but not held to it.

``--held-out SEED`` also runs that seed three times and checks that its
median of every metric lies within the metric's bound of the median over
``--seeds``, so a claim made on the seeds can be re-checked on one not
used while writing it.

Run from the root of a checkout::

    python3 perfbench/spread.py --workload train_mlp_deep --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload train_resnet_revolve --held-out 9001

Exits 1 when a run fails, reports ``correct: false``, or a metric
misses its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in its own process; the parsed result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--held-out", type=int, default=None)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed, args.seconds))
        print(f"seed {seed}: " + json.dumps(runs[-1]), flush=True)
    ok = True
    print(f"{args.workload}: {len(runs)} runs of {args.seconds} s")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        med, q1, q3, rel = spread([r[name] for r in runs])
        held = metric["name"] != "setup_s"
        verdict = "ok" if rel < bound / 3 else ("FAIL" if held else "wide")
        ok &= verdict != "FAIL"
        print(f"  {name:18s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {rel:.4f}  bound {bound}  {verdict}")
    if args.held_out is not None:
        held_runs = [run_once(args.workload, args.held_out, args.seconds) for _ in range(3)]
        print(f"held-out seed {args.held_out}: {len(held_runs)} runs")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base = statistics.median(r[name] for r in runs)
            other = statistics.median(r[name] for r in held_runs)
            off = abs(other - base) / base
            verdict = "ok" if off <= bound else "FAIL"
            ok &= verdict == "ok"
            print(f"  {name:18s} seeds {base:.6g}  held-out {other:.6g}  "
                  f"off by {off:.4f}  bound {bound}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
