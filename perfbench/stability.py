"""Run-to-run spread of the benchmark, and exactness of its counts.

Spread (what a benchmark must keep below its bounds)::

    python3 perfbench/stability.py spread --seeds 1-10 [--workloads a,b]

runs ``run.py --trace 0`` once per workload and seed, then prints each
end-to-end metric's median and its interquartile range as a share of
the median, next to the bound in ``BENCHMARK.json``.

Exact counts and tracing overhead::

    python3 perfbench/stability.py trace --seed 1

runs ``run.py --trace 1`` twice per workload with one seed and reports,
per count metric, whether both runs read exactly the same (only counts
that repeat exactly may back a count-based claim). It also runs
``--trace 0`` once and reports the tracing overhead as untraced ``qps``
over traced ``trace.qps``, and the traced time shares.

Runs are sequential and write nothing but ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_METRICS = (
    "relational.expr.instructions", "relational.compile.programs_compiled",
    "serving.plan_cache.hit_share", "relational.skipping.skipped_share",
    "core.predict.rows", "adaptive.reoptimizations",
)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def seeds_from(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def spread(spec: dict, workloads: List[str], seeds: List[int]) -> bool:
    steady = True
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        for seed in seeds:
            for name, value in run_once(spec, workload, seed, 0).items():
                values.setdefault(name, []).append(value)
        print(f"\n{workload} ({len(seeds)} seeds)")
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median
            ok = metric["name"] == "setup_s" or share <= metric["bound"]
            steady &= ok
            mark = "" if ok else "  OVER BOUND"
            note = ("" if share < metric["bound"] / 3
                    else "  (above a third of the bound)")
            print(f"  {metric['name']:16s} median {median:11.4f} "
                  f"{metric['unit']:4s} spread {share:7.4f} "
                  f"bound {metric['bound']}{mark}{note}")
            print("    " + " ".join(f"{v:.4f}" for v in series))
    return steady


def trace(spec: dict, workloads: List[str], seed: int) -> bool:
    exact = True
    for workload in workloads:
        first = run_once(spec, workload, seed, 1)
        second = run_once(spec, workload, seed, 1)
        untraced = run_once(spec, workload, seed, 0)
        print(f"\n{workload} (seed {seed}, two traced runs, one untraced)")
        for name in COUNT_METRICS:
            same = first[name] == second[name]
            exact &= same
            print(f"  {name:40s} {first[name]!r:>12} {second[name]!r:>12} "
                  f"{'exact' if same else 'DIFFERS'}")
        print(f"  tracing overhead: qps {untraced['qps']:.3f} untraced, "
              f"{first['trace.qps']:.3f} and {second['trace.qps']:.3f} "
              f"traced")
        print("  traced shares: " + ", ".join(
            f"{name[len('share.'):]} {first[name]:.3f}"
            for name in first if name.startswith("share.")))
    return exact


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("spread", "trace"))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload)")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    if args.mode == "spread":
        ok = spread(spec, workloads, seeds_from(args.seeds))
    else:
        ok = trace(spec, workloads, args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
