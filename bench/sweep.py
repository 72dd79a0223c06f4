"""Repeat benchmark runs over seeds and report each metric's spread.

    python3 bench/sweep.py --workloads ladders_xyz cli --seeds 10
    python3 bench/sweep.py --seeds 10 --out bench/out/sweep.json

Runs bench/run.py with --trace 0 once per (workload, seed), for seeds
1 to --seeds, one run at a time, with run_seconds from BENCHMARK.json
unless --seconds is given.  For every metric it prints the median, the
quartiles from statistics.quantiles(values, n=4), and the spread: the
distance between the quartiles as a share of the median, shown against
the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            result = run_once(workload, seed, args.seconds)
            ok &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            summary[workload][name] = stats
            bound = bounds[name]
            print(f"  {name:40s} median {stats['median']:.5g}  q1 {stats['q1']:.5g}"
                  f"  q3 {stats['q3']:.5g}  spread {stats['spread']:.3f}"
                  f"  bound {bound:g}  spread/bound {stats['spread'] / bound:.2f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
