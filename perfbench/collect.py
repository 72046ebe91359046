"""Run the benchmark over several seeds and summarize, for before/after
comparisons and the baseline in README.md.

    python3 perfbench/collect.py --seeds 101-110 --out perfbench/baseline.json

For every workload in BENCHMARK.json it makes one timed run per seed and one
traced run (on the first seed), each in its own process, one after another.
It writes a JSON summary holding every value, their median and quartiles,
and the spread (interquartile range over median) of each end-to-end metric,
and prints a table of the same.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(line for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    result["env"] = dict(kv.split("=", 1) for kv in env.split()[1:])
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110",
                        help="first-last seed (default 101-110)")
    parser.add_argument("--workloads",
                        help="comma list (default: all in BENCHMARK.json)")
    parser.add_argument("--out", required=True, help="JSON summary path")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = seed_range(args.seeds)
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds,
               "workloads": {}}
    for workload in workloads:
        runs = [one_run(workload, seed, spec["run_seconds"], 0)
                for seed in seeds]
        traced = one_run(workload, seeds[0], spec["run_seconds"], 1)
        summary["env"] = runs[0]["env"]
        summary["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": {
                m["name"]: dict(unit=m["unit"], bound=m["bound"],
                                **summarize([r["metrics"][m["name"]]["value"]
                                             for r in runs]))
                for m in spec["end_to_end"]},
            "per_layer": {name: metric["value"]
                          for name, metric in traced["metrics"].items()},
        }
        print(f"{workload}: {len(runs)} runs, "
              f"{summary['workloads'][workload]['failed']} failed ops")
        for name, s in summary["workloads"][workload]["end_to_end"].items():
            print(f"  {name:16s} median {s['median']:<12.5g} {s['unit']:7s}"
                  f" spread {s['spread']:.3f} (bound {s['bound']})")
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
