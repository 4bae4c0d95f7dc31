"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload net_range --seeds 1-10 --seconds 30 [--trace 1]

For every metric it prints the median over the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of that median, plus the failed share of attempted operations.
Each run's JSON line is appended to perfbench/work-spread/<workload>.jsonl,
and its standard error, which lists the set-up and round times, to
<workload>.stderr there.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
LOG_DIR = BENCH / "work-spread"


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    LOG_DIR.mkdir(exist_ok=True)
    results = []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        with open(LOG_DIR / f"{args.workload}.jsonl", "a") as log:
            log.write(line + "\n")
        with open(LOG_DIR / f"{args.workload}.stderr", "a") as log:
            log.write(f"seed {seed}\n{proc.stderr}")
        results.append(json.loads(line))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()), flush=True)

    print(f"correct: {all(r['correct'] for r in results)}; failed/attempted: " +
          ", ".join(f"{r['failed']}/{r['attempted']}" for r in results))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else float("nan")
        print(f"{name:34s} median {median:12.6g}  spread {share:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
