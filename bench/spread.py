"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload closed-form --seeds 1-10 --seconds 20

Runs bench/run.py once per seed, one run at a time, and prints for each
metric its median, quartiles and (Q3 - Q1) / median, with quartiles as
statistics.quantiles(values, n=4) gives them, plus the share of failed
operations.  This is the command behind the reference figures in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args(argv)
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share: {shares}")
    summary = {}
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        summary[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                           "values": values}
        print(f"{metric:34s} median {median:12.5f}  q1 {q1:12.5f}  q3 {q3:12.5f}  "
              f"spread {spread:7.4f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "correct": all(r["correct"] for r in results),
                      "failed_shares": shares, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
