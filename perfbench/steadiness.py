#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py [--workloads corpus,scan,robust] [--seeds 1-10] [--output FILE]

For every workload and seed this runs ``run.py --trace 0`` for BENCHMARK.json's
``run_seconds``, one process after the other. For each end-to-end metric it
prints the median of the runs and the spread, the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound. The runs are written to ``--output``.
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


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)))
    parser.add_argument("--output", type=Path, default=HERE / "out" / "steadiness.json")
    args = parser.parse_args()

    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
            if proc.returncode != 0:
                print(f"error: {workload} seed {seed} exited with {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            digest = next(line.split()[1] for line in proc.stdout.splitlines() if line.startswith("plan_digest"))
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "plan_digest": digest,
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            ok &= result["correct"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            s = spread(values)
            summary[metric["name"]] = {"median": statistics.median(values), "spread": s,
                                       "bound": metric["bound"]}
            within = metric["name"] == "setup_s" or s <= metric["bound"]
            ok &= within
            print(f"  {metric['name']:20s} median {statistics.median(values):12.6g} {metric['unit']:6s} "
                  f"spread {s:.4f} bound {metric['bound']:.2f}"
                  f"{'' if s <= metric['bound'] / 3 else ' (above a third of the bound)'}"
                  f"{'' if within else ' OVER BOUND'}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
