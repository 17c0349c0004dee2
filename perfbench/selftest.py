#!/usr/bin/env python3
"""Self-test of the benchmark harness; exits non-zero on the first broken rule.

    python3 perfbench/selftest.py

Tiny in-process runs (one object per workload, 5 robustness trials) must
emit every metric BENCHMARK.json declares, with finite values and no failed
check, in both trace modes. A deliberately wrong expected result code must
fail every op, so that it shows in fail_frac.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS/OpenMP threads before numpy loads)

TINY = {"corpus": "box_foam_brick", "scan": "ellipsoid_pear", "robust": "box_gelatin"}


def main() -> int:
    run._import_graspkit()
    problems = []
    for workload, obj in TINY.items():
        for trace in (False, True):
            record = run.run_workload(workload, seed=1, seconds=0.01, trace=trace,
                                      objects=(obj,), trials=5, write_out=False)
            units = run.declared_units(trace)
            where = f"{workload} trace={int(trace)}"
            missing = set(units) - set(record["metrics"])
            if missing:
                problems.append(f"{where}: missing metrics {sorted(missing)}")
                continue
            line = run.result_line(record, units)
            for name, metric in line["metrics"].items():
                if not isinstance(metric["value"], float) or not math.isfinite(metric["value"]):
                    problems.append(f"{where}: {name} = {metric['value']!r}")
            if not line["correct"] or line["attempted"] < 1:
                problems.append(f"{where}: correct={line['correct']} attempted={line['attempted']} "
                                f"checks={record['checks']}")
            print(f"ok {where}: {len(line['metrics'])} metrics, {line['attempted']} ops")

    record = run.run_workload("corpus", seed=0, seconds=0.01, trace=False, objects=("box_foam_brick",),
                              expected={"box_foam_brick": "no-candidates"}, write_out=False)
    if record["attempted"] < 1 or record["failed"] != record["attempted"]:
        problems.append(f"wrong expected code: {record['failed']} of {record['attempted']} ops failed")
    else:
        print(f"ok wrong expected code: fail_frac = {record['failed'] / record['attempted']}")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
