#!/usr/bin/env python3
"""Plan a grasp on one synthetic corpus object and dump the artifacts."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from graspkit.io import save_cloud_ply, save_segmentation_ply
from graspkit.planner import PlannerConfig, _plan
from graspkit.regions import segment
from graspkit.shapes import corpus_standard, generate, lookup


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--name", default="box_foam_brick", choices=sorted(corpus_standard()))
    parser.add_argument("--outdir", default="demo_out")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = PlannerConfig()
    cloud = generate(lookup(args.name))
    result, prepared = _plan(cloud, config)

    save_cloud_ply(cloud, outdir / f"{args.name}.ply")
    seg = segment(prepared, config)  # reads the table planning left on prepared.index
    save_segmentation_ply(prepared, seg.region_ids(), outdir / f"{args.name}_regions.ply")
    (outdir / f"{args.name}_plan.json").write_text(result.to_json())

    print(f"{args.name}: {result.result_code} ({result.n_regions} regions, "
          f"{result.n_pairs} pairs, {len(result.all_reports)} candidates)")
    for stage, ms in result.timings_ms.items():
        print(f"  {stage:12s} {ms:8.1f} ms")
    if result.best is not None:
        c = result.best.candidate
        print(f"  best grasp: width={c.width:.4f} m, axis={np.round(c.grasp_axis, 3)}, "
              f"sigma_min={result.best.sigma_min:.4f}, closure={result.best.closure}")
    print(f"artifacts in {outdir}/")
    return 0 if result.ok else 2


if __name__ == "__main__":
    sys.exit(main())
