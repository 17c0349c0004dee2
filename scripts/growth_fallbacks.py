#!/usr/bin/env python3
"""Check region growth's fast path against the exact loop on noisy scans.

For the 10 jittered 3x-density corpus scans (points only, seed 64 + i) at
0.3, 1 and 2 mm jitter, and for a 0.03 x 0.15 x 0.25 m ellipsoid at density
3e4, each preprocessed with the default config, assert that
``regions._grow_regions`` returns exactly what ``_grow_regions_exact`` does,
and that it fell back on the exact loop on just the clouds where the plane
test binds: where growth with the test differs from growth without it.
Prints one line per cloud, then the clouds that fell back.

Run it under several ``OPENBLAS_CORETYPE`` values: the fast path's check and
the exact loop compute every refit plane and plane distance alike, so every
kernel must pass.
"""

import dataclasses
import sys

from graspkit import regions
from graspkit.cloud import PointCloud
from graspkit.planner import PlannerConfig, preprocess
from graspkit.shapes import ShapeSpec, corpus_standard, generate

CONFIG = PlannerConfig()
WITHOUT_PLANE_TEST = dataclasses.replace(CONFIG, distance_threshold=1000.0)


def clouds():
    for jitter in (3e-4, 1e-3, 2e-3):
        for i, (name, spec) in enumerate(corpus_standard().items()):
            scan = generate(dataclasses.replace(spec, density=spec.density * 3, jitter=jitter, seed=64 + i))
            yield f"{name}@{jitter * 1e3:g}mm", PointCloud(scan.points)
    yield "ellipsoid_0.03_0.15_0.25", generate(ShapeSpec("ellipsoid", (0.03, 0.15, 0.25), density=3e4))


def main() -> int:
    exact = regions._grow_regions_exact
    fallbacks = []

    def counting_exact(*args):
        fallbacks.append(args)
        return exact(*args)

    regions._grow_regions_exact = counting_exact
    fell_back, failures = [], []
    for key, cloud in clouds():
        prepared = preprocess(cloud, CONFIG)
        hoods = prepared.index.knn_all(CONFIG.k_neighbors)
        fallbacks.clear()
        grown = [r.tolist() for r in regions._grow_regions(prepared, CONFIG, hoods)]
        fell = bool(fallbacks)
        want = [r.tolist() for r in exact(prepared, CONFIG, hoods)]
        binds = want != [r.tolist() for r in exact(prepared, WITHOUT_PLANE_TEST, hoods)]
        ok = grown == want and fell == binds
        print(f"{key:34s} points {len(prepared):6d}  regions {len(want):5d}  plane test binds {binds!s:5}  "
              f"fell back {fell!s:5}  {'ok' if ok else 'FAILED'}")
        if fell:
            fell_back.append(key)
        if not ok:
            failures.append(key)
    print(f"fell back on {len(fell_back)}: {', '.join(fell_back) or 'none'}")
    if failures:
        print(f"FAILED on {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
