#!/usr/bin/env python3
"""Print the SHA-256 of the estimated normals and curvatures of the 10
jittered 3x-density corpus scans (points only, seed 64 + i), each
preprocessed with the default config, and of the tangent frame
``plane_frame(n)`` of every one of those normals.

Run it under several ``OPENBLAS_CORETYPE`` values: neither normal estimation
nor the tangent frame calls a BLAS or LAPACK routine, so every kernel must
print the same digest.
"""

import dataclasses
import hashlib

from graspkit.cloud import PointCloud
from graspkit.mechanics import plane_frame
from graspkit.planner import PlannerConfig, preprocess
from graspkit.shapes import corpus_standard, generate


def main() -> None:
    digest = hashlib.sha256()
    for i, spec in enumerate(corpus_standard().values()):
        scan = generate(dataclasses.replace(spec, density=spec.density * 3, jitter=3e-4, seed=64 + i))
        cloud = preprocess(PointCloud(scan.points), PlannerConfig())
        digest.update(cloud.normals.tobytes())
        digest.update(cloud.curvatures.tobytes())
        for n in cloud.normals:
            for axis in plane_frame(n):
                digest.update(axis.tobytes())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
