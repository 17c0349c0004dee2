"""Estimated normals and curvatures, and the tangent frames of those normals,
do not depend on the BLAS kernel.

numpy's bundled OpenBLAS picks its kernels by CPU, and ``OPENBLAS_CORETYPE``
switches them for one process, so each kernel runs in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = (None, "Haswell", "Sandybridge", "Nehalem", "Prescott")  # None: this CPU's default


def test_normals_of_scans_are_byte_identical_under_every_blas_kernel():
    digests = {}
    for kernel in KERNELS:
        env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_CORETYPE"}
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "normals_digest.py")],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        digests[kernel] = run.stdout.strip()
    assert len(set(digests.values())) == 1, digests
