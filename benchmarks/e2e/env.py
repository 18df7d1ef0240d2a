"""Process environment of a benchmark run: BLAS pinning, paths, the env block.

``prepare()`` must run before numpy is imported: OpenBLAS/OpenMP/MKL
read their thread counts once, at load.  The harness sizes load for two
cores (one generator, at most two connections), so a BLAS pool would
fight the server or the shard workers for them.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from typing import Dict

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: the checkout root (``benchmarks/e2e/`` is two levels below it).
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")


class MissingProgramError(RuntimeError):
    """The checkout has no ``src/repro`` to benchmark."""


def prepare() -> Dict[str, str]:
    """Pin BLAS, clear ``REPRO_*`` defaults, put ``src/`` on the path.

    Returns the cleared ``REPRO_*`` variables so the env block can record
    what the caller's shell had set.  Child processes (the served engine,
    shard workers) inherit the pinned, cleared environment and find
    ``repro`` through ``PYTHONPATH``.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise MissingProgramError(
            f"no program to benchmark: {os.path.join(SRC, 'repro')} does not exist"
        )
    if "numpy" in sys.modules:
        raise RuntimeError("env.prepare() must run before numpy is imported")
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    cleared = {
        name: os.environ.pop(name) for name in sorted(os.environ) if name.startswith("REPRO_")
    }
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    return cleared


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def env_block(cleared: Dict[str, str]) -> Dict[str, object]:
    """What a later reader needs to judge whether two runs are comparable."""
    import numpy

    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "cleared_repro_env": cleared,
    }
