"""The harness's own tests, run by ``python -m benchmarks.e2e selftest``.

They are not collected by the repo's tier-1 pytest (``testpaths`` stays
``tests/``): they test the referee, not the program.
"""

import os

from benchmarks.e2e import env


def scratch() -> str:
    """Where tests may write: the gitignored output directory of the checkout."""
    path = os.path.join(env.ROOT, ".bench_out", "selftest")
    os.makedirs(path, exist_ok=True)
    return path
