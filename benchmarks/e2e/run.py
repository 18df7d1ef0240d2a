"""Entry point named by ``BENCHMARK.json``.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload once and prints the result object as the
last line of standard output; ``run``, ``compare`` and ``selftest`` as a
first argument select the other subcommands (same as
``python -m benchmarks.e2e``).
"""

import os
import sys

if __name__ == "__main__":
    # shard workers are spawned, which re-imports this file: everything
    # stays under the guard so a worker starts nothing of the harness
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    )
    from benchmarks.e2e.cli import main

    sys.exit(main())
