"""``python -m benchmarks.e2e {run,compare,selftest}``."""

import sys

if __name__ == "__main__":
    from .cli import main

    sys.exit(main())
