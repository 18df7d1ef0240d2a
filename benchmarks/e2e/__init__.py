"""The repo benchmark: six named workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repo root names this directory and the command
that runs it; ``README.md`` here is the glossary.  Every layer is
measured from outside: the harness times its own calls into the
program's public functions and reads counters the program already
publishes, so nothing under ``src/`` knows it is being benchmarked.
"""
