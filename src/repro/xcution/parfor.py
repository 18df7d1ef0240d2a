"""The ``parfor`` operator: parallel iteration over the outermost loop.

LevelHeaded parallelizes the generic WCOJ algorithm by naively
splitting the outermost ``for`` over set values across cores
(Section III-D).  Here the unit of work is a window of the generic
join's level-1 frontier: the executor cuts the windows by row count
alone and hands contiguous runs of them to worker threads (numpy
kernels release the GIL; Python-level dispatch does not), so
``parallel=True`` is about exercising the execution structure, not
about wall-clock speedups -- see DESIGN.md.

Stats semantics
    Workers never share mutable state: each parfor worker accumulates
    into a **private** ``ExecutionStats`` and a **private** aggregator,
    and the parent merges both in chunk order after every future has
    resolved (``parfor_chunks`` yields results in submission order).
    Every window runs the same steps whichever thread takes it, so
    repeated parallel runs of the same plan produce byte-identical
    counters (``loop_values``, ``intersections``, ``fetches``,
    ``cancel_checks``, ...), equal to the serial run's, and hand the
    aggregator the same batches in the same order.

Memory-budget semantics
    ``memory_budget_bytes`` bounds the *global* aggregate state, not
    per-worker state: each worker's aggregator receives
    ``budget // n_chunks`` as its share (so no worker can singlehandedly
    blow the global budget by a factor of ``num_threads``), and the
    parent re-checks the full budget after every chunk merge, raising
    ``OutOfMemoryBudgetError`` exactly as the serial path does.  A
    worker's exception propagates out of ``parfor_chunks`` through its
    future.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, List, TypeVar

T = TypeVar("T")


def chunk_slices(total: int, chunks: int) -> List[slice]:
    """Split ``range(total)`` into at most ``chunks`` contiguous slices."""
    if total <= 0:
        return []
    chunks = max(1, min(chunks, total))
    base, extra = divmod(total, chunks)
    slices = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


def parfor_chunks(
    worker: Callable[[slice], T], total: int, num_threads: int, cancel=None
) -> Iterator[T]:
    """Run ``worker`` over contiguous chunks of ``range(total)`` in parallel.

    ``cancel`` (an optional :class:`~repro.core.governor.CancelToken`)
    is checked before dispatch and between chunk results; the workers
    themselves poll the same token inside their loops, so a fired token
    stops every chunk at its next poll and the first worker's
    ``QueryCancelledError``/``QueryTimeoutError`` propagates out of the
    generator through its future.
    """
    if cancel is not None:
        cancel.check()
    slices = chunk_slices(total, num_threads)
    if len(slices) <= 1:
        for sl in slices:
            yield worker(sl)
        return
    with ThreadPoolExecutor(max_workers=len(slices)) as pool:
        futures = [pool.submit(worker, sl) for sl in slices]
        for future in futures:
            # a fired token makes the remaining workers fail fast at
            # their next poll, so draining the futures stays bounded
            yield future.result()
            if cancel is not None and cancel.cancelled:
                cancel.check()
