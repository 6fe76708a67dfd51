"""Run one function over a list of items on every CPU this process may use.

The items are cut into blocks, about eight per process. With W CPUs in
the affinity mask, the calling process runs every W-th block itself and
W - 1 forked workers run the rest. The workers are forked, not spawned:
each inherits the function, the items and the loaded modules through a
module global, so nothing is pickled on the way in and only the results
come back. A result does not depend on the process that computed it, so
the output is the same on any number of CPUs.

Work a worker records in its own memory (counters, tracing spans) stays
there; only the returned values reach the caller.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterator, Sequence
from typing import Any

# what the forked workers run: (function, items, block size); set only
# while fork_map's workers are alive
_job: tuple[Callable[[Any], Any], Sequence[Any], int] | None = None


def cpu_count() -> int:
    """The number of CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_block(block: int) -> list[Any]:
    """Each item's result, or the exception it raised, for one block."""
    fn, items, size = _job
    outcomes = []
    for item in items[block * size : (block + 1) * size]:
        try:
            outcomes.append(fn(item))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def fork_map(fn: Callable[[Any], Any], items: Sequence[Any]) -> Iterator[Any]:
    """Yield ``fn(item)`` for every item, in item order.

    On one CPU the items run in process, one by one. Otherwise every item
    runs before the first result is yielded; an exception raised by an
    item, in any process, is raised when its place in the order is
    reached, so the results before it are still yielded.
    """
    global _job
    processes = cpu_count()
    if processes < 2 or len(items) < 2:
        for item in items:
            yield fn(item)
        return
    import multiprocessing  # only a parallel run pays for the import

    size = -(-len(items) // (processes * 8))
    blocks = range(-(-len(items) // size))
    theirs = [b for b in blocks if b % processes]
    # a worker that exits flushes its copy of the stdio buffers, so
    # anything still buffered here would be written twice
    sys.stdout.flush()
    sys.stderr.flush()
    _job = (fn, items, size)
    try:
        with multiprocessing.get_context("fork").Pool(processes - 1) as pool:
            pending = pool.map_async(_run_block, theirs, chunksize=1)
            outcomes = {b: _run_block(b) for b in blocks[::processes]}
            outcomes.update(zip(theirs, pending.get()))
    finally:
        _job = None
    for b in blocks:
        for outcome in outcomes[b]:
            if isinstance(outcome, Exception):
                raise outcome
            yield outcome
