"""Run one function over a list of items on every CPU this process may use.

The items are cut into blocks, about eight per process. With W CPUs in
the affinity mask, the calling process runs blocks 0, W, 2W, ... itself,
and forked worker w (1 <= w < W) runs blocks w, w + W, .... The workers
are forked with ``os.fork``, not spawned: each inherits the function, the
items and the loaded modules, so nothing is pickled on the way in. Each
worker pickles its results to its own pipe and exits; the caller reads
every pipe to its end and reaps every worker. A result does not depend
on the process that computed it, so the output is the same on any number
of CPUs.

A worker that is killed, or that exits without sending its results,
raises a ``ReviewgenError`` naming its pid; it never leaves the caller
waiting. If the caller itself fails, Ctrl-C included, it kills and reaps
every worker still running, so no worker outlives the call.

Work a worker records in its own memory (counters, tracing spans) stays
there; only the returned values reach the caller.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterator, Sequence
from typing import Any, NoReturn

from reviewgen.errors import ReviewgenError


def cpu_count() -> int:
    """The number of CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_blocks(
    fn: Callable[[Any], Any], items: Sequence[Any], size: int, blocks: range
) -> dict[int, list[Any]]:
    """Each item's result, or the exception it raised, by block."""
    outcomes = {}
    for block in blocks:
        outcomes[block] = block_outcomes = []
        for item in items[block * size : (block + 1) * size]:
            try:
                block_outcomes.append(fn(item))
            except Exception as exc:
                block_outcomes.append(exc)
    return outcomes


def _work(
    write: int,
    unused: list[int],
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    size: int,
    blocks: range,
) -> NoReturn:
    """In a forked worker: run ``blocks``, pickle their outcomes to the pipe
    ``write`` and exit, with status 0 only if every byte was written.
    ``unused`` are read ends of pipes that only the caller reads."""
    import pickle

    status = 1
    try:
        for fd in unused:
            os.close(fd)
        with open(write, "wb") as pipe:
            pickle.dump(_run_blocks(fn, items, size, blocks), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    except Exception as exc:
        print(f"error: worker {os.getpid()}: {exc}", file=sys.stderr)
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def fork_map(fn: Callable[[Any], Any], items: Sequence[Any]) -> Iterator[Any]:
    """Yield ``fn(item)`` for every item, in item order.

    On one CPU the items run in process, one by one. Otherwise every item
    runs before the first result is yielded; an exception raised by an
    item, in any process, is raised when its place in the order is
    reached, so the results before it are still yielded.
    """
    processes = cpu_count()
    if processes < 2 or len(items) < 2:
        for item in items:
            yield fn(item)
        return
    import pickle  # only a parallel run pays for these imports
    import select
    import signal

    size = -(-len(items) // (processes * 8))
    count = -(-len(items) // size)
    # a worker that exits flushes its copy of the stdio buffers, so
    # anything still buffered here would be written twice
    sys.stdout.flush()
    sys.stderr.flush()
    workers: dict[int, int] = {}  # read end of a worker's pipe -> its pid
    try:
        for w in range(1, min(processes, count)):
            read, write = os.pipe()
            # SIGINT is held off until the new worker is on the list, so
            # Ctrl-C cannot leave it unlisted, and it stays blocked in the
            # worker, which the caller kills on Ctrl-C
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    unused = [read, *workers]
                    _work(write, unused, fn, items, size, range(w, count, processes))
                workers[read] = pid
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(write)
        outcomes = _run_blocks(fn, items, size, range(0, count, processes))
        # every pipe is read as its bytes arrive, so the first worker to
        # die is reaped, and raises, whichever one it is
        sent = {read: bytearray() for read in workers}
        pipes = select.poll()
        for read in workers:
            pipes.register(read, select.POLLIN)
        while workers:
            for read, _ in pipes.poll():
                chunk = os.read(read, 1 << 16)
                if chunk:
                    sent[read] += chunk
                    continue
                pipes.unregister(read)
                pid = workers[read]
                _, status = os.waitpid(pid, 0)
                del workers[read]
                os.close(read)
                code = os.waitstatus_to_exitcode(status)
                if code < 0:
                    raise ReviewgenError(
                        f"worker {pid} was killed by signal {-code} "
                        f"({signal.strsignal(-code)})"
                    )
                if code:
                    raise ReviewgenError(f"worker {pid} exited with status {code}")
    except BaseException:
        for read, pid in workers.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
        raise
    for data in sent.values():
        outcomes.update(pickle.loads(data))
    for block in range(count):
        for outcome in outcomes[block]:
            if isinstance(outcome, Exception):
                raise outcome
            yield outcome
