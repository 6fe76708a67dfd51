"""Run one function over a list of items on every CPU this process may use.

The items are dealt out one at a time. With W processes, the lesser of
the CPUs in the affinity mask and the number of items, process w runs
items w, w + W, w + 2W, ...; the calling process is process 0, and the
others are forked workers. Each process stops at its own first failing
item, and once the caller has failed at item j, each worker runs no item
after j: the caller writes j to that worker's stop pipe, which the worker
reads before each item. The workers are forked with ``os.fork``, not
spawned: each inherits the function, the items and the loaded modules, so
nothing is pickled on the way in. Each worker pickles its outcomes to its
own pipe and exits; the caller reads every pipe to its end and reaps every
worker. A result does not depend on the process that computed it, so the
output is the same on any number of CPUs.

A worker that is killed, or that exits without sending its outcomes,
raises a ``ReviewgenError`` naming its pid; it never leaves the caller
waiting. If the caller itself fails, Ctrl-C included, it kills and reaps
every worker still running, so no worker outlives the call.

Work a worker records in its own memory (counters, tracing spans) stays
there; only the returned values reach the caller.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any, NoReturn

from reviewgen.errors import ReviewgenError


def cpu_count() -> int:
    """The number of CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _outcomes(fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
    """``fn(item)`` for each item in turn, ending with the exception of
    the first item that raises one, if any does."""
    outcomes = []
    for item in items:
        try:
            outcomes.append(fn(item))
        except Exception as exc:
            outcomes.append(exc)
            break
    return outcomes


def _until_stopped(
    stop: int, dealt: Sequence[Any], first: int, step: int
) -> Iterator[Any]:
    """A worker's ``dealt`` items, items ``first``, ``first + step``, ...
    of the call, in turn, up to the first one after the item j that the
    caller names on the non-blocking pipe ``stop`` when it fails there."""
    failed = None
    for k, item in enumerate(dealt):
        if failed is None:
            # the caller writes j whole, in 8 bytes, fewer than PIPE_BUF; a
            # read gives b"", j = 0, only at end of file, once the caller is gone
            try:
                failed = int.from_bytes(os.read(stop, 8), "little")
            except BlockingIOError:
                pass
        if failed is not None and first + k * step > failed:
            return
        yield item


def _work(
    write: int, unused: list[int], fn: Callable[[Any], Any], items: Iterable[Any]
) -> NoReturn:
    """In a forked worker: run ``items``, pickle their outcomes to the pipe
    ``write`` and exit, with status 0 only if every byte was written.
    ``unused`` are read ends of pipes that only the caller reads."""
    import pickle

    status = 1
    try:
        for fd in unused:
            os.close(fd)
        with open(write, "wb") as pipe:
            pickle.dump(_outcomes(fn, items), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    except Exception as exc:
        print(f"error: worker {os.getpid()}: {exc}", file=sys.stderr)
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def fork_map(fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
    """``[fn(item) for item in items]``, computed on every CPU.

    If any item raises, the exception of the first such item in item
    order is raised, once every process has stopped.
    """
    processes = min(cpu_count(), len(items))
    if processes < 2:
        return [fn(item) for item in items]
    import pickle  # only a parallel run pays for these imports
    import select
    import signal

    # a worker that exits flushes its copy of the stdio buffers, so
    # anything still buffered here would be written twice
    sys.stdout.flush()
    sys.stderr.flush()
    workers: dict[int, int] = {}  # read end of a worker's pipe -> its pid
    # both ends of each worker's stop pipe stay open here until the call
    # returns, so writing to one never fails, whether its worker runs or not
    stops: list[tuple[int, int]] = []
    try:
        for w in range(1, processes):
            stop_read, stop_write = os.pipe()
            stops.append((stop_read, stop_write))
            os.set_blocking(stop_read, False)
            # made before the fork, so the child cannot raise into this code
            dealt = _until_stopped(stop_read, items[w::processes], w, processes)
            read, write = os.pipe()
            # SIGINT is held off until the new worker is on the list, so
            # Ctrl-C cannot leave it unlisted, and it stays blocked in the
            # worker, which the caller kills on Ctrl-C
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    others = [fd for pair in stops[:-1] for fd in pair]
                    _work(write, [read, stop_write, *workers, *others], fn, dealt)
                workers[read] = pid
            except OSError:  # no worker was forked to own the read end
                os.close(read)
                raise
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(write)
        outcomes = [_outcomes(fn, items[::processes])]
        if isinstance(outcomes[0][-1], Exception):
            # the caller stops at its first failing item, j; no later item
            # can matter, and each worker runs every earlier one
            failed = (len(outcomes[0]) - 1) * processes
            for _, stop in stops:
                os.write(stop, failed.to_bytes(8, "little"))
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
    finally:
        for pair in stops:
            for fd in pair:
                os.close(fd)
    outcomes.extend(pickle.loads(data) for data in sent.values())  # worker order
    # a process stops at its first failing item, and a worker runs no item
    # after the caller's failing item j, so scanning in item order raises a
    # failure, at j at the latest, before reaching an item a process skipped
    results = []
    for i in range(len(items)):
        outcome = outcomes[i % processes][i // processes]
        if isinstance(outcome, Exception):
            raise outcome
        results.append(outcome)
    return results
