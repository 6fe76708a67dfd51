"""Run one function over a list of items on every CPU this process may use.

The items are dealt out one at a time, on demand. With W processes, the
lesser of the CPUs in the affinity mask and the number of items, the
calling process and W - 1 workers forked with ``os.fork`` share one
counter, a memfd read and advanced under a record lock: the caller runs
item 0, and each process, whenever it is free, takes the next item number
from the counter. A process that fails at an item sets the counter to the
end, so no process takes another item, and between its own items the
caller reads the workers' pipes without waiting, so a dead worker is
noticed after the caller's current item. The workers are forked, not
spawned: each inherits the function, the items and the loaded modules, so
nothing is pickled on the way in. Each worker pickles its numbered outcomes
to its own pipe and exits; the caller reads every pipe to its end and reaps
every worker. A result does not depend on the process that computed it, so
the output is the same on any number of CPUs.

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
from typing import Any, NamedTuple, NoReturn

from reviewgen.errors import ReviewgenError


def cpu_count() -> int:
    """The number of CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class _Raised(NamedTuple):
    """The exception an item raised, told apart from one it returned."""

    exc: Exception


def _take(counter: int, end: int, stop: bool = False) -> int:
    """The next item number from the shared ``counter``, which moves past
    it, or ``end`` once every item is taken; with ``stop``, the counter is
    set to ``end``, so that no process takes another item."""
    import fcntl

    # a record lock: the kernel drops it if its holder dies
    fcntl.lockf(counter, fcntl.LOCK_EX)
    try:
        i = int.from_bytes(os.pread(counter, 8, 0), "little")
        os.pwrite(counter, (end if stop else min(i + 1, end)).to_bytes(8, "little"), 0)
    finally:
        fcntl.lockf(counter, fcntl.LOCK_UN)
    return i


def _outcomes(
    fn: Callable[[Any], Any], items: Sequence[Any], counter: int, i: int | None
) -> Iterator[tuple[int, Any]]:
    """``(i, fn(items[i]))`` for item ``i``, or for the first item taken
    from ``counter`` if ``i`` is None, and then for each item this process
    takes from it, in turn, ending with ``(i, _Raised(exception))`` for the
    first item that raises one, if any does; that item stops every process."""
    if i is None:
        i = _take(counter, len(items))
    while i < len(items):
        try:
            outcome = fn(items[i])
        except Exception as exc:
            _take(counter, len(items), stop=True)
            yield i, _Raised(exc)
            return
        yield i, outcome
        i = _take(counter, len(items))


def _work(write: int, unused: list[int], outcomes: Iterable[Any]) -> NoReturn:
    """In a forked worker: pickle ``outcomes`` to the pipe ``write`` and
    exit, with status 0 only if every byte was written. ``unused`` are read
    ends of pipes that only the caller reads."""
    import pickle

    status = 1
    try:
        for fd in unused:
            os.close(fd)
        with open(write, "wb") as pipe:
            pickle.dump(list(outcomes), pipe, pickle.HIGHEST_PROTOCOL)
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
    sent: dict[int, bytearray] = {}
    pipes = select.poll()

    def read_pipes(timeout: int | None) -> None:
        """Read what has arrived on the pipes within ``timeout`` ms, and reap
        each worker whose pipe is at its end, so the first to die raises."""
        for read, _ in pipes.poll(timeout):
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

    # the caller runs item 0 itself, so the counter starts at 1
    counter = os.memfd_create("fork_map")
    try:
        os.pwrite(counter, (1).to_bytes(8, "little"), 0)
        for _ in range(1, processes):
            read, write = os.pipe()
            # SIGINT is held off until the new worker is on the list, so
            # Ctrl-C cannot leave it unlisted, and it stays blocked in the
            # worker, which the caller kills on Ctrl-C
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _work(write, [read, *workers], _outcomes(fn, items, counter, None))
                workers[read] = pid
                sent[read] = bytearray()
                pipes.register(read, select.POLLIN)
            except OSError:  # no worker was forked to own the read end
                os.close(read)
                raise
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(write)
        outcomes: dict[int, Any] = {}
        for i, outcome in _outcomes(fn, items, counter, 0):
            outcomes[i] = outcome
            read_pipes(0)
        while workers:
            read_pipes(None)
    except BaseException:
        for read, pid in workers.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
        raise
    finally:
        os.close(counter)
    for data in sent.values():
        outcomes.update(pickle.loads(data))
    # every process runs each item it takes, and the counter deals items
    # in order, so every item before the last one taken has an outcome; a
    # failing item stops the dealing, so scanning in item order raises a
    # failure before reaching an item that no process took
    results = []
    for i in range(len(items)):
        outcome = outcomes[i]
        if isinstance(outcome, _Raised):
            raise outcome.exc
        results.append(outcome)
    return results
