"""fork_map: items dealt to the processes one at a time, results in item
order, the first error in item order raised, and no worker left behind
whether it succeeds, fails, dies or is interrupted."""

from __future__ import annotations

import errno
import os
import pickle
import re
import select
import time

import pytest

from conftest import run_bounded
from reviewgen.errors import MissingModelError, ReviewgenError
from reviewgen.parallel import fork_map

# fork_map on the CPU count of argv[1] over range(16) with ``fn``, defined
# by the code in argv[2]; prints the exception it raises. SIGINT raises
# KeyboardInterrupt even where the test run was started with it ignored,
# as a background job of a non-interactive shell is.
_FORK_MAP_ON_CPUS = """
import os, signal, sys, time
from reviewgen import parallel
parallel.cpu_count = lambda: int(sys.argv[1])
caller = os.getpid()
exec(sys.argv[2])
signal.signal(signal.SIGINT, signal.default_int_handler)
try:
    print(parallel.fork_map(fn, range(16)))
except BaseException as exc:
    print(type(exc).__name__, exc)
"""


def _pid_of(item: int) -> tuple[int, int]:
    return item, os.getpid()


def _fail_on(*bad: int):
    def fn(item: int) -> int:
        if item in bad:
            raise ValueError(f"item {item}")
        return item * item

    return fn


def _read_byte(fd: int) -> None:
    # bounded, so that a process left waiting fails the test, not hangs it
    assert select.select([fd], [], [], 20)[0], "no byte within 20 s"
    os.read(fd, 1)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_results_in_item_order(cpus, count):
    # each process's first item waits until every process has started one:
    # the caller's item 0 waits for a byte from each worker's first item,
    # then writes the byte that lets each of them go on
    cpus(count)
    caller = os.getpid()
    arrived, arrive = os.pipe()
    released, release = os.pipe()
    first = {caller}

    def fn(item: int) -> tuple[int, int]:
        if os.getpid() == caller and item == 0:
            for _ in range(count - 1):
                _read_byte(arrived)
            os.write(release, b"x" * (count - 1))
        elif os.getpid() not in first:
            first.add(os.getpid())
            os.write(arrive, b"x")
            _read_byte(released)
        return _pid_of(item)

    try:
        results = fork_map(fn, range(40))
    finally:
        for fd in (arrived, arrive, released, release):
            os.close(fd)
    assert [item for item, _ in results] == list(range(40))
    assert results[0] == (0, caller)
    assert len({pid for _, pid in results}) == count


def test_every_item_runs_once_with_more_processes_than_cpus(cpus, tmp_path):
    # each process appends the items it runs to one log, in single writes;
    # two processes that took the same number from the counter would both
    # log it
    cpus(5)
    log = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def fn(item: int) -> int:
        os.write(log, f"{item}\n".encode())
        return item

    try:
        assert fork_map(fn, range(3000)) == list(range(3000))
    finally:
        os.close(log)
    ran = sorted(map(int, (tmp_path / "ran").read_text().split()))
    assert ran == list(range(3000))


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("bad", [(0,), (3,), (3, 4), (6, 1)])
def test_first_error_in_item_order_raised_after_earlier_results(cpus, count, bad):
    cpus(count)
    with pytest.raises(ValueError) as exc:
        fork_map(_fail_on(*bad), range(7))
    assert str(exc.value) == f"item {min(bad)}"


@pytest.mark.parametrize("count", [1, 2])
def test_returned_exception_is_a_result(cpus, count):
    # what an item returns comes back as it is, an exception included;
    # only an exception an item raises is raised
    cpus(count)
    results = fork_map(ValueError, range(4))
    assert [(type(r), r.args) for r in results] == [(ValueError, (i,)) for i in range(4)]


def test_each_process_stops_at_its_first_failing_item(cpus):
    # the items each process ran are recorded in its own memory, so only
    # the caller's show here
    cpus(2)
    ran = []

    def fn(item: int) -> int:
        ran.append(item)
        if item == 0:
            raise ValueError("item 0")
        return item

    with pytest.raises(ValueError):
        fork_map(fn, range(8))
    assert ran == [0]


def test_worker_stops_once_the_caller_has_failed(cpus, tmp_path):
    # the worker logs each item it starts; only items before the caller's
    # failing item 0 could matter
    cpus(2)
    log = tmp_path / "started"
    log.write_text("")

    def fn(item: int) -> int:
        if item == 0:
            raise ValueError("item 0")
        with open(log, "a") as started:
            started.write(f"{item}\n")
        time.sleep(0.05)
        return item

    with pytest.raises(ValueError, match="item 0"):
        fork_map(fn, range(20))
    assert len(log.read_text().split()) <= 2


def test_caller_stops_once_a_worker_has_failed(cpus):
    # the items each process ran are recorded in its own memory, so only
    # the caller's show here; only items before the worker's failing item
    # could matter
    cpus(2)
    caller = os.getpid()
    ran = []

    def fn(item: int) -> int:
        if os.getpid() != caller:
            raise ValueError(f"item {item}")
        ran.append(item)
        time.sleep(0.05)
        return item

    with pytest.raises(ValueError, match=r"item \d+"):
        fork_map(fn, range(20))
    assert ran[0] == 0
    assert len(ran) <= 2


def test_empty_and_single(cpus):
    cpus(2)
    assert fork_map(_pid_of, []) == []
    assert fork_map(_pid_of, [5]) == [(5, os.getpid())]


def test_failed_fork_leaves_no_pipe_open(cpus, monkeypatch):
    def fork() -> int:
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    cpus(2)
    monkeypatch.setattr(os, "fork", fork)
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        fork_map(_pid_of, range(4))
    assert sorted(os.listdir("/proc/self/fd")) == before


def _no_children_left() -> bool:
    # WNOWAIT leaves any child there is to be waited for by its owner
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return True
    return False


def test_workers_reaped_after_results_and_after_errors(cpus):
    cpus(3)
    assert len(fork_map(_pid_of, range(40))) == 40
    assert _no_children_left()
    with pytest.raises(ValueError):
        fork_map(_fail_on(5, 30), range(40))
    assert _no_children_left()


@pytest.mark.parametrize("count", [2, 3])
def test_killed_worker_raises_at_once(count):
    # the caller's item 0 waits until a worker has exited, so a worker,
    # never the caller, takes item 1, and it kills itself; every other
    # worker would sleep for a minute, and is killed and reaped instead
    code = (
        "def fn(item):\n"
        "    if os.getpid() == caller: os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)\n"
        "    elif item == 1: os.kill(os.getpid(), signal.SIGKILL)\n"
        "    else: time.sleep(60)\n"
        "    return item\n"
    )
    result = run_bounded(_FORK_MAP_ON_CPUS, count, code, seconds=20)
    assert result.returncode == 0, result.stderr
    assert re.fullmatch(
        r"ReviewgenError worker \d+ was killed by signal 9 \(Killed\)\n", result.stdout
    )
    assert result.stderr == ""


def test_dead_worker_noticed_between_the_callers_items():
    # each of the caller's items waits until a worker has exited, and the
    # worker kills itself on its first item; the caller notices before it
    # starts another item, where it would otherwise go on through them all
    code = (
        "def fn(item):\n"
        "    if os.getpid() != caller: os.kill(os.getpid(), signal.SIGKILL)\n"
        "    print(item, file=sys.stderr)\n"
        "    os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)\n"
        "    return item\n"
    )
    result = run_bounded(_FORK_MAP_ON_CPUS, 2, code, seconds=20)
    assert result.returncode == 0, result.stderr
    assert re.fullmatch(
        r"ReviewgenError worker \d+ was killed by signal 9 \(Killed\)\n", result.stdout
    )
    assert result.stderr == "0\n"


def test_ctrl_c_kills_and_reaps_every_worker():
    # the caller sends SIGINT to its whole process group, as a terminal's
    # Ctrl-C does; the workers would sleep for a minute on every item
    code = (
        "def fn(item):\n"
        "    if os.getpid() == caller: os.killpg(0, signal.SIGINT)\n"
        "    time.sleep(60)\n"
    )
    result = run_bounded(_FORK_MAP_ON_CPUS, 3, code, seconds=20)
    assert (result.returncode, result.stdout) == (0, "KeyboardInterrupt \n")


def test_no_multiprocessing_import():
    code = (
        "import sys; import reviewgen.cli; from reviewgen import parallel; "
        "parallel.cpu_count = lambda: 2; "
        "assert parallel.fork_map(abs, range(-8, 8)) == list(map(abs, range(-8, 8))); "
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    )
    result = run_bounded(code)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def _error_classes(cls: type) -> list[type]:
    return [c for sub in cls.__subclasses__() for c in (sub, *_error_classes(sub))]


# the arguments each error class is built with, where one message won't do
_ERROR_ARGS = {MissingModelError: ("novelty",)}


@pytest.mark.parametrize(
    "cls", _error_classes(ReviewgenError), ids=lambda cls: cls.__name__
)
def test_error_survives_pickling(cls):
    # a worker's exception reaches the caller through pickle
    error = cls(*_ERROR_ARGS.get(cls, ("something went wrong",)))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert (str(copy), copy.args, vars(copy)) == (str(error), error.args, vars(error))
