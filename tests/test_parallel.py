"""fork_map: items dealt to the processes one at a time, results in item
order, the first error in item order raised, and no worker left behind
whether it succeeds, fails, dies or is interrupted."""

from __future__ import annotations

import errno
import os
import pickle
import re
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


@pytest.mark.parametrize("count", [1, 2, 3])
def test_results_in_item_order(cpus, count):
    cpus(count)
    results = fork_map(_pid_of, range(40))
    assert [item for item, _ in results] == list(range(40))
    pids = {pid for _, pid in results}
    assert os.getpid() in pids
    assert len(pids) == count


def test_caller_takes_every_wth_block(cpus):
    cpus(2)
    pids = [pid for _, pid in fork_map(_pid_of, range(7))]
    assert [pid == os.getpid() for pid in pids] == [i % 2 == 0 for i in range(7)]


def test_item_runs_where_item_mod_w_runs(cpus):
    cpus(3)
    pids = [pid for _, pid in fork_map(_pid_of, range(40))]
    assert pids[0] == os.getpid()
    assert len(set(pids[:3])) == 3
    assert pids == [pids[i % 3] for i in range(40)]


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("bad", [(0,), (3,), (3, 4), (6, 1)])
def test_first_error_in_item_order_raised_after_earlier_results(cpus, count, bad):
    cpus(count)
    with pytest.raises(ValueError) as exc:
        fork_map(_fail_on(*bad), range(7))
    assert str(exc.value) == f"item {min(bad)}"


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
    # the worker runs items 1, 3, ..., 19 and logs each one it starts;
    # only items before the caller's failing item 0 could matter
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
    # the last worker kills itself on its first item; every other worker
    # would sleep for a minute, and is killed and reaped instead
    code = (
        "def fn(item):\n"
        "    if item == int(sys.argv[1]) - 1: os.kill(os.getpid(), signal.SIGKILL)\n"
        "    if os.getpid() != caller: time.sleep(60)\n"
        "    return item\n"
    )
    result = run_bounded(_FORK_MAP_ON_CPUS, count, code, seconds=20)
    assert result.returncode == 0, result.stderr
    assert re.fullmatch(
        r"ReviewgenError worker \d+ was killed by signal 9 \(Killed\)\n", result.stdout
    )
    assert result.stderr == ""


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
