"""fork_map: results in item order from every process, errors raised in
item order after the results before them."""

from __future__ import annotations

import os

import pytest

from reviewgen.parallel import fork_map


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
    results = list(fork_map(_pid_of, range(40)))
    assert [item for item, _ in results] == list(range(40))
    pids = {pid for _, pid in results}
    assert os.getpid() in pids
    # with three, one worker may take every block the caller leaves
    assert (len(pids) > 1) == (count > 1) and len(pids) <= count


def test_caller_takes_every_wth_block(cpus):
    cpus(2)
    pids = [pid for _, pid in fork_map(_pid_of, range(7))]
    assert [pid == os.getpid() for pid in pids] == [i % 2 == 0 for i in range(7)]


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("bad", [(0,), (3,), (3, 4), (6, 1)])
def test_first_error_in_item_order_raised_after_earlier_results(cpus, count, bad):
    cpus(count)
    seen = []
    with pytest.raises(ValueError) as exc:
        for result in fork_map(_fail_on(*bad), range(7)):
            seen.append(result)
    first = min(bad)
    assert str(exc.value) == f"item {first}"
    assert seen == [i * i for i in range(first)]


def test_empty_and_single(cpus):
    cpus(2)
    assert list(fork_map(_pid_of, [])) == []
    assert list(fork_map(_pid_of, [5])) == [(5, os.getpid())]
