"""The fork map's contract on cheap tasks: results in task order, or the
first exception of the first share that raised, and no worker left."""

import multiprocessing
import os
import time

import pytest

from affinebv.forkmap import fork_map


class _NoPickle(Exception):
    """Pickles, but unpickling calls ``__init__`` with one argument."""

    def __init__(self, where, why):
        super().__init__(f"raised in the {where}: {why}")


@pytest.fixture(autouse=True)
def no_worker_left():
    yield
    assert not multiprocessing.active_children()


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def _square_with_pid(task):
    return task * task, os.getpid()


def _in_worker(fail):
    """A task that calls ``fail(task)`` in a worker and returns ``task``."""
    parent = os.getpid()

    def run(task):
        if os.getpid() != parent:
            fail(task)
        return task

    return run


@pytest.mark.parametrize("cpus", [{0}, {0, 1}, {0, 1, 2}])
@pytest.mark.parametrize("n_tasks", [0, 2, 7])
def test_results_in_task_order(monkeypatch, cpus, n_tasks):
    _cpus(monkeypatch, cpus)
    out = fork_map(_square_with_pid, list(range(n_tasks)))
    assert [value for value, _ in out] == [i * i for i in range(n_tasks)]
    # task i ran in share i % k, share 0 in this process
    k = min(n_tasks, len(cpus))
    pids = [pid for _, pid in out]
    assert pids[:1] == [os.getpid()][:n_tasks]
    for i in range(n_tasks):
        for j in range(n_tasks):
            assert (pids[i] == pids[j]) == (i % k == j % k)


def test_worker_error_keeps_its_type(monkeypatch):
    def fail(task):
        raise FloatingPointError(f"task {task} failed")

    _cpus(monkeypatch, {0, 1})
    with pytest.raises(FloatingPointError, match="task 1 failed") as info:
        fork_map(_in_worker(fail), [0, 1, 2, 3])
    cause = info.value.__cause__
    assert isinstance(cause, ChildProcessError)
    assert str(cause).startswith("in worker ")
    assert "in fail" in str(cause)
    assert "FloatingPointError: task 1 failed" in str(cause)


def test_first_failing_share_wins(monkeypatch):
    def fail(task):
        raise ValueError(f"task {task} failed")

    _cpus(monkeypatch, {0, 1, 2})
    # shares 1 and 2 both fail; share 1's first task is reported
    with pytest.raises(ValueError, match="task 1 failed"):
        fork_map(_in_worker(fail), list(range(6)))


def test_share_zero_error_does_not_wait_for_workers(monkeypatch):
    parent = os.getpid()

    def run(task):
        if os.getpid() == parent:
            raise KeyError("share 0")
        time.sleep(60)

    _cpus(monkeypatch, {0, 1})
    t0 = time.perf_counter()
    with pytest.raises(KeyError, match="share 0") as info:
        fork_map(run, [0, 1])
    assert info.value.__cause__ is None
    assert time.perf_counter() - t0 < 30


def test_unpicklable_error_is_named(monkeypatch):
    def fail(task):
        raise _NoPickle("worker", "no copy")

    _cpus(monkeypatch, {0, 1})
    with pytest.raises(ChildProcessError, match="_NoPickle, which does not "
                       "pickle: raised in the worker: no copy") as info:
        fork_map(_in_worker(fail), [0, 1])
    assert "_NoPickle: raised in the worker: no copy" in str(info.value.__cause__)


def test_lost_worker_is_reported(monkeypatch):
    _cpus(monkeypatch, {0, 1})
    with pytest.raises(ChildProcessError, match="exited without its outcomes"):
        fork_map(_in_worker(lambda task: os._exit(3)), [0, 1])
