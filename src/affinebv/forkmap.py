"""One map over independent tasks, in forked worker processes.

:func:`fork_map` calls ``run(task)`` for each task of a list in k processes
and returns the outcomes in task order: each call's return value, or the
exception it raised.  Task i runs in share i % k; share 0 runs in the calling
process, every other share in a worker forked with ``run`` and its tasks in
its memory, so nothing is pickled on the way in.  Each worker pipes back its
outcomes; an exception raised in a worker reaches the caller chained to the
worker's formatted traceback.  If the caller is interrupted, its workers are
terminated, and every worker is joined before the map returns or raises.

k is the number of tasks capped by the CPUs this process may run on
(``os.sched_getaffinity``), and 1 where the "fork" start method is
unavailable, the CPU affinity is unknown (no ``os.sched_getaffinity``, as on
macOS), this process may not have children (a daemonic process), or another
Python thread runs: a lock it holds at the fork stays held in the worker.
With k = 1 every task runs here, through :func:`run_tasks`, and nothing is
forked.  Spans or counters that a tracer records inside a worker do not
reach the caller; the outcomes do.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import traceback


def run_tasks(run, tasks):
    """The outcome of ``run(task)`` for each of ``tasks``, in this process:
    its return value, or the exception it raised."""
    outcomes = []
    for task in tasks:
        try:
            outcomes.append(run(task))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def _send_outcomes(conn, run, tasks):
    """A forked worker's body: its tasks' outcomes, and the formatted
    traceback of each exception among them by index, sent down ``conn``.
    An exception that does not survive pickling goes as a
    ``ChildProcessError`` naming it."""
    outcomes = run_tasks(run, tasks)
    tracebacks = {}
    for i, exc in enumerate(outcomes):
        if isinstance(exc, Exception):
            tracebacks[i] = "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__))
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                outcomes[i] = ChildProcessError(
                    f"a task raised {type(exc).__qualname__}, which does not "
                    f"pickle: {exc}")
    conn.send((outcomes, tracebacks))
    conn.close()


def fork_map(run, tasks):
    """:func:`run_tasks` over ``tasks`` in k processes, the outcomes in task
    order (see the module docstring for the shares and for k)."""
    k = 1
    if ("fork" in multiprocessing.get_all_start_methods()
            and hasattr(os, "sched_getaffinity")
            and not multiprocessing.current_process().daemon
            and threading.active_count() == 1):
        k = min(len(tasks), len(os.sched_getaffinity(0)))
    if k <= 1:
        return run_tasks(run, tasks)
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for share in range(1, k):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_send_outcomes, daemon=True,
                               args=(send, run, tasks[share::k]))
            proc.start()
            send.close()
            workers.append((proc, recv))
        outcomes = [None] * len(tasks)
        outcomes[::k] = run_tasks(run, tasks[::k])
        for share, (proc, recv) in enumerate(workers, 1):
            try:
                got, tracebacks = recv.recv()
            except EOFError:
                raise ChildProcessError(
                    f"worker {proc.pid} exited without its outcomes") from None
            for i, text in tracebacks.items():
                got[i].__cause__ = ChildProcessError(
                    f"in start worker {proc.pid}:\n{text}")
            outcomes[share::k] = got
        return outcomes
    except BaseException:
        # a worker may still be running or blocked on its pipe
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, recv in workers:
            proc.join()
            recv.close()
