"""One map over independent tasks, in forked worker processes.

:func:`fork_map` returns ``[run(task) for task in tasks]``, computed in k
processes.  Task i runs in share i % k; share 0 runs in the calling
process, every other share in a worker forked with ``run`` and its tasks in
its memory, so nothing is pickled on the way in.  Each worker pipes back
its share's results, or the first exception its share raised.  If a task
raises, the map raises the first exception of the first share that raised:
share 0's as it is, at once, and a worker's chained to a
``ChildProcessError`` that holds the worker's formatted traceback.  Whether
the map returns or raises, and also when the caller is interrupted, every
worker is terminated if still running and joined.

k is the number of tasks capped by the CPUs this process may run on
(``os.sched_getaffinity``), and 1 where the "fork" start method is
unavailable, the CPU affinity is unknown (no ``os.sched_getaffinity``, as on
macOS), this process may not have children (a daemonic process), or another
Python thread runs: a lock it holds at the fork stays held in the worker.
With k = 1 every task runs here and nothing is forked.  Spans or counters
that a tracer records inside a worker do not reach the caller; the results
do.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import traceback


def _send_results(conn, run, tasks):
    """A forked worker's body: ``(results, None)`` for its tasks, or
    ``(exception, traceback text)`` for the first one that raised, sent down
    ``conn``.  An exception that does not survive pickling goes as a
    ``ChildProcessError`` naming it."""
    try:
        payload = ([run(task) for task in tasks], None)
    except Exception as exc:
        text = "".join(traceback.format_exception(type(exc), exc,
                                                  exc.__traceback__))
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = ChildProcessError(
                f"a task raised {type(exc).__qualname__}, which does not "
                f"pickle: {exc}")
        payload = (exc, text)
    conn.send(payload)
    conn.close()


def fork_map(run, tasks):
    """``[run(task) for task in tasks]`` in k processes, or the first
    exception of the first share that raised (see the module docstring for
    the shares and for k)."""
    k = 1
    if ("fork" in multiprocessing.get_all_start_methods()
            and hasattr(os, "sched_getaffinity")
            and not multiprocessing.current_process().daemon
            and threading.active_count() == 1):
        k = min(len(tasks), len(os.sched_getaffinity(0)))
    if k <= 1:
        return [run(task) for task in tasks]
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for share in range(1, k):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_send_results, daemon=True,
                               args=(send, run, tasks[share::k]))
            proc.start()
            send.close()
            workers.append((proc, recv))
        results = [None] * len(tasks)
        results[::k] = [run(task) for task in tasks[::k]]
        for share, (proc, recv) in enumerate(workers, 1):
            try:
                got, text = recv.recv()
            except EOFError:
                raise ChildProcessError(
                    f"worker {proc.pid} exited without its outcomes") from None
            if text is not None:
                raise got from ChildProcessError(
                    f"in worker {proc.pid}:\n{text}")
            results[share::k] = got
        return results
    finally:
        # a worker may still be running or blocked on its pipe
        for proc, recv in workers:
            proc.terminate()
            proc.join()
            recv.close()
