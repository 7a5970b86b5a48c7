"""Independent calls fanned out over forked worker processes.

`map_forked(fn, items)` returns `[fn(x) for x in items]`, in input order.
With w = min(len(items), process_slots()) workers, the caller runs
items[0::w] itself and each of w - 1 forked children runs items[i::w],
sending its results back through a pipe by pickle.  It runs serially when
the platform has no fork or CPU affinity mask, when there is one slot, or
when the caller has other Python threads (a forked child has only the
calling thread, so a lock another thread held stays held in the child).

A slot is a CPU of the affinity mask for each thread the BLAS runs per
process.  An unpinned OpenBLAS runs one thread per CPU, so there is one
slot: two processes whose BLAS threads share the cores wait on each other,
and on 2 CPUs a fanned-out run measured from no faster to 30 times slower
(the preset lambda ablation: 1.3 s serial, up to 40 s fanned out).  With
the BLAS pinned to one thread (OPENBLAS_NUM_THREADS=1 or OMP_NUM_THREADS=1)
every CPU is a slot.

A child's work reaches the caller only as its return values: what it
appends to a list, or records in a patched module attribute, stays in the
child.  An exception in the caller's own share kills the children and
propagates at once; otherwise the first child's exception, in worker
order, is raised in the caller.  Every child is reaped on every path.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

from .errors import CauchyNetError


# Where OpenBLAS reads its thread count from; the first positive value wins.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def process_slots() -> int:
    """CPUs in the affinity mask per BLAS thread; 1 where fork or the mask is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return max(1, len(os.sched_getaffinity(0)) // int(value))
    return 1                              # unpinned: one BLAS thread per CPU


def map_forked(fn, items) -> list:
    """[fn(x) for x in items], in input order, over the caller and forked workers."""
    items = list(items)
    w = min(len(items), process_slots())
    if w < 2 or threading.active_count() > 1:
        return [fn(x) for x in items]
    children = []                         # (pid, pipe) of each child not yet reaped
    try:
        for i in range(1, w):
            children.append(_fork(fn, items[i::w]))
        results = [None] * len(items)
        results[0::w] = [fn(x) for x in items[0::w]]
        for i in range(1, w):
            pid, pipe = children[0]
            payload = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            results[i::w] = _unpack(pid, payload, status)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(fn, share):
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:                          # the child never returns from here
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, [fn(x) for x in share]))
            except BaseException as exc:     # interrupts too: the caller re-raises it
                payload = pickle.dumps((False, _picklable(exc)))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _picklable(exc: BaseException) -> BaseException:
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return CauchyNetError(f"worker raised {type(exc).__name__}: {exc}")


def _unpack(pid: int, payload: bytes, status: int) -> list:
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        try:
            name = signal.Signals(sig).name
        except ValueError:
            name = f"signal {sig}"
        raise CauchyNetError(f"worker process {pid} was killed by {name}")
    if status != 0 or not payload:
        raise CauchyNetError(f"worker process {pid} exited with status "
                             f"{os.waitstatus_to_exitcode(status)} and sent no result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value
