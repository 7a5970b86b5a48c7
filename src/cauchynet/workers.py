"""Independent calls spread over forked worker processes.

`map_forked(fn, items)` returns `[fn(x) for x in items]`, in input order.
With w = min(len(items), process_slots()) processes, the caller forks
w - 1 children and runs items[0] itself; then the caller and every child
take the next unclaimed index from a shared counter until none is left, so
a process that finishes early takes more items (a caller that orders its
items largest first gets Graham's LPT schedule).  Each child sends its
(index, result) pairs back through a pipe by pickle.  It runs serially when
the platform has no fork or CPU affinity mask, when there is one slot, or
when the caller has other Python threads (a forked child has only the
calling thread, so a lock another thread held stays held in the child).

The counter is one 8-byte index held in a pipe: a process claims by reading
it and writing back the next one, so the pipe never holds more than one
message, whatever the number of items.  A child killed from outside in the
microseconds between that read and write would leave the others waiting.

A slot is a CPU of the affinity mask for each thread the BLAS runs per
process.  An unpinned OpenBLAS runs one thread per CPU, so there is one
slot: two processes whose BLAS threads share the cores wait on each other,
and on 2 CPUs a fanned-out run measured from no faster to 30 times slower
(the preset lambda ablation: 1.3 s serial, up to 40 s fanned out).  With
the BLAS pinned to one thread (OPENBLAS_NUM_THREADS=1 or OMP_NUM_THREADS=1)
every CPU is a slot.

A child's work reaches the caller only as its return values: what it
appends to a list, or records in a patched module attribute, stays in the
child.  Which process runs an item other than items[0] depends on timing,
so an fn whose failure matters should return it as a value.  An exception
in the caller kills the children and propagates at once; otherwise a
child stops at its first exception, and the first failed child's, in
worker order, is raised in the caller.  Every child is reaped on every path.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import threading

from .errors import CauchyNetError


# Where OpenBLAS reads its thread count from; the first positive value wins.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# The shared counter's one message: smaller than PIPE_BUF, so it is written
# and read whole.
_INDEX = struct.Struct("=Q")


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
    counter = os.pipe()
    children = []                         # (pid, pipe) of each child not yet reaped
    try:
        os.write(counter[1], _INDEX.pack(1))     # items[0] is the caller's
        for _ in range(1, w):
            children.append(_fork(fn, items, counter))
        results = [fn(items[0])] + [None] * (len(items) - 1)
        for i in _claims(counter, len(items)):
            results[i] = fn(items[i])
        while children:
            pid, pipe = children[0]
            payload = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            for i, result in _unpack(pid, payload, status):
                results[i] = result
        return results
    finally:
        for fd in counter:
            os.close(fd)
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _claims(counter, n):
    """Indices taken from the shared counter one at a time, until n."""
    read_fd, write_fd = counter
    while True:
        (i,) = _INDEX.unpack(os.read(read_fd, _INDEX.size))
        os.write(write_fd, _INDEX.pack(min(i + 1, n)))
        if i == n:
            return
        yield i


def _fork(fn, items, counter):
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
                done = [(i, fn(items[i])) for i in _claims(counter, len(items))]
                payload = pickle.dumps((True, done))
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
