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

`Pipeline(fn)` runs fn over a stream of inputs one step behind the caller:
`submit(x)` hands x over and `collect()` returns the outcome for the oldest
input not yet collected.  Inside a `with` block it forks one child that
holds fn and evaluates each input while the caller goes on; `optim.train`
uses it to validate epoch e while epoch e + 1 trains.  It forks only when
every process that the innermost `map_forked` keeps busy (the caller alone,
outside one) can have one more slot, with the same serial rules as
`map_forked`; otherwise submit calls fn at once in the caller.  So a single
fit gets the child, while a comparison run's network and baseline, the
ablation arms and the sweep cells on 2 CPUs do not.  Each submit first
lets the child run on every CPU of the caller's mask but the one the caller
is on: the kernel tends to wake a sleeping process on its waker's CPU, and
there the child held the caller up until fn returned (on a 2-vCPU VM a
submit took about one val forward, 1.7-2.2 ms, and ~65 us with the move).

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
worker order, is raised in the caller.  A Pipeline's child sends each
exception of fn back as that input's outcome and goes on; collect raises
it.  Every child is reaped on every path.
"""

from __future__ import annotations

import collections
import ctypes
import os
import pickle
import signal
import struct
import threading

from .errors import CauchyNetError


# Where OpenBLAS reads its thread count from; the first positive value wins.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# The shared counter's one message, and the length prefix of a Pipeline
# message: smaller than PIPE_BUF, so a counter message is written and read
# whole.
_U64 = struct.Struct("=Q")

# Processes the innermost map_forked call keeps busy, the caller among them.
# It is set before the forks, so the children read the same count.
_busy = 1


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
    global _busy
    items = list(items)
    w = min(len(items), process_slots())
    if w < 2 or threading.active_count() > 1:
        return [fn(x) for x in items]
    counter = os.pipe()
    children = []                         # (pid, pipe) of each child not yet reaped

    def work(pipe):
        pipe.write(_outcome(lambda: [(i, fn(items[i])) for i in _claims(counter, len(items))]))

    outer, _busy = _busy, w
    try:
        os.write(counter[1], _U64.pack(1))     # items[0] is the caller's
        for _ in range(1, w):
            children.append(_fork(work))
        results = [fn(items[0])] + [None] * (len(items) - 1)
        for i in _claims(counter, len(items)):
            results[i] = fn(items[i])
        while children:
            pid, pipe = children[0]
            payload = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            _check_exit(pid, status, payload)
            for i, result in _unpack(payload):
                results[i] = result
        return results
    finally:
        _busy = outer
        for fd in counter:
            os.close(fd)
        for pid, pipe in children:
            _kill(pid, pipe)


class Pipeline:
    """fn over a stream of inputs, evaluated in a forked child one step behind.

    Use it as a context manager: entering forks the child where a slot is
    free, leaving kills and reaps it.  submit(x) takes x's value at the
    call: it is pickled to the child, or, without a child, fn(x) runs at
    once in the caller.  collect() returns fn's result for the oldest input
    not yet collected, waiting for the child if need be, or raises the
    exception fn raised for it; a child that died raises CauchyNetError.
    Keep few inputs pending: the child blocks once its unread results fill
    the pipe, and the caller then blocks in submit.
    """

    def __init__(self, fn):
        self._fn = fn
        self._outcomes = collections.deque()   # (ok, value) computed in the caller
        self._child = None                     # (pid, requests, results) once forked

    def __enter__(self) -> "Pipeline":
        if process_slots() >= 2 * _busy and threading.active_count() == 1:
            self._cpus = os.sched_getaffinity(0)
            self._this_cpu = getattr(ctypes.CDLL(None), "sched_getcpu", lambda: -1)
            read_fd, write_fd = os.pipe()
            try:
                pid, results = _fork(lambda pipe: _serve(self._fn, read_fd, write_fd, pipe))
            except OSError:
                os.close(write_fd)
                raise
            finally:
                os.close(read_fd)
            self._child = pid, write_fd, results
        return self

    def __exit__(self, *exc) -> None:
        if self._child is not None:
            pid, requests, results = self._child
            self._child = None
            os.close(requests)
            _kill(pid, results)

    def submit(self, x) -> None:
        if self._child is None:
            try:
                self._outcomes.append((True, self._fn(x)))
            except Exception as exc:
                self._outcomes.append((False, exc))
        else:
            pid, requests, _ = self._child
            try:                           # off this CPU before the wake-up (module docstring)
                os.sched_setaffinity(pid, (self._cpus - {self._this_cpu()}) or self._cpus)
            except OSError:                # the child died, or the mask changed under us
                pass
            data = memoryview(_message(pickle.dumps(x)))
            try:
                while data:
                    data = data[os.write(requests, data):]
            except BrokenPipeError:        # the child died: collect says how
                pass

    def collect(self):
        if self._child is None:
            ok, value = self._outcomes.popleft()
            if not ok:
                raise value
            return value
        pid, requests, results = self._child
        payload = _receive(results)
        if payload is None:                # the child is gone: reap it and say how
            self._child = None
            os.close(requests)
            results.close()
            _check_exit(pid, os.waitpid(pid, 0)[1], b"")
        return _unpack(payload)


def _serve(fn, read_fd, write_fd, pipe):
    """A Pipeline child: the outcome of fn for each request, until the caller
    closes the request pipe."""
    os.close(write_fd)                    # so that the caller's exit ends the loop
    with os.fdopen(read_fd, "rb") as requests:
        while (payload := _receive(requests)) is not None:
            pipe.write(_message(_outcome(fn, pickle.loads(payload))))
            pipe.flush()


def _message(payload: bytes) -> bytes:
    return _U64.pack(len(payload)) + payload


def _receive(pipe):
    """The next length-prefixed message of a pipe, or None at its end."""
    header = pipe.read(_U64.size)
    if len(header) < _U64.size:
        return None
    size = _U64.unpack(header)[0]
    payload = pipe.read(size)
    return payload if len(payload) == size else None


def _claims(counter, n):
    """Indices taken from the shared counter one at a time, until n."""
    read_fd, write_fd = counter
    while True:
        (i,) = _U64.unpack(os.read(read_fd, _U64.size))
        os.write(write_fd, _U64.pack(min(i + 1, n)))
        if i == n:
            return
        yield i


def _fork(work):
    """Fork a child that runs work(pipe), pipe being the write end of a new
    pipe, and exits; return its pid and the read end."""
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
            with os.fdopen(write_fd, "wb") as pipe:
                work(pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _kill(pid: int, pipe) -> None:
    pipe.close()
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _outcome(fn, *args) -> bytes:
    """(True, fn(*args)) pickled, or (False, the exception it raised)."""
    try:
        return pickle.dumps((True, fn(*args)))
    except BaseException as exc:          # interrupts too: the caller re-raises it
        return pickle.dumps((False, _picklable(exc)))


def _picklable(exc: BaseException) -> BaseException:
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return CauchyNetError(f"worker raised {type(exc).__name__}: {exc}")


def _check_exit(pid: int, status: int, payload: bytes) -> None:
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


def _unpack(payload: bytes):
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value
