"""A pool of forked worker processes, one per CPU the process may run on,
for work that runs while the caller goes on (``models.Evaluations``).

``submit(fn, *args)`` runs ``fn(*args)`` in a worker and ``result`` collects
it. The pool is made at the first ``submit`` and lives until the
interpreter exits. Workers ignore Ctrl-C and exit when the caller dies. A
worker's exception is raised by ``result``; a worker that died breaks the
pool, raises BrokenProcessPool, and the next ``submit`` starts a fresh
pool.
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os
import signal
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

# This process's pool as (pid, workers, executor), made on first use. A
# forked child sees a pid that is not its own and makes its own pool.
_pool: tuple[int, int, ProcessPoolExecutor] | None = None


def cpu_count() -> int:
    """The CPUs this process may run on; 1 where the OS does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker_init(parent: int) -> None:
    """Leave Ctrl-C to the caller, and exit when the caller dies, even by a
    signal that runs none of its exit handlers. (Linux sends the signal when
    the thread that made the pool ends: a pool made on a short-lived thread
    breaks with it, and the next call starts a fresh one.)"""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    pr_set_pdeathsig = 1
    prctl(pr_set_pdeathsig, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _one_blas_thread() -> None:
    """Set each OpenBLAS this process loaded to one thread; a no-op for
    another BLAS.

    The encoder's matrices are too small for a second BLAS thread to pay,
    and an idle OpenBLAS thread spins on a core that a worker needs while
    the caller trains."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split(maxsplit=5)[-1].rstrip("\n") for line in fh}
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        lib = ctypes.CDLL(path)
        for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def _executor() -> ProcessPoolExecutor:
    """The pool of one worker per CPU, made now if this process has none of
    that size. Forking costs no import, and a worker reads only the
    arguments of each call; it inherits the one BLAS thread set here. The
    pool shuts down when the interpreter exits."""
    global _pool
    key = (os.getpid(), cpu_count())
    if _pool is None or _pool[:2] != key:
        if _pool is not None and _pool[0] == key[0]:
            _pool[2].shutdown()
        _one_blas_thread()
        _pool = (*key, ProcessPoolExecutor(
            key[1], mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init, initargs=(key[0],)))
    return _pool[2]


@contextlib.contextmanager
def _resetting_a_broken_pool():
    """Let BrokenProcessPool through, and make the next use start a fresh
    pool: a worker that died breaks the whole pool."""
    global _pool
    try:
        yield
    except BrokenProcessPool:
        _pool = None
        raise


def submit(fn, *args) -> Future:
    """``fn(*args)`` in a worker. ``fn`` is sent by name, so it must be a
    module-level function. The arguments are pickled later, on the pool's
    feeder thread: they must not change until the future is done."""
    with _resetting_a_broken_pool():
        return _executor().submit(fn, *args)


def result(future: Future):
    """The value of a ``submit`` future, or its worker's exception."""
    with _resetting_a_broken_pool():
        return future.result()
