"""alg2's helper process: f and grad_g at q, while the step computes grad_g at q'.

`solvers._walk` imports this module only for a walk that lends the helper,
and closes its `Helper` when the walk is closed.

The helper is forked from the walk's process, so it holds the objective, its
matrix and its code without a copy (the pages are shared copy-on-write), and
it runs on its own interpreter lock. One anonymous shared mapping, made
before the fork, holds q for the helper, and f(q) and grad_g(q) for the
step. Two pipes carry only sequence numbers: down the request pipe, the
number, a flag word and f(q) when the step knows it; up the result pipe, the
number and whether a result was computed. Each side writes the mapping
first and the pipe after, and reads the pipe first and the mapping after. A
pipe write and the read that returns its bytes meet in the kernel, behind
its pipe lock, so the payload written before a number is visible to whoever
reads that number, on any processor; no ordering of plain loads and stores
is assumed. Every message is at most ``PIPE_BUF`` bytes, so it arrives whole.

The step takes a result only if its number is that of its own request, and
reads the mapping only then. The walk's process writes q again only when it
posts a newer request, after which it never takes the older number, so a
copy of q that such a write tore can only yield a result that is dropped.
The helper also checks its request pipe after copying q and drops the
request if a newer one has come.

The helper computes with the functions the step would call, `obj._value` and
`obj._grad`, on the same bytes, with the same one-thread BLAS, so a result
it returns is the one the step would compute. It never sends an exception:
where a call raises, or meets a floating-point event that the caller's
numpy error state (sent with each request) does not ignore, or any warning,
it reports no result, and the step computes the pair itself, raising or
warning as it would without the helper. After each request it polls for the
next for `_SPIN_S`, then blocks on its pipe; it ends at the pipe's end of
file, so it does not outlive the walk's process, and it leaves through
`os._exit`, writing nothing to stdout or stderr.
"""

from __future__ import annotations

import gc
import mmap
import os
import select
import signal
import struct
import time
import warnings

import numpy as np

from .solvers import _value_and_grad

# how long the helper polls for its next request before it blocks on its pipe
_SPIN_S = 1e-3
_REQUEST = struct.Struct("<qqd")  # number, flags, f(q) where flags has _KNOWN_F
_RESULT = struct.Struct("<qq")  # number, 1 if the mapping holds the result, else 0
# flag bits 1, 2, 4 and 8: the caller's error state does not ignore the category
_CATEGORIES = ("divide", "over", "under", "invalid")
_KNOWN_F = 16
_DRAIN = 1 << 16  # a whole pipe's worth of messages in one read


class Helper:
    """A forked process that computes ``(f(q), grad_g(q))`` for an alg2 step.

    `post` hands it q (and f(q) when known) before the step computes
    grad_g(q'); `take`, on a fallback to q, returns the pair if it arrives
    within as long again as the step has taken since posting, else None.
    `close` kills and reaps the process. Creating one raises `OSError` where
    the process cannot be forked.
    """

    def __init__(self, obj):
        dim = obj.dim
        shared = np.frombuffer(mmap.mmap(-1, 8 * (2 * dim + 1)), dtype=np.float64)
        self._q, self._f, self._grad = shared[:dim], shared[dim:dim + 1], shared[dim + 1:]
        requests, self._requests = os.pipe()
        self._results, results = os.pipe()
        # a Ctrl-C signals the helper too: it is held until the helper ignores it
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self._pid = os.fork()
        except OSError:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for fd in (requests, self._requests, self._results, results):
                os.close(fd)
            raise
        if self._pid == 0:
            _serve(obj, self._q, self._f, self._grad, requests, results,
                   (self._requests, self._results), mask)
        os.close(requests)
        os.close(results)
        # a helper that has stopped reading fills the pipe, and one that has
        # ended breaks it: the request is then not sent, and the walk goes on
        os.set_blocking(self._requests, False)
        self._ready = select.poll()
        self._ready.register(self._results, select.POLLIN)
        self._number = 0
        self._sent = False
        self._posted = 0.0
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        except BaseException:  # the Ctrl-C held since the fork
            self.close()
            raise

    def post(self, q: np.ndarray, f_q: float | None):
        self._number += 1
        self._q[:] = q
        err = np.geterr()
        flags = sum(1 << i for i, name in enumerate(_CATEGORIES) if err[name] != "ignore")
        if f_q is None:
            message = _REQUEST.pack(self._number, flags, 0.0)
        else:
            message = _REQUEST.pack(self._number, flags | _KNOWN_F, f_q)
        try:
            os.write(self._requests, message)
            self._sent = True
        except OSError:
            self._sent = False
        self._posted = time.perf_counter()

    def take(self):
        """The posted request's ``(f(q), grad_g(q))``, or None if the helper has
        none for it by the time the step has waited as long as it has taken
        since posting."""
        if not self._sent:
            return None
        now = time.perf_counter()
        deadline = now + (now - self._posted)
        while True:
            if self._ready.poll(0):
                data = os.read(self._results, _DRAIN)
                if not data:  # the helper has ended
                    return None
                number, done = _RESULT.unpack_from(data, len(data) - _RESULT.size)
                if number == self._number:
                    return (float(self._f[0]), self._grad.copy()) if done else None
            elif time.perf_counter() > deadline:
                return None

    def close(self):
        os.close(self._requests)
        os.close(self._results)
        os.kill(self._pid, signal.SIGKILL)
        os.waitpid(self._pid, 0)


def _serve(obj, q_in, f_out, grad_out, requests, results, inherited, mask):
    """The helper's whole life; see the module docstring."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        # no finalizer of an object inherited from the walk's process runs here
        gc.disable()
        warnings.simplefilter("error")
        for fd in inherited:
            os.close(fd)
        # a result the walk's process leaves unread is dropped when the pipe is full
        os.set_blocking(results, False)
        ready = select.poll()
        ready.register(requests, select.POLLIN)
        errors = None
        while True:
            deadline = time.perf_counter() + _SPIN_S
            while not ready.poll(0):
                if time.perf_counter() > deadline:
                    ready.poll()
                    break
            data = os.read(requests, _DRAIN)
            if not data:
                break
            number, flags, f_q = _REQUEST.unpack_from(data, len(data) - _REQUEST.size)
            q = q_in.copy()
            if ready.poll(0):
                continue  # a newer request, or the end: this one is stale
            done = 0
            try:
                if flags & 15 != errors:
                    errors = flags & 15
                    np.seterr(**{name: "raise" if errors >> i & 1 else "ignore"
                                 for i, name in enumerate(_CATEGORIES)})
                f, grad = _value_and_grad(obj, q, f_q if flags & _KNOWN_F else None)
                f_out[0] = f
                grad_out[:] = grad
                done = 1
            except Exception:
                pass
            try:
                os.write(results, _RESULT.pack(number, done))
            except BlockingIOError:
                pass
    finally:
        os._exit(0)
