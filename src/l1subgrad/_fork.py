"""Process policy: the worker map, alg2's helper gate and the CPU count.

Every process the package starts, a `fork_map` worker or alg2's helper
(`helper_for`), is forked by `_start` and killed and reaped by `_end`.
"""

import os
import pickle
from functools import partial
from pathlib import Path

# The least element count of the quadratic's matrix at which an alg2 walk
# lends a helper process; below it the handoff costs more than it saves.
_OVERLAP_MIN_SIZE = 490_000
# The process that imported this module; a process forked from it, such as a
# `fork_map` worker, never starts a helper, since the workers hold every CPU.
_HOME_PID = os.getpid()
# Whether BLAS and OpenMP were pinned to one thread when this module was
# imported, as `import l1subgrad` does before numpy loads. A helper process
# would compete for the CPUs with a threaded BLAS.
_BLAS_PINNED = all(os.environ.get(var) == "1"
                   for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
# The root under which `usable_cpus` reads /proc and /sys.
_ROOT = Path("/")


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, capped by the
    least CPU quota on the path from its cgroup to the root, rounded up; 1
    without `os.fork` or `os.sched_getaffinity`.

    The cgroup comes from /proc/self/cgroup, whose v2 line names no controller.
    A quota is cgroup v2's ``cpu.max`` or v1's ``cpu.cfs_quota_us`` and
    ``cpu.cfs_period_us``, read in the cgroup's directory and in each directory
    above it up to the mount's root; where a container shows its own cgroup as
    the root of the mount, the directories below the root are missing and the
    root holds its quota. A level whose quota is unlimited (v2's ``max``, v1's
    -1), missing, unreadable or unparsable sets no cap of its own, nor does an
    unreadable /proc/self/cgroup.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    cpus = [len(os.sched_getaffinity(0))]
    try:
        lines = (_ROOT / "proc/self/cgroup").read_text().splitlines()
    except OSError:
        lines = []
    for line in lines:
        try:
            _, controllers, path = line.split(":", 2)
        except ValueError:
            continue
        if controllers and "cpu" not in controllers.split(","):
            continue
        mount = _ROOT / "sys/fs/cgroup" / controllers
        files = ("cpu.cfs_quota_us", "cpu.cfs_period_us") if controllers else ("cpu.max",)
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts), -1, -1):
            where = mount.joinpath(*parts[:depth])
            try:
                text = " ".join((where / name).read_text() for name in files)
                quota, period = map(int, text.split())
            except (OSError, ValueError):
                continue
            if quota > 0 and period > 0:
                cpus.append(-(-quota // period))
    return min(cpus)


def _start(child, inherited) -> int:
    """Fork a process that closes the ``inherited`` file descriptors, calls
    ``child()`` and leaves through `os._exit`, with status 1 where the call
    raises and 0 else, running none of this process's exit handlers, buffered
    writes or ``finally`` clauses; return its pid, or raise `OSError`."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            for fd in inherited:
                os.close(fd)
            child()
            status = 0
        finally:
            os._exit(status)
    return pid


def _end(pids) -> list[int]:
    """Kill and reap ``pids``; their wait statuses (an ended one keeps its own)."""
    for pid in pids:
        os.kill(pid, 9)  # SIGKILL, whose number POSIX fixes: `signal` stays unloaded
    return [os.waitpid(pid, 0)[1] for pid in pids]


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]`` for independent items, computed in
    forked workers, with the same results and the same first error.

    There is one worker per CPU (`usable_cpus`), at most one per item, and item
    j goes to worker j mod W, so that blocks of items of unequal cost are
    shared. Each worker runs its items in order and sends each result down its
    own pipe as a pickle; at its first exception it sends that instead and
    stops. The parent does no item's work: it reads the results in item order,
    so the first exception it reads is that of the lowest failing item, every
    lower item having succeeded, and it raises it as the loop would. A worker
    that ends without sending its result (killed by a signal, or holding an
    exception that cannot be pickled) raises `ExperimentError`. Every worker is
    killed and reaped before this returns or raises. With one worker, or where
    one cannot be forked, the loop runs in this process.
    """
    items = list(items)
    workers = min(usable_cpus(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    pipes = [os.pipe() for _ in range(workers)]
    readers = [open(read_end, "rb") for read_end, _ in pipes]
    pids, results = [], []
    try:
        for w, (_, write_end) in enumerate(pipes):
            try:
                # the read ends, and the write ends of the workers not yet forked
                pids.append(_start(partial(_serve, fn, items[w::workers], write_end),
                                   [r for r, _ in pipes] + [x for _, x in pipes[w + 1:]]))
            except OSError:
                break
            os.close(write_end)
        else:
            for j in range(len(items)):
                try:
                    ok, value = pickle.load(readers[j % workers])
                except Exception:  # end of file, or a pickle that does not load: no result
                    ok, value = False, None
                if not ok:
                    break
                results.append(value)
    finally:
        for _, write_end in pipes[len(pids):]:
            os.close(write_end)
        for reader in readers:
            reader.close()
        statuses = _end(pids)
    if len(pids) < workers:
        return [fn(item) for item in items]
    if len(results) < len(items):
        from .bench import ExperimentError
        j = len(results)
        if value is not None:
            raise value
        code = os.waitstatus_to_exitcode(statuses[j % workers])
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise ExperimentError(f"the worker for item {j} ended without its result ({how})")
    return results


def _serve(fn, items, write_end):
    """A worker: send ``(True, fn(item))`` for each item in turn, or ``(False,
    exc)`` for the first that raises, down ``write_end``. Holding no other pipe
    end, a worker whose parent has gone meets a broken pipe, not a sibling's
    open read end."""
    # never closed here: `os._exit` closes it, so the parent reads the end
    # of this pipe only once this worker has ended, with its exit status
    out = open(write_end, "wb")
    for item in items:
        try:
            message = (True, fn(item))
        except Exception as exc:
            message = (False, exc)
        out.write(pickle.dumps(message))
        out.flush()
        if not message[0]:
            break


def helper_for(obj):
    """A started `_helper.Helper` for an alg2 walk on ``obj``, which the caller
    closes, or None where the gate fails (only the large quadratic's split
    has the `tail` the helper computes, and only a built-in family's oracles
    may run in a forked copy) or no process can be forked. A Ctrl-C, which
    signals the helper too, is held from before the fork and never reaches it."""
    if not (hasattr(obj._rows, "tail") and obj._rows._mat.size >= _OVERLAP_MIN_SIZE and _BLAS_PINNED
            and os.getpid() == _HOME_PID and usable_cpus() >= 2):
        return None
    import signal
    from ._helper import Helper

    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        helper = Helper(obj)
    except OSError:
        helper = None
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    except BaseException:  # the Ctrl-C held since the fork
        if helper is not None:
            helper.close()
        raise
    return helper
