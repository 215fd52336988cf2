"""Fixtures shared by the test modules.

pytest loads this file before any test module, so importing `l1subgrad`
here, before anything imports numpy, pins BLAS to one thread in the test
process as on the command line: in-process results then match the CLI's,
and `_fork.fork_map` forks from a process with no BLAS thread pool.
"""

import l1subgrad  # noqa: F401  (first: see above)

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _invoke(*args, env=None, program=("-m", "l1subgrad")):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *program, *args], capture_output=True, text=True,
        env={var: value for var, value in env.items() if value is not None},
    )


@pytest.fixture
def cli():
    """Run ``python -m l1subgrad ARGS`` (or ``program``) in a fresh interpreter.

    The checkout's ``src`` goes first on the child's ``PYTHONPATH``, and
    ``env`` entries are added to its environment (an entry set to None
    removes that variable). Returns the
    ``subprocess.CompletedProcess`` with text stdout and stderr.
    """
    return _invoke


@pytest.fixture
def workers(monkeypatch):
    """Set the CPU count `_fork` reads, ``workers(count)``: how many forked
    workers `_fork.fork_map` starts, and whether an alg2 walk may lend a
    helper process (2 or more)."""
    import l1subgrad._fork as _fork

    def set_count(count):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: count)

    return set_count
