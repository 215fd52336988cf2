"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _invoke(*args, env=None, program=("-m", "l1subgrad")):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *program, *args], capture_output=True, text=True,
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
    )


@pytest.fixture
def cli():
    """Run ``python -m l1subgrad ARGS`` (or ``program``) in a fresh interpreter.

    The checkout's ``src`` goes first on the child's ``PYTHONPATH``, and
    ``env`` entries are added to its environment. Returns the
    ``subprocess.CompletedProcess`` with text stdout and stderr.
    """
    return _invoke
