"""Helpers shared by the test modules."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gausspoisson


def set_cpus(mp, cpus: int) -> None:
    """Make ``os.sched_getaffinity`` report ``cpus`` CPUs, through the
    monkeypatch ``mp``."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def fresh_env(**extra):
    """The environment of a fresh interpreter that imports this checkout's
    package, with extra variables."""
    src = str(Path(gausspoisson.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_python(code, *args, **env):
    """Run ``python -c code args`` in a fresh interpreter that imports this
    checkout's package, with extra environment variables."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=fresh_env(**env), capture_output=True, text=True, timeout=300
    )


def traced_peak(call):
    """``call()`` and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def lattice_points(grid):
    """All lattice points of ``grid``, shape ``(N,)*n + (n,)``, row-major:
    the dense reference for rules, which are given per-axis coordinates."""
    return np.stack(np.meshgrid(*(grid.axis,) * grid.n, indexing="ij"), axis=-1)


@pytest.fixture(autouse=True)
def _mpmath_precision_restored():
    """Fail a test that leaves mpmath's working precision changed, which
    would carry over to every later test; mpmath is read only if loaded."""

    def dps():
        mpmath = sys.modules.get("mpmath")
        return mpmath.mp.dps if mpmath else 15  # mpmath's default precision

    before = dps()
    yield
    assert dps() == before, "the test left mpmath.mp.dps changed"
