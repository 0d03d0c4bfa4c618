"""Helpers shared by the test modules."""

import os
import tracemalloc

import numpy as np


def set_cpus(mp, cpus: int) -> None:
    """Make ``os.sched_getaffinity`` report ``cpus`` CPUs, through the
    monkeypatch ``mp``."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


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
