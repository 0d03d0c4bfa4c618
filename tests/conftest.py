"""Helpers shared by the test modules."""

import os


def set_cpus(mp, cpus: int) -> None:
    """Make ``os.sched_getaffinity`` report ``cpus`` CPUs, through the
    monkeypatch ``mp``."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
