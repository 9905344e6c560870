"""Shared fixtures."""

import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from towercodes import codes


@pytest.fixture
def pool_sizes(monkeypatch):
    """The thread count of every pool the enumeration kernel starts, on a
    machine that reports two CPUs."""
    sizes = []

    class SpyPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(codes, "ThreadPoolExecutor", SpyPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return sizes
