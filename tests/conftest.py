"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    def __init__(self, requested, max_workers):
        requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture(autouse=True)
def default_budget(monkeypatch):
    """Every test starts at the default search budget: OMSKA_BUDGET admits
    list searches and secrecy audits alike, so a value left in the shell
    would move what they refuse."""
    monkeypatch.delenv("OMSKA_BUDGET", raising=False)


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace ProcessPoolExecutor by an in-process map; the returned list
    records the max_workers of every pool asked for."""
    requested = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _InlineExecutor(requested, max_workers))
    return requested
