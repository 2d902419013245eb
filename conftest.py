"""Suite-wide pytest hooks."""

import pytest

#: tests that belong to the full suite but not to the fast `-m "not slow"` loop
_SLOW = {"bench/test_bench.py::test_smoke_run_prints_declared_metrics"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid in _SLOW:
            item.add_marker(pytest.mark.slow)
