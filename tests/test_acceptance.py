"""Acceptance suite: every `tpslab reproduce` check, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` for the live lines.  Every
tolerance lives in `tpslab.reproduce`; this file only adds wall-time budgets.
"""

import time

import pytest

from tpslab import reproduce

# seconds; checks not named here have no budget of their own
WALL_BUDGETS = {
    "cnot-disentangling": 1.0,
    "stationarity-counterexample": 5.0,
    "constructor-regression": 30.0,
    "optimizer-cnot": 150.0,
    "optimizer-sidon-floor": 150.0,
}


@pytest.mark.parametrize("name,check", reproduce.ALL_CHECKS, ids=[n for n, _ in reproduce.ALL_CHECKS])
def test_reproduce_check(name, check):
    start = time.monotonic()
    ok, detail = check()
    elapsed = time.monotonic() - start
    print(f"[{name}] {'PASS' if ok else 'FAIL'} ({detail}, {elapsed:.2f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < WALL_BUDGETS.get(name, float("inf")), f"{name}: {elapsed:.2f}s"
