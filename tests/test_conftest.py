"""The shared test helpers' own contracts."""

import signal
import time

import pytest

from conftest import budget


def test_a_budget_interrupts_its_block_at_the_deadline():
    # the test's own budget is restored, with what is left of it
    outer = signal.getitimer(signal.ITIMER_REAL)[0]
    start = time.monotonic()
    with pytest.raises(AssertionError, match=r"budget 0\.2s exceeded"):
        with budget(0.2):
            while time.monotonic() < start + 10:
                pass
    assert time.monotonic() - start < 5
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] < outer


def test_a_nested_budget_restores_the_outer_deadline():
    outer = signal.getitimer(signal.ITIMER_REAL)[0]
    start = time.monotonic()
    with pytest.raises(AssertionError, match=r"budget 0\.5s exceeded"):
        with budget(0.5):
            with budget(10):
                pass
            while time.monotonic() < start + 10:
                pass
    assert time.monotonic() - start < 5
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] < outer


def test_every_test_runs_under_a_deadline():
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= 30


def test_a_deadline_that_fired_is_reported_once():
    # as in the autouse fixture, the interrupt is raised in the test body,
    # not inside the budget, and leaving the budget raises nothing more
    start = time.monotonic()
    block = budget(0.2)
    block.__enter__()
    with pytest.raises(AssertionError, match="interrupted at the deadline"):
        while time.monotonic() < start + 10:
            pass
    block.__exit__(None, None, None)
    assert time.monotonic() - start < 5
