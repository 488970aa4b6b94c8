"""Acceptance gate: every headline claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with `pytest -s` or on
failure); the same registry backs `tsvsim check`.
"""

import re

import pytest

from tsvsim import acceptance


@pytest.mark.parametrize("criterion", acceptance.CRITERIA,
                         ids=[f"criterion_{c.number}" for c in acceptance.CRITERIA])
def test_criterion(criterion):
    try:
        detail = criterion.check()
    except AssertionError as e:
        print(f"FAIL criterion {criterion.number}: {criterion.title} ({e})")
        raise
    print(f"PASS criterion {criterion.number}: {criterion.title} ({detail})")


@pytest.mark.parametrize("seconds, bound, text", [
    (0.199e-3, 1e-3, "runtime 0.199 ms of 1 ms (5.0x)"),
    (0.0412, 5.0, "runtime 0.0412 s of 5 s (121.4x)"),
    (0.00312, 10.0, "runtime 0.00312 s of 10 s (3205.1x)"),
    (11.3, 60.0, "runtime 11.3 s of 60 s (5.3x)"),
])
def test_runtime_shows_its_bound_and_margin(seconds, bound, text):
    assert acceptance._runtime(seconds, bound) == text


@pytest.mark.parametrize("seconds, text", [
    (1e-3, "runtime 1 ms of 1 ms (1.0x)"),
    (1.2e-3, "runtime 1.2 ms of 1 ms (0.8x)"),
])
def test_runtime_at_or_past_its_bound_fails(seconds, text):
    with pytest.raises(AssertionError) as err:
        acceptance._runtime(seconds, 1e-3)
    assert str(err.value) == text


@pytest.mark.parametrize("check", [acceptance.criterion_1_three_boxes,
                                   acceptance.criterion_2_hardy,
                                   acceptance.criterion_3_oblivion])
def test_timed_criteria_print_their_bound(check):
    assert re.search(r"; runtime \d\S* ms of 1 ms \(\d+\.\dx\)$", check())
