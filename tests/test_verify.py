"""A run_suite call shares work between its criteria and changes no result."""

import collections

import pytest

from fixpoint import verify
from fixpoint.scenarios import build


@pytest.fixture(scope="module")
def counted():
    """Each criterion's line alone and in two run_suite("all") calls, with the
    engine.run and random_convex_pair calls each of the three made."""
    calls = collections.Counter()
    run, pair = verify.run, verify.random_convex_pair

    def counting(name, f):
        def g(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return g

    verify.run, verify.random_convex_pair = counting("run", run), counting("pair", pair)
    try:
        out = {}
        for side in ("alone", "first", "second"):
            calls.clear()
            if side == "alone":
                lines = [criterion().line() for criterion in verify.ALL_CRITERIA]
            else:
                lines = [r.line() for r in verify.run_suite("all")]
            out[side] = lines, dict(calls)
        return out
    finally:
        verify.run, verify.random_convex_pair = run, pair


def test_a_suite_prints_each_criterions_own_line(counted):
    assert counted["first"][0] == counted["alone"][0]


@pytest.mark.parametrize("suite", ["paper_examples", "convex_properties", "necessity_bounds"])
def test_a_sub_suite_prints_each_criterions_own_line(counted, suite):
    # a sub-suite shares differently: necessity_bounds runs criterion 8 without criterion 6
    lines = [r.line() for r in verify.run_suite(suite)]
    assert lines == [counted["alone"][0][cid - 1] for cid in verify.SUITES[suite]]


def test_shared_work_lives_for_one_suite_call(counted):
    # a second call in the same process redoes all of it: nothing outlives a call
    (_, alone), (_, first), (_, second) = counted["alone"], counted["first"], counted["second"]
    assert first == second
    assert first["run"] < alone["run"] and first["pair"] < alone["pair"]
    assert verify._WORK.get() is None


def test_a_shared_result_lives_until_its_last_reader():
    ahead, items = [5, 7], {}
    made = []

    def compute():
        made.append(len(made) + 1)
        return made[-1]

    token = verify._WORK.set((ahead, items))
    try:
        assert verify._shared("k", compute, readers=(5, 7, 9)) == 1  # 9 is not in the suite
        assert items["k"][1] == 2
        ahead.pop(0)
        assert verify._shared("k", compute) == 1 and "k" in items
        ahead.pop(0)
        assert verify._shared("k", compute) == 1 and "k" not in items
        assert verify._shared("k", compute, readers=(5,)) == 2 and not items  # 5 has started
    finally:
        verify._WORK.reset(token)
    assert verify._shared("k", compute, readers=(5,)) == 3  # outside a suite call


def test_a_criterion_that_writes_into_a_shared_trace_raises():
    def writer():
        # criterion 2's trace, which the suite keeps for criterion 9
        tr = verify._ap_trace(build("two_lines_pi3"), [1.0, 0.0])[1]
        for a in (tr.x, tr.b, tr.dist_A, tr.dist_B, tr.dist_target, tr.residual, tr.step_norm):
            assert not a.flags.writeable
        tr.x[0, 0] = 2.0

    third = verify.ALL_CRITERIA[2]
    verify.ALL_CRITERIA[2] = writer  # in criterion 3's place
    try:
        with pytest.raises(ValueError, match="read-only"):
            verify.run_suite("all")
    finally:
        verify.ALL_CRITERIA[2] = third
    assert verify._WORK.get() is None  # the suite's shared work ended with the raise
