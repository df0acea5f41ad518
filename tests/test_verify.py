"""The declared criteria build verify's tables, and a run_suite call hands
two results forward and changes no result."""

import collections

import pytest

from fixpoint import verify


def test_the_declarations_build_the_tables():
    assert [c.__name__ for c in verify.ALL_CRITERIA] == [f"criterion_{n}" for n in range(1, 14)]
    assert all(c is getattr(verify, c.__name__) for c in verify.ALL_CRITERIA)
    assert list(verify.SUITES.items()) == [
        ("paper_examples", (1, 2, 3, 4, 5, 11)),
        ("convex_properties", (6, 7, 9, 10)),
        ("necessity_bounds", (8, 12)),
        ("all", tuple(range(1, 14))),
    ]


def test_a_criterion_is_declared_at_its_place():
    with pytest.raises(NameError, match="criterion 14 is declared as criterion_15"):
        @verify.criterion("out of place")
        def criterion_15():
            return True, ""
    assert len(verify.ALL_CRITERIA) == 13


def test_a_failing_criterion_keeps_its_name(monkeypatch):
    # criterion 13 returns early when a run fails; its line names it as a pass does
    monkeypatch.setattr("fixpoint.cli.execute_run", lambda **kwargs: 1)
    line = verify.criterion_13().line()
    assert line == "[FAIL] criterion 13: byte-identical repeated runs (run exited 1)"


@pytest.fixture(scope="module")
def counted():
    """Each criterion's line alone and in two run_suite("all") calls, with the
    engine.run and random_convex_pair calls that each criterion alone, and each
    suite call, made."""
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
                lines, made = [], []
                for criterion in verify.ALL_CRITERIA:
                    lines.append(criterion().line())
                    made.append(collections.Counter(calls))
                    calls.clear()
                out[side] = lines, made
            else:
                lines = [r.line() for r in verify.run_suite("all")]
                out[side] = lines, collections.Counter(calls)
        return out
    finally:
        verify.run, verify.random_convex_pair = run, pair


def test_a_suite_prints_each_criterions_own_line(counted):
    assert counted["first"][0] == counted["alone"][0]


@pytest.mark.parametrize("suite", [suite for suite in verify.SUITES if suite != "all"])
def test_a_sub_suite_prints_each_criterions_own_line(counted, suite):
    # a sub-suite shares differently: necessity_bounds runs criterion 8 without criterion 6
    lines = [r.line() for r in verify.run_suite(suite)]
    assert lines == [counted["alone"][0][cid - 1] for cid in verify.SUITES[suite]]


def test_shared_work_lives_for_one_suite_call(counted):
    # a second call in the same process redoes all of it: nothing outlives a call
    (_, alone), (_, first), (_, second) = counted["alone"], counted["first"], counted["second"]
    assert first == second
    total = sum(alone, collections.Counter())
    assert first["run"] < total["run"] and first["pair"] < total["pair"]
    assert verify._WORK.get() is None


def test_a_suite_skips_exactly_the_work_criteria_8_and_10_are_handed(counted):
    # criterion 8 reads criterion 6's boundary runs and criterion 10 criterion
    # 9's windowed traces; every other criterion does in the suite what it does alone
    alone, first = counted["alone"][1], counted["first"][1]
    assert alone[7] == {"run": 100, "pair": 100} and alone[9] == {"run": 21, "pair": 20}
    assert first == sum(alone, collections.Counter()) - alone[7] - alone[9]
    assert first == {"run": 438, "pair": 325}


def test_a_shared_result_lives_until_its_last_reader():
    # a result has one reader: kept while it has yet to start, removed by its read
    ahead, items = [5, 7], {}
    made = []

    def compute():
        made.append(len(made) + 1)
        return made[-1]

    token = verify._WORK.set((ahead, items))
    try:
        assert verify._shared("k", compute, 7) == 1 and items == {"k": 1}
        assert verify._shared("j", compute, 9) == 2 and "j" not in items  # 9 is not in the suite
        ahead.pop(0)
        ahead.pop(0)  # 7 starts
        assert verify._shared("k", compute) == 1 and not items
        assert verify._shared("k", compute, 5) == 3 and not items  # 5 has started
    finally:
        verify._WORK.reset(token)
    assert verify._shared("k", compute, 5) == 4  # outside a suite call
    assert made == [1, 2, 3, 4]


def test_a_criterion_that_writes_into_a_shared_trace_raises():
    def writer():
        # criterion 6's boundary runs, which the suite keeps for criterion 8
        key, sc, X, rep = verify._shared("boundary runs", lambda: pytest.fail("nothing kept"))[0]
        assert not X.flags.writeable
        X[0, 0] = 2.0

    seventh = verify.ALL_CRITERIA[6]
    verify.ALL_CRITERIA[6] = writer  # in criterion 7's place
    try:
        with pytest.raises(ValueError, match="read-only"):
            verify.run_suite("all")
    finally:
        verify.ALL_CRITERIA[6] = seventh
    assert verify._WORK.get() is None  # the suite's shared work ended with the raise
