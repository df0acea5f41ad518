"""Acceptance gate: one test per headline criterion, each printing its
pass/fail line.  The same criteria back the ``fixpoint verify`` command."""

from fixpoint import verify


def _check(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_two_lines_moduli_and_bracket():
    _check(verify.criterion_1)


def test_criterion_02_two_lines_rates_and_kappa():
    _check(verify.criterion_2)


def test_criterion_03_monotone_not_fejer():
    _check(verify.criterion_3)


def test_criterion_04_geometric_exact_iterations():
    _check(verify.criterion_4)


def test_criterion_05_sawtooth_stuck_and_stable_modulus():
    _check(verify.criterion_5)


def test_criterion_06_convex_dichotomy_corpus():
    _check(verify.criterion_6)


def test_criterion_07_projection_inequalities():
    _check(verify.criterion_7)


def test_criterion_08_necessity_sufficiency_loop():
    _check(verify.criterion_8)


def test_criterion_09_q_implies_extendible():
    _check(verify.criterion_9)


def test_criterion_10_extendible_implies_r_envelope():
    _check(verify.criterion_10)


def test_criterion_11_epigraph_local_vs_global():
    _check(verify.criterion_11)


def test_criterion_12_rate_formula_ordering():
    _check(verify.criterion_12)


def test_criterion_13_deterministic_outputs(capsys):
    result = verify.criterion_13()
    # the repeated runs print lines that name a temporary directory
    assert capsys.readouterr().out == ""
    _check(lambda: result)
