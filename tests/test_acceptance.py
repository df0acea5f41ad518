"""Acceptance gate: one test per entry of ``verify.ALL_CRITERIA``, each
printing its pass/fail line.  The same criteria back the ``fixpoint verify``
command, and a criterion declared there is gated here with no new test."""

from fixpoint import verify

#: the gates of criteria 1-13 keep the names they have always had; a later
#: criterion N is gated as test_criterion_N
NAMES = (
    "two_lines_moduli_and_bracket", "two_lines_rates_and_kappa", "monotone_not_fejer",
    "geometric_exact_iterations", "sawtooth_stuck_and_stable_modulus", "convex_dichotomy_corpus",
    "projection_inequalities", "necessity_sufficiency_loop", "q_implies_extendible",
    "extendible_implies_r_envelope", "epigraph_local_vs_global", "rate_formula_ordering",
    "deterministic_outputs",
)


def _gate(criterion):
    def test(capsys):
        result = criterion()
        # a criterion prints nothing of its own: criterion 13's repeated runs
        # print lines that name a temporary directory, which the suite drops
        assert capsys.readouterr().out == ""
        print(result.line())
        assert result.passed, result.line()

    return test


for _cid, _criterion in enumerate(verify.ALL_CRITERIA, 1):
    _name = f"test_criterion_{_cid:02}_{NAMES[_cid - 1]}" if _cid <= len(NAMES) else f"test_criterion_{_cid}"
    globals()[_name] = _gate(_criterion)
