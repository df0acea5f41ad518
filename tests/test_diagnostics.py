import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixpoint.diagnostics import (
    RATE_FLOOR,
    ExtendibilityReport,
    check_convex_dichotomy,
    check_fejer,
    check_linear_extendible,
    check_linear_monotone,
    check_subsequence_monotone,
    errors,
    estimate_q_rate,
    estimate_r_rate,
    extend_r_certificate,
    extract_monotone_subsequence,
    verify_r_certificate,
)
from fixpoint.engine import AlternatingProjections, run
from fixpoint.geometry import Ball, Halfspace, as_target, distance, norm
from fixpoint.scenarios import build, random_convex_pair

HALVING = [np.array([0.5**k, 0.5**k]) for k in range(40)]
OMEGA = Halfspace([0.0, 1.0], 0.0)  # lower halfplane


def oscillating_envelope(n=40):
    """||x_k|| = (1 + (-1)^k / 2) * 0.5^k: R-linear at 1/2 but not Q-linear."""
    return [np.array([(1 + (-1) ** k / 2) * 0.5**k, 0.0]) for k in range(n)]


def two_lines_trace(target=None):
    sc = build("two_lines_pi3")
    op = AlternatingProjections(sc.A, sc.B)
    return run(op, [1.0, 0.0], target=target)


# ---------------------------------------------------------------------------
# Fejer and linear monotonicity


def test_fejer_fails_with_witness():
    rep = check_fejer(HALVING, [np.array([2.0, 0.0])])
    assert not rep.holds
    assert rep.witness_index == 0
    assert np.allclose(rep.witness_point, [2, 0])


def test_fejer_constant_sequence():
    rep = check_fejer([np.array([1.0, 1.0])] * 5, [np.array([0.0, 0.0])])
    assert rep.holds


def test_fejer_two_lines_trace():
    tr = two_lines_trace()
    assert check_fejer(tr.x, [np.zeros(2)]).holds


def test_linear_monotone_exactly_half():
    rep = check_linear_monotone(HALVING, OMEGA)
    assert rep.c == 0.5
    assert rep.monotone and not rep.degenerate


def test_linear_monotone_two_lines():
    tr = two_lines_trace()
    rep = check_linear_monotone(tr.x, [np.zeros(2)])
    assert abs(rep.c - 0.25) <= 1e-9


def test_fejer_implies_monotone_constant_at_most_one():
    tr = two_lines_trace()
    assert check_fejer(tr.x, [np.zeros(2)]).holds
    assert check_linear_monotone(tr.x, [np.zeros(2)]).c <= 1.0


def test_linear_monotone_degenerate_inside_omega():
    seq = [np.array([0.0, -1.0]), np.array([0.1, -2.0])]
    rep = check_linear_monotone(seq, OMEGA)
    assert rep.degenerate and rep.c == 0.0


# ---------------------------------------------------------------------------
# Q and R rates


def test_q_rate_two_lines():
    tr = two_lines_trace()
    assert abs(estimate_q_rate(tr.x, limit=[0, 0]).c - 0.25) <= 1e-6


def test_q_rate_one_step():
    sc = build("two_lines_pi2")
    op = AlternatingProjections(sc.A, sc.B)
    tr = run(op, [1.0, 1.0])  # x0 = (1, 0) on A
    assert len(tr.x) == 2
    assert estimate_q_rate(tr.x, limit=[0, 0]).c == 0.0


def test_q_rate_geometric_exact():
    assert estimate_q_rate(HALVING, limit=[0, 0]).c == 0.5


def test_q_rate_too_short():
    with pytest.raises(ValueError):
        estimate_q_rate([np.zeros(2)], limit=[0, 0])


def test_r_rate_geometric():
    seq = [np.array([0.25**k, 0.0]) for k in range(25)]
    est = estimate_r_rate(seq, limit=[0, 0])
    assert abs(est.c - 0.25) <= 1e-12
    assert abs(est.gamma - 1.0) <= 1e-9


def test_r_rate_oscillating_not_q():
    seq = oscillating_envelope()
    est = estimate_r_rate(seq, limit=[0, 0])
    assert abs(est.c - 0.5) <= 5e-3
    assert 1.4 <= est.gamma <= 1.7
    assert verify_r_certificate(seq, [0, 0], est.c, est.gamma)
    # gamma = 1.5 is the smallest envelope constant at the exact rate 1/2
    assert verify_r_certificate(seq, [0, 0], 0.5, 1.5, tol=1e-12)
    assert not verify_r_certificate(seq, [0, 0], 0.5, 1.49, tol=1e-12)
    # and the sequence is not Q-linear: consecutive ratios reach 1.5 * 0.5
    assert estimate_q_rate(seq, limit=[0, 0]).c > 0.5


def test_r_rate_two_lines():
    tr = two_lines_trace()
    assert abs(estimate_r_rate(tr.x, limit=[0, 0]).c - 0.25) <= 1e-3


def test_r_rate_gamma_is_the_largest_math_log_term():
    # gamma is picked among the terms np.log puts near the top, then taken
    # from math.log: the largest log(e_k) - k log(c) over every e_k > 0
    rng = np.random.default_rng(9)
    for t in range(300):
        n, d = int(rng.integers(4, 400)), int(rng.integers(1, 4))
        scale = rng.uniform(0.5, 2.0, (n, 1)) * 10.0 ** rng.uniform(-2, 5)
        rate = rng.uniform(0.01, 0.999)
        pts = (rate ** np.arange(n))[:, None] * rng.standard_normal((n, d)) * scale
        pts[rng.integers(3, n, 3 * (t % 2))] = 0.0  # some iterates at the limit
        est = estimate_r_rate(pts, limit=np.zeros(d))
        errs, log_c = [norm(p) for p in pts], math.log(est.c)
        terms = [math.log(e) - k * log_c for k, e in enumerate(errs) if e > 0.0]
        assert est.gamma == math.exp(max(terms))


def test_r_rate_needs_three_points():
    with pytest.raises(ValueError):
        estimate_r_rate([np.zeros(2), np.ones(2)], limit=[0, 0])


def test_q_implies_r_with_same_rate():
    tr = two_lines_trace()
    q = estimate_q_rate(tr.x, limit=[0, 0])
    gamma = max(
        norm(p - np.zeros(2)) / q.c**k if q.c > 0 else 0.0
        for k, p in enumerate(tr.x)
    )
    assert verify_r_certificate(tr.x, [0, 0], q.c, gamma)


def test_extend_r_certificate_covers_prefix():
    # an envelope valid only from index 3 extends to all indices
    seq = [np.array([5.0, 0.0])] * 3 + [np.array([0.5**k, 0.0]) for k in range(20)]
    c, g_tail, p = 0.5, 8.0, 3
    assert all(norm(seq[k]) <= g_tail * c ** (k - p) for k in range(p, len(seq)))
    gamma = extend_r_certificate(seq, [0, 0], c, g_tail, p)
    assert verify_r_certificate(seq, [0, 0], c, gamma)


# ---------------------------------------------------------------------------
# linear extendibility


def test_extendible_two_lines_joining():
    tr = two_lines_trace()
    rep = check_linear_extendible(tr.z, 2)
    assert rep.holds
    assert abs(rep.c - 0.25) <= 1e-9
    assert rep.gamma == pytest.approx(2 * rep.d0 / (1 - rep.c))


def test_extendible_constant_sequence_degenerate():
    rep = check_linear_extendible([np.zeros(2)] * 6, 2)
    assert rep.holds and rep.c == 0.0


def test_extendible_geometric_finite_sets():
    sc = build("geometric_n2")
    op = AlternatingProjections(sc.A, sc.B)
    tr = run(op, [1.0, 0.0])
    # oracle: recompute every step norm by exhaustive nearest-point search
    steps = [norm(tr.z[k + 1] - tr.z[k]) for k in range(len(tr.z) - 1)]
    for k in range(len(tr.z) - 1):
        src = tr.z[k]
        tgt_set = sc.B.points if k % 2 == 0 else sc.A.points
        assert min(norm(src - p) for p in tgt_set) == pytest.approx(steps[k], abs=0)
    rep = check_linear_extendible(tr.z, 2)
    assert rep.holds
    assert abs(rep.c - 1.0 / 9.0) <= 1e-9


def test_extendible_rejects_short_input():
    with pytest.raises(ValueError):
        check_linear_extendible([np.zeros(2)] * 3, 2)


def test_extendible_failing_index_when_not_contracting():
    z = [np.array([k * 1.0, 0.0]) for k in range(8)]  # constant steps
    rep = check_linear_extendible(z, 2)
    assert not rep.holds
    assert rep.c >= 1.0
    assert rep.failing_index is not None


# ---------------------------------------------------------------------------
# monotone subsequence extraction


def test_extract_monotone_subsequence_geometric():
    rep = extract_monotone_subsequence(
        HALVING, [np.zeros(2)], c=0.5, gamma=math.sqrt(2.0), limit=[0, 0]
    )
    assert rep.indices[:5] == [0, 1, 2, 3, 4]
    assert rep.k1 == 1


def test_extract_monotone_subsequence_contracts():
    seq = oscillating_envelope()
    probe = [np.zeros(2)]
    rep = extract_monotone_subsequence(seq, probe, c=0.5, gamma=1.5, limit=[0, 0])
    target = as_target(probe, 2, "probe")
    ds = [distance(target, seq[k]) for k in rep.indices]
    for d0, d1 in zip(ds, ds[1:]):
        assert d1 <= 0.5 * d0 + 1e-9
    assert rep.indices[0] == 0 and rep.k1 == rep.indices[1]


def test_extract_monotone_subsequence_degenerate():
    seq = [np.zeros(2), np.zeros(2)]
    rep = extract_monotone_subsequence(seq, [np.zeros(2)], c=0.5, gamma=1.0, limit=[0, 0])
    assert rep.indices == [0] and rep.k1 is None


def test_extract_rejects_bad_certificate():
    with pytest.raises(ValueError):
        extract_monotone_subsequence(HALVING, [np.zeros(2)], c=0.1, gamma=1.0, limit=[0, 0])


def test_subsequence_monotone_search():
    # alternating good/bad: frequency 2 finds a contracting offset
    seq = [np.array([v, 0.0]) for pair in [(1.0, 1.1)] for v in pair]
    seq = [np.array([0.5 ** (k // 2) * (1.0 if k % 2 == 0 else 1.4), 0.0]) for k in range(20)]
    j, c = check_subsequence_monotone(seq, [np.zeros(2)], 2)
    assert c <= 0.5 + 1e-12


# ---------------------------------------------------------------------------
# convex dichotomy


def test_dichotomy_orthogonal_lines_solved_in_one():
    sc = build("two_lines_pi2")
    op = AlternatingProjections(sc.A, sc.B)
    tr = run(op, [1.0, 1.0])  # x0 = (1, 0) on A
    assert check_convex_dichotomy(tr).outcome == "solved_in_one"


def test_dichotomy_two_lines_never_reaches():
    tr = two_lines_trace()
    rep = check_convex_dichotomy(tr)
    assert rep.outcome == "never_reaches"
    assert abs(rep.c - 0.25) <= 1e-12
    assert rep.bound_holds
    # the bound holds with equality on lines
    assert tr.dist_B[3] == pytest.approx(rep.c**3 * tr.dist_B[0], rel=1e-9)


def test_dichotomy_trivial_start():
    sc = build("two_lines_pi3")
    op = AlternatingProjections(sc.A, sc.B)
    tr = run(op, [0.0, 0.0])
    assert check_convex_dichotomy(tr).outcome == "already_solved"


def test_dichotomy_ball_halfspace_long_run():
    # cross-check the never-reach certificate with a long extra run
    A, B = Ball([0.0, 0.0], 1.0), Halfspace([0.0, 1.0], 0.0)
    op = AlternatingProjections(A, B)
    tr = run(op, [0.5, 0.8], max_iter=10_000)
    rep = check_convex_dichotomy(tr)
    if rep.outcome == "never_reaches":
        assert rep.bound_holds
        assert all(d > 0 for d in tr.dist_B[:-1])
    else:
        assert tr.dist_B[1] <= 1e-9


# ---------------------------------------------------------------------------
# equivalences on randomized convex pairs


def test_r_linear_iff_linearly_monotone_on_convex_pairs():
    for i in range(8):
        sc = random_convex_pair(i, 2, "box_affine")
        op = AlternatingProjections(sc.A, sc.B)
        tr = run(op, sc.base_point + 0.1 * sc.boundary_ray)
        probe = [tr.limit, sc.base_point]
        lim = tr.limit
        K = max(k for k, p in enumerate(tr.x) if norm(p - lim) > 1e-5)
        if K < 3:
            continue
        window = tr.x[: K + 1]
        mon = check_linear_monotone(window, probe, floor=1e-5)
        r = estimate_r_rate(window, limit=lim, floor=1e-5)
        # monotone with c < 1 iff a valid geometric envelope exists
        assert (mon.c < 1.0) == verify_r_certificate(window, lim, r.c, r.gamma)
        assert mon.c < 1.0


@pytest.mark.parametrize("name", ["two_lines_pi3", "epigraph", "geometric_n2"])
def test_precomputed_distances_and_errors_change_no_report(name):
    # a run's dist_target stands in for the distances the monotonicity check
    # would compute itself; the rate estimators' batched errors are the
    # per-point norms, and a list of the points gives the array's estimates
    sc = build(name)
    tr = run(AlternatingProjections(sc.A, sc.B), [0.09, 0.03], max_iter=300, target=sc.intersection)
    assert len(tr.x) >= 2
    mon = check_linear_monotone(tr.x, sc.intersection)
    assert check_linear_monotone(tr.x, sc.intersection, dists=tr.dist_target) == mon
    assert errors(tr.x, tr.limit).tolist() == [norm(p - tr.limit) for p in tr.x]
    for estimate in (estimate_q_rate, estimate_r_rate):
        try:
            own = estimate(tr.x, limit=tr.limit)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                estimate(list(tr.x), limit=tr.limit)
            continue
        listed = estimate(list(tr.x), limit=tr.limit)
        assert (listed.kind, listed.c, listed.gamma) == (own.kind, own.c, own.gamma)
        assert np.array_equal(listed.limit, own.limit)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3, 8]))
def test_batched_errors_and_steps_are_the_scalar_norms(data, dim):
    # the report's rates, the verify window and the extendibility steps are
    # computed from these batches; they must round as the per-point norm
    coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    rows = data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=2, max_size=40))
    xs = [np.array(r) for r in rows]
    lim = np.array(data.draw(st.lists(coord, min_size=dim, max_size=dim)))
    scale = data.draw(st.sampled_from([1.0, 1e-6, 1e-12]))
    xs = [lim + scale * (p - lim) for p in xs]
    X = np.array(xs)
    assert errors(X, lim).tolist() == [norm(p - lim) for p in xs]
    assert errors(X[1:], X[:-1]).tolist() == [norm(xs[k + 1] - xs[k]) for k in range(len(xs) - 1)]
    # the diagnostics that read them: the Q-rate is the worst scalar ratio,
    # and the extendibility check sees the scalar steps
    errs = [norm(p - lim) for p in xs]
    ratios = [errs[k + 1] / errs[k] for k in range(len(errs) - 1) if errs[k] > RATE_FLOOR]
    if ratios:
        assert estimate_q_rate(X, limit=lim).c == max(ratios)
    if len(xs) >= 4:
        assert check_linear_extendible(X, 2) == reference_linear_extendible(xs, 2)


def reference_linear_extendible(z, m, tol=1e-9, floor=1e-12):
    """check_linear_extendible as a loop over the scalar step norms."""
    steps = [norm(z[k + 1] - z[k]) for k in range(len(z) - 1)]
    failing = next((k for k in range(len(steps) - 1) if steps[k + 1] > steps[k] + tol), None)
    ratios = []
    k = 0
    while m * (k + 1) < len(steps):
        if steps[m * k] >= floor:
            ratios.append((k, steps[m * (k + 1)] / steps[m * k]))
        k += 1
    c = max((r for _, r in ratios), default=0.0)
    holds = failing is None and c < 1.0
    if not holds and failing is None and ratios:
        failing = max(ratios, key=lambda t: t[1])[0]
    gamma = m * steps[0] / (1.0 - c) if c < 1.0 else None
    return ExtendibilityReport(m, c, holds, failing, gamma, steps[0])


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4), n=st.integers(6, 40), rate=st.floats(0.3, 1.2),
       jitter=st.floats(0.0, 0.2), seed=st.integers(0, 2**16))
def test_extendibility_matches_the_scalar_loop(m, n, rate, jitter, seed):
    # decaying spirals with jittered rates: holding, failing and contracting cases
    rng = np.random.default_rng(seed)
    steps = rate ** np.arange(n) * (1.0 + jitter * rng.uniform(-1, 1, n))
    angles = rng.uniform(0, 2 * np.pi, n)
    z = np.cumsum(np.c_[steps * np.cos(angles), steps * np.sin(angles)], axis=0)
    assert check_linear_extendible(z, m) == reference_linear_extendible(list(z), m)
