import math

import numpy as np
import pytest

from fixpoint.engine import (
    AlternatingProjections,
    DouglasRachford,
    IterationConfig,
    residual_map,
    residual_map_many,
    run,
)
from fixpoint.geometry import (
    Ball,
    NormalPair,
    Sphere,
    WholeSpace,
    as_target,
    ascend,
    elemental_subreg_estimate,
    norm,
    sample_ball,
    sample_on_set,
    target_distance_many,
)
from fixpoint.regularity import (
    _feasibility_ratio,
    _feasible,
    CpRatePrediction,
    estimate_kappa,
    estimate_sigma,
    estimate_sr,
    estimate_sr_prime,
    estimate_violation,
    global_ratio_growth,
    necessity_bound,
    predicted_rate_cp,
    predicted_rate_msr,
    verify_bracket,
)
from fixpoint.scenarios import build, random_convex_pair

PI3 = build("two_lines_pi3")
ORIGIN = [np.zeros(2)]


# ---------------------------------------------------------------------------
# kappa


def test_kappa_orthogonal_lines_is_one():
    sc = build("two_lines_pi2")
    op = AlternatingProjections(sc.A, sc.B)
    est = estimate_kappa(op, ORIGIN, [0, 0], 1.0, on_set=sc.A, samples=128, seed=3)
    assert abs(est.value - 1.0) <= 1e-9


def test_kappa_two_lines_pi3():
    op = AlternatingProjections(PI3.A, PI3.B)
    est = estimate_kappa(op, ORIGIN, [0, 0], 1.0, on_set=PI3.A, samples=128, seed=3)
    assert abs(est.value - 4.0 / 3.0) <= 1e-6


def test_kappa_sentinel_at_sawtooth_stuck_point():
    sc = build("sawtooth")
    op = AlternatingProjections(sc.A, sc.B)
    est = estimate_kappa(op, sc.intersection, [0.125, 0.0], 0.02, samples=48, seed=2)
    assert est.value == math.inf


def test_kappa_degenerate_when_all_samples_fixed():
    b = Ball([0.0, 0.0], 1.0)
    op = AlternatingProjections(b, WholeSpace(2))  # P_b: every point of b is fixed
    est = estimate_kappa(op, b, [0.0, 0.0], 0.5, samples=32, seed=1, polish=False)
    assert est.degenerate and est.value == 0.0


# ---------------------------------------------------------------------------
# sr' and sr


def test_sr_prime_two_lines_pi3():
    est = estimate_sr_prime(PI3.A, PI3.B, [0, 0], 0.5, intersection=ORIGIN, samples=128, seed=7)
    assert abs(est.value - 2.0 / math.sqrt(3.0)) <= 1e-3


def test_sr_prime_orthogonal():
    sc = build("two_lines_pi2")
    est = estimate_sr_prime(sc.A, sc.B, [0, 0], 0.5, intersection=ORIGIN, samples=128, seed=7)
    assert abs(est.value - 1.0) <= 1e-6


def test_sr_prime_identical_sets_is_zero():
    A = Ball([0.0, 0.0], 1.0)
    est = estimate_sr_prime(A, A, [1.0, 0.0], 0.3, intersection=A, samples=64, seed=5)
    assert est.value == 0.0 and est.degenerate


def test_sr_two_lines_pi3():
    est = estimate_sr(PI3.A, PI3.B, [0, 0], 0.5, intersection=ORIGIN, samples=256, seed=7)
    assert abs(est.value - 2.0) <= 1e-2


def test_sr_orthogonal_lines():
    sc = build("two_lines_pi2")
    est = estimate_sr(sc.A, sc.B, [0, 0], 0.5, intersection=ORIGIN, samples=256, seed=7)
    assert abs(est.value - math.sqrt(2.0)) <= 1e-2


def test_sr_identical_sets_is_one():
    # ambient samples off the set see dist(x, A cap A) = dist(x, A) exactly,
    # so the two-sided modulus of a set against itself is 1, not 0
    A = Ball([0.0, 0.0], 1.0)
    est = estimate_sr(A, A, [1.0, 0.0], 0.3, intersection=A, samples=64, seed=5)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_sr_estimators_require_probe_and_membership():
    with pytest.raises(ValueError):
        estimate_sr_prime(PI3.A, PI3.B, [0, 0], 0.5, intersection=None)
    with pytest.raises(ValueError):
        estimate_sr_prime(PI3.A, PI3.B, [0.5, 0.5], 0.5, intersection=ORIGIN)
    with pytest.raises(ValueError):
        estimate_sr_prime(PI3.A, PI3.B, [0, 0], 0.5, intersection=[])


# ---------------------------------------------------------------------------
# sigma


def test_sigma_identical_sets_sqrt_two():
    b = Ball([0.0, 0.0], 1.0)
    est = estimate_sigma(b, b, [1.0, 0.0], 0.4, samples=64, seed=1)
    assert abs(est.value - math.sqrt(2.0)) <= 1e-6


def test_sigma_orthogonal_lines_matches_dense_grid():
    sc = build("two_lines_pi2")
    est = estimate_sigma(sc.A, sc.B, [0, 0], 0.5, samples=128, seed=1)
    # dense-grid oracle over the same ball
    op = AlternatingProjections(sc.A, sc.B)
    from fixpoint.engine import residual_map
    from fixpoint.geometry import distance

    best = 0.0
    for r in np.linspace(0.05, 0.5, 20):
        for t in np.linspace(0.0, 2 * math.pi, 400, endpoint=False):
            x = np.array([r * math.cos(t), r * math.sin(t)])
            res = residual_map(op, x)
            if res > 1e-12:
                best = max(best, math.hypot(distance(sc.A, x), distance(sc.B, x)) / res)
    assert est.value >= 1.0 - 1e-9
    assert est.value >= best - 1e-6
    assert est.value <= best * 1.05 + 1e-6


def test_sigma_grid_refinement_stabilizes():
    est1 = estimate_sigma(PI3.A, PI3.B, [0, 0], 0.3, samples=128, seed=4)
    est2 = estimate_sigma(PI3.A, PI3.B, [0, 0], 0.3, samples=256, seed=4)
    assert est2.value >= est1.value
    assert est2.value <= est1.value * 1.05


# ---------------------------------------------------------------------------
# violation


def test_violation_convex_projector_zero():
    op = AlternatingProjections(Ball([0.0, 0.0], 1.0), WholeSpace(2))  # P_ball
    est = estimate_violation(op, [1.0, 0.0], 0.5, [1.0, 0.0], 0.8, samples=128, seed=5)
    assert est.value <= 1e-9


def test_violation_convex_composition_zero():
    op = AlternatingProjections(PI3.A, PI3.B)
    est = estimate_violation(op, [0.0, 0.0], 2.0 / 3.0, [0.0, 0.0], 0.8, samples=128, seed=5)
    assert est.value <= 1e-9


def test_violation_sphere_bounded_by_elemental_constant():
    sph = Sphere([0.0, 0.0], 1.0)
    y = np.array([1.0, 0.0])
    delta = 0.45
    op = AlternatingProjections(sph, WholeSpace(2))  # P_sphere
    est = estimate_violation(op, y, 0.5, y, delta, samples=256, seed=6)
    # matched elemental constant over the same neighborhood
    pts = sample_ball(y, delta, 256, seed=6)
    eps = 0.0
    on_set = sample_on_set(sph, y, 2 * delta, 128, seed=7)
    for w in pts:
        a = np.asarray(sph._candidates(w)[0])
        v = w - a
        if norm(v) <= 1e-12:
            continue
        pair = NormalPair(a, v)
        eps = max(
            eps,
            elemental_subreg_estimate(sph, on_set, pair, y, 2 * delta, polish=False),
        )
    bound = 2 * eps + 2 * eps * eps
    assert est.value <= bound + 1e-3


def test_violation_requires_fixed_point():
    op = AlternatingProjections(Ball([0.0, 0.0], 1.0), WholeSpace(2))  # P_ball
    with pytest.raises(ValueError):
        estimate_violation(op, [2.0, 0.0], 0.5, [2.0, 0.0], 0.5)


# ---------------------------------------------------------------------------
# closed-form rate and necessity formulas


def test_predicted_rate_msr_values():
    assert predicted_rate_msr(0.0, 0.5, math.sqrt(2.0)) == pytest.approx(math.sqrt(0.5))
    assert predicted_rate_msr(0.0, 2.0 / 3.0, 1.0) == pytest.approx(math.sqrt(0.5))
    c = predicted_rate_msr(0.0, 2.0 / 3.0, 4.0 / 3.0)
    assert c == pytest.approx(math.sqrt(1 - 9 / 32.0))
    # upper bound on the measured two-lines rate
    assert c >= 0.25


def test_predicted_rate_msr_no_conclusion_and_errors():
    assert predicted_rate_msr(0.5, 0.5, 10.0) is None  # c >= 1
    with pytest.raises(ValueError):
        predicted_rate_msr(0.0, 0.5, 0.1)  # negative radicand
    with pytest.raises(ValueError):
        predicted_rate_msr(0.0, 1.5, 1.0)


def test_predicted_rate_cp_values():
    assert predicted_rate_cp(0.0, 0.0, 1.0, 1.0) == CpRatePrediction(math.sqrt(0.5), False)
    assert predicted_rate_cp(0.0, 0.0, 0.5, 1.0) == CpRatePrediction(0.0, True)
    # inflated constants: eps=0.1 -> 4*0.1*1.1/0.81 ~ 0.5432, still collapses
    assert predicted_rate_cp(0.1, 0.0, 0.5, 1.0).collapsed
    # smallness condition fails -> no conclusion
    assert predicted_rate_cp(0.5, 0.0, 1.0, 1.0).rate is None
    with pytest.raises(ValueError):
        predicted_rate_cp(1.0, 0.0, 1.0, 1.0)


def test_necessity_bounds():
    assert necessity_bound("msr", 0.25) == pytest.approx(4.0 / 3.0)
    assert necessity_bound("monotone_subsequence", 0.0, n=1) == pytest.approx(2.0)
    assert necessity_bound("extendible_subsequence", 0.5, n=1) == pytest.approx(4.0)
    assert necessity_bound("linear_convergence", 0.5, m=3) == pytest.approx(12.0)
    with pytest.raises(ValueError):
        necessity_bound("msr", 1.0)
    with pytest.raises(ValueError):
        necessity_bound("bogus", 0.5)


# ---------------------------------------------------------------------------
# bracket and global subtransversality


def test_bracket_two_lines_strict():
    srp = estimate_sr_prime(PI3.A, PI3.B, [0, 0], 0.5, intersection=ORIGIN, samples=128, seed=7)
    sr = estimate_sr(PI3.A, PI3.B, [0, 0], 0.5, intersection=ORIGIN, samples=128, seed=7)
    assert verify_bracket(sr, srp)
    assert srp.value < sr.value < 1 + 2 * srp.value


def test_bracket_identical_sets():
    A = Ball([0.0, 0.0], 1.0)
    srp = estimate_sr_prime(A, A, [1, 0], 0.3, intersection=A, samples=32, seed=5)
    sr = estimate_sr(A, A, [1, 0], 0.3, intersection=A, samples=32, seed=5)
    assert verify_bracket(sr, srp)


def test_bracket_mismatched_certificates_rejected():
    srp = estimate_sr_prime(PI3.A, PI3.B, [0, 0], 0.5, intersection=ORIGIN, samples=32, seed=7)
    sr = estimate_sr(PI3.A, PI3.B, [0, 0], 0.4, intersection=ORIGIN, samples=32, seed=7)
    with pytest.raises(ValueError):
        verify_bracket(sr, srp)


def test_bracket_property_on_random_pairs():
    for i in range(100):
        sc = random_convex_pair(i, 2, ("halfspace_ball", "box_affine", "ball_ball")[i % 3])
        kw = dict(intersection=[sc.base_point], samples=48, seed=50 + i,
                  refine_numerator=True, polish_starts=6)
        srp = estimate_sr_prime(sc.A, sc.B, sc.base_point, 0.1, **kw)
        sr = estimate_sr(sc.A, sc.B, sc.base_point, 0.1, **kw)
        assert verify_bracket(sr, srp), f"pair {i}: sr'={srp.value} sr={sr.value}"


def test_epigraph_local_global_split():
    # finite local modulus at the flat corner, unbounded ratio toward the cusp
    sc = build("epigraph")
    local = estimate_sr_prime(
        sc.A, sc.B, sc.base_point, 0.3, intersection=sc.intersection, samples=128, seed=3
    )
    assert abs(local.value - math.sqrt(2.0)) <= 1e-2
    from fixpoint.geometry import distance

    prev = None
    t = 0.02
    for _ in range(4):
        ratio = distance(sc.intersection, np.array([t, t * t])) / distance(sc.B, np.array([t, t * t]))
        if prev is not None:
            assert ratio >= (2.0 - 1e-2) * prev
        prev = ratio
        t /= 2.0


# ---------------------------------------------------------------------------
# estimator invariants


def test_monotone_refinement_never_decreases():
    cases = []
    for count in (64, 128, 256):
        cases.append(
            estimate_sr_prime(
                PI3.A, PI3.B, [0, 0], 0.5, intersection=ORIGIN, samples=count, seed=11
            ).value
        )
    assert cases[0] <= cases[1] <= cases[2]
    saw = build("sawtooth")
    vals = [
        estimate_sr_prime(
            saw.A, saw.B, [0, 0], 0.5, intersection=saw.intersection,
            samples=c, seed=11, polish_starts=8,
        ).value
        for c in (96, 192)
    ]
    assert vals[0] <= vals[1]


@pytest.mark.parametrize(
    "sc",
    [build("sawtooth"), build("epigraph"), random_convex_pair(3, 3, "box_affine"),
     random_convex_pair(5, 2, "ball_ball"), random_convex_pair(1, 3, "halfspace_ball")],
    ids=lambda sc: sc.name,
)
def test_polish_of_a_start_ignores_the_other_starts(sc):
    # the lockstep ascent must end each start where that start ends alone, so
    # nested samples keep giving nested (monotone) estimates
    delta = 0.3
    feasible = _feasible(sc.base_point, delta, project=sc.A)
    probe = as_target(sc.intersection)

    def ratio(X):
        return _feasibility_ratio(target_distance_many(X, probe), sc.B._distance_many(X))

    P = np.array(sample_on_set(sc.A, sc.base_point, delta, 12, seed=1))
    best, X = ascend(P, ratio, feasible, step=delta / 4)
    for i in range(len(P)):
        b1, X1 = ascend(P[i : i + 1], ratio, feasible, step=delta / 4)
        assert np.array_equal(b1, best[i : i + 1]) and np.array_equal(X1[0], X[i])


@pytest.mark.parametrize("op_cls", [AlternatingProjections, DouglasRachford])
@pytest.mark.parametrize("name", ["two_lines_pi3", "sawtooth", "epigraph"])
def test_batched_residual_map_equals_scalar(op_cls, name):
    sc = build(name)
    op = op_cls(sc.A, sc.B)
    X = np.array(sample_ball(sc.base_point, 0.5, 24, seed=2))
    ref = np.array([residual_map(op, x) for x in X])
    got = residual_map_many(op, X)
    if sc.A.closed_form and sc.B.closed_form:
        assert np.allclose(got, ref, rtol=0.0, atol=1e-15)
    else:
        assert np.array_equal(got, ref)


def test_kappa_tightness_and_sufficiency_two_lines():
    # the error-bound modulus matches 1/(1 - monotonicity constant) on lines
    from fixpoint.diagnostics import check_linear_monotone

    op = AlternatingProjections(PI3.A, PI3.B)
    tr = run(op, IterationConfig(seed_point=[1.0, 0.0]))
    c_hat = check_linear_monotone(tr.x, ORIGIN).c
    kap = estimate_kappa(op, ORIGIN, [0, 0], 1.0, on_set=PI3.A, samples=128, seed=3)
    assert abs(kap.value - 1.0 / (1.0 - c_hat)) <= 1e-3


def test_rate_ordering_two_lines():
    op = AlternatingProjections(PI3.A, PI3.B)
    eps = estimate_violation(op, [0, 0], 2.0 / 3.0, [0, 0], 0.5, samples=96, seed=5)
    kap = estimate_kappa(op, ORIGIN, [0, 0], 0.5, on_set=PI3.A, samples=96, seed=6)
    pred = predicted_rate_msr(eps.value, 2.0 / 3.0, kap.value)
    tr = run(op, IterationConfig(seed_point=[1.0, 0.0]))
    from fixpoint.diagnostics import check_linear_monotone

    assert pred is not None
    assert check_linear_monotone(tr.x, ORIGIN).c <= pred + 1e-2


def test_estimate_json_certificate():
    est = estimate_sr_prime(PI3.A, PI3.B, [0, 0], 0.5, intersection=ORIGIN, samples=32, seed=9)
    d = est.to_json_dict()
    assert d["kind"] == "sr_prime"
    assert d["certificate"]["seed"] == 9
    assert d["certificate"]["count"] == 32
    assert d["certificate"]["grid_spacing"] > 0


def test_estimates_restricted_to_affine_constraint():
    # the pi/3 pair embedded in the z=0 plane of R^3, constrained to it:
    # estimates reproduce the planar values even though ambient space is 3-d
    from fixpoint.geometry import AffineSubspace

    s3, c3 = math.sin(math.pi / 3), math.cos(math.pi / 3)
    A = AffineSubspace([0, 0, 0], [[1.0, 0.0, 0.0]])
    B = AffineSubspace([0, 0, 0], [[c3, s3, 0.0]])
    lam = AffineSubspace([0, 0, 0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    probe = [np.zeros(3)]
    srp = estimate_sr_prime(A, B, [0, 0, 0], 0.5, lam=lam, intersection=probe, samples=128, seed=7)
    assert abs(srp.value - 2 / math.sqrt(3)) <= 1e-3
    sr = estimate_sr(A, B, [0, 0, 0], 0.5, lam=lam, intersection=probe, samples=256, seed=7)
    assert abs(sr.value - 2.0) <= 1e-2
    op = AlternatingProjections(A, B)
    kap = estimate_kappa(op, probe, [0, 0, 0], 1.0, lam=lam, on_set=A, samples=128, seed=3)
    assert abs(kap.value - 4.0 / 3.0) <= 1e-6


def test_pointwise_and_global_fail_together_on_epigraph():
    # at the cusp endpoint of the intersection the pointwise modulus blows
    # up, exactly when the global inequality fails on the same region
    sc = build("epigraph")
    srp_cusp = estimate_sr_prime(
        sc.A, sc.B, [0.0, 0.0], 0.2, intersection=sc.intersection, samples=96, seed=3
    )
    assert srp_cusp.value > 1e3
    ratios, diverges = global_ratio_growth(sc.intersection, sc.B, 4)
    assert diverges and ratios[-1] > 1.0 / (1.0 - 0.99)
    # while at the flat corner both are tame
    srp_flat = estimate_sr_prime(
        sc.A, sc.B, sc.base_point, 0.2, intersection=sc.intersection, samples=96, seed=3
    )
    assert srp_flat.value < 2.0


def test_extracted_k1_feeds_linear_convergence_bound():
    from fixpoint.diagnostics import (
        estimate_r_rate,
        extract_monotone_subsequence,
    )

    op = AlternatingProjections(PI3.A, PI3.B)
    tr = run(op, IterationConfig(seed_point=[1.0, 0.0]))
    r = estimate_r_rate(tr.x, limit=[0, 0])
    rep = extract_monotone_subsequence(tr.x, ORIGIN, c=r.c, gamma=r.gamma, limit=[0, 0])
    assert rep.k1 is not None
    bound = necessity_bound("linear_convergence", r.c, m=rep.k1)
    srp = estimate_sr_prime(PI3.A, PI3.B, [0, 0], 0.5, intersection=ORIGIN, samples=64, seed=1)
    assert srp.value <= bound + 1e-9
