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
    AffineSubspace,
    Ball,
    DimensionMismatch,
    Halfspace,
    Sphere,
    WholeSpace,
    as_target,
    ascend,
    distance,
    sample_ball,
    stack,
    take,
)
from fixpoint.regularity import (
    _feasibility_ratio,
    _Region,
    estimate_kappa,
    estimate_sigma,
    estimate_sr,
    estimate_sr_prime,
    estimate_sr_prime_stack,
    estimate_violation,
    global_ratio_growth,
    necessity_bound,
    predicted_rate_msr,
    verify_bracket,
)
from fixpoint.scenarios import build, builtin_names, line_through_origin, random_convex_pair
from fixpoint.verify import _ap_trace, _convex_corpus

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
    est = estimate_kappa(op, b, [0.0, 0.0], 0.5, samples=32, seed=1, polish_starts=0)
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


@pytest.mark.parametrize("probe, message", [
    ([np.zeros(3)], "probe has dimension 3, expected 2"),
    ([], "probe is empty"),
])
def test_malformed_probes_are_named(probe, message):
    # a 3-d probe on a 2-d pair once failed deep in numpy broadcasting
    with pytest.raises(ValueError, match="intersection " + message):
        estimate_sr_prime(PI3.A, PI3.B, [0, 0], 0.5, intersection=probe, samples=8)
    with pytest.raises(ValueError, match="fixed-point " + message):
        estimate_kappa(AlternatingProjections(PI3.A, PI3.B), probe, [0, 0], 0.5,
                       on_set=PI3.A, samples=8)


def test_kappa_names_a_center_of_the_wrong_dimension():
    # the probe is measured in the pair's space, so a 3-d center is the error
    with pytest.raises(DimensionMismatch, match="expected dimension 2, got 3"):
        estimate_kappa(AlternatingProjections(PI3.A, PI3.B), ORIGIN, [0, 0, 0], 0.5, samples=8)


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
    # the circle's elemental constant over B_{2 delta}(y): two of its points
    # there are at most 4 asin(delta) apart in angle, and the normal-angle
    # ratio <v, x - a> / (||v|| ||x - a||) at angle theta is sin(theta / 2)
    eps = math.sin(2.0 * math.asin(delta))
    bound = 2 * eps + 2 * eps * eps
    assert est.value <= bound + 1e-3


@pytest.mark.parametrize("change, error, message", [
    (dict(delta=-0.5), ValueError, "delta must be a finite number > 0, got -0.5"),
    (dict(delta=math.nan), ValueError, "delta must be a finite number > 0, got nan"),
    (dict(samples=0), ValueError, "samples must be >= 1, got 0"),
    (dict(center=[0.0, 0.0, 0.0]), DimensionMismatch, "expected dimension 2, got 3"),
    (dict(y=[0.0, 0.0, 0.0]), DimensionMismatch, "expected dimension 2, got 3"),
], ids=["delta_negative", "delta_nan", "no_samples", "center_dimension", "y_dimension"])
def test_violation_checks_its_sampling_inputs(change, error, message):
    args = dict(y=[0.0, 0.0], alpha=0.5, center=[0.0, 0.0], delta=0.5, samples=16)
    with pytest.raises(error, match=message):
        estimate_violation(AlternatingProjections(PI3.A, PI3.B), **{**args, **change})


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
    kw = dict(intersection=ORIGIN, samples=32, seed=7)
    srp = estimate_sr_prime(PI3.A, PI3.B, [0, 0], 0.5, **kw)
    sr = estimate_sr(PI3.A, PI3.B, [0, 0], 0.4, **kw)
    with pytest.raises(ValueError):
        verify_bracket(sr, srp)
    # two lams of one variant on different lines certify different regions
    sr = estimate_sr(PI3.A, PI3.B, [0, 0], 0.5, lam=AffineSubspace([0, 0], [[0.0, 1.0]]), **kw)
    srp = estimate_sr_prime(PI3.A, PI3.B, [0, 0], 0.5, lam=AffineSubspace([0, 0], [[0.6, 0.8]]),
                            **kw)
    with pytest.raises(ValueError, match="mismatched certificates"):
        verify_bracket(sr, srp)


def test_bracket_accepts_a_whole_space_lam_beside_none():
    # a whole-space lam constrains nothing, so it certifies the same region as None
    kw = dict(intersection=ORIGIN, samples=32, seed=7)
    sr = estimate_sr(PI3.A, PI3.B, [0, 0], 0.5, lam=WholeSpace(2), **kw)
    srp = estimate_sr_prime(PI3.A, PI3.B, [0, 0], 0.5, **kw)
    assert verify_bracket(sr, srp)
    sr = estimate_sr(PI3.A, PI3.B, [0, 0], 0.5, **kw)
    srp = estimate_sr_prime(PI3.A, PI3.B, [0, 0], 0.5, lam=WholeSpace(2), **kw)
    assert verify_bracket(sr, srp)


def test_bracket_property_on_random_pairs():
    for i in range(100):
        sc = random_convex_pair(i, 2, ("halfspace_ball", "box_affine", "ball_ball")[i % 3])
        kw = dict(intersection=[sc.base_point], samples=48, seed=50 + i,
                  refine_numerator=True, polish_starts=6)
        srp = estimate_sr_prime(sc.A, sc.B, sc.base_point, 0.1, **kw)
        sr = estimate_sr(sc.A, sc.B, sc.base_point, 0.1, **kw)
        assert verify_bracket(sr, srp), f"pair {i}: sr'={srp.value} sr={sr.value}"


def test_numerator_refinement_sharpens_a_probe_and_never_an_exact_set():
    # a distance to an exact set is already exact: settling would add only rounding
    def values(sc, delta, intersection):
        return [estimate_sr_prime(sc.A, sc.B, sc.base_point, delta, intersection=intersection,
                                  samples=32, seed=1, refine_numerator=r).value
                for r in (False, True)]

    epi = build("epigraph")
    plain, refined = values(epi, 0.3, epi.intersection)
    assert plain == refined
    pair = random_convex_pair(3, 2, "box_affine")
    plain, refined = values(pair, 0.1, [pair.base_point])  # a one-point probe
    assert refined < 1e-3 * plain


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


def _polish_maps(pairs, seeds, lam=None):
    """The sr' polish of the pairs' regions (radius 0.3 on A, each with its
    own seed and, if given, its own lam): their sample and owners, and the
    ratio and feasibility maps of ascend over starts drawn from that sample."""
    region = _Region(np.array([sc.base_point for sc in pairs]), 0.3,
                     on_set=stack([sc.A for sc in pairs]),
                     lam=None if lam is None else stack([lam(sc) for sc in pairs]))
    probe = stack([as_target(sc.intersection, sc.A.dim, "intersection") for sc in pairs])
    B = stack([sc.B for sc in pairs])
    P, owner = region.sample(12, seeds)

    def ratio(X, at):
        return _feasibility_ratio(take(probe, owner[at])._distance_many(X),
                                  take(B, owner[at])._distance_many(X))

    return P, owner, ratio, lambda Y, at: region.feasible(Y, owner[at])


def _assert_each_start_ends_alone(pairs, lam=None):
    # starts of every pair, polished in one ascend, end where each ends alone
    # in its own pair's region, from its own pair's sample
    seeds = [1 + k for k in range(len(pairs))]
    P, owner, ratio, feasible = _polish_maps(pairs, seeds, lam)
    assert set(owner.tolist()) == set(range(len(pairs)))
    best, X = ascend(P, ratio, feasible, 0.3 / 4)
    for k, sc in enumerate(pairs):
        P1, _, ratio1, feasible1 = _polish_maps([sc], seeds[k : k + 1], lam)
        assert np.array_equal(P1, P[owner == k])
        for i in np.flatnonzero(owner == k):
            b1, X1 = ascend(P[i : i + 1], ratio1, feasible1, 0.3 / 4)
            assert np.array_equal(b1, best[i : i + 1]) and np.array_equal(X1[0], X[i])


@pytest.mark.parametrize(
    "pairs",
    [[build("sawtooth")], [build("epigraph")],
     [random_convex_pair(i, 3, "box_affine") for i in (3, 4, 6)],
     [random_convex_pair(i, 2, "ball_ball") for i in (5, 6, 8)],
     [random_convex_pair(i, 3, "halfspace_ball") for i in (1, 2)]],
    ids=lambda pairs: pairs[0].name,
)
def test_polish_of_a_start_ignores_the_other_starts(pairs):
    # the lockstep ascent must end each start where that start ends alone, so
    # nested samples keep giving nested (monotone) estimates; the starts of
    # a stack of convex pairs share one ascent
    _assert_each_start_ends_alone(pairs)


def test_stacked_sr_prime_estimates_equal_the_per_pair_estimates():
    # criterion 8's estimates on a slice of its corpus that spans its six
    # stacks (a family and a dimension each): one stacked estimate per
    # stack reports every pair's own estimate, bit for bit
    cases = []
    for i, sc in _convex_corpus(18):
        x_lim = _ap_trace(sc, sc.base_point + 0.08 * sc.boundary_ray)[1].limit
        cases.append((i, sc, x_lim, [x_lim, sc.base_point]))
    options = dict(samples=96, refine_numerator=True, polish_starts=12)
    for g in range(6):
        group = [c for c in cases if c[0] % 6 == g]
        stacked = estimate_sr_prime_stack(
            [sc.A for _, sc, _, _ in group], [sc.B for _, sc, _, _ in group],
            [x for _, _, x, _ in group], [probe for _, _, _, probe in group],
            [100 + i for i, _, _, _ in group], 0.02, **options)
        assert len(stacked) == len(group) == 3
        for (i, sc, x_lim, probe), est in zip(group, stacked):
            alone = estimate_sr_prime(sc.A, sc.B, x_lim, 0.02, intersection=probe,
                                      seed=100 + i, **options)
            assert repr(est.to_json_dict()) == repr(alone.to_json_dict()), sc.name
            assert est.value > 0 and est.certificate.seed == 100 + i


def test_a_stacked_estimate_checks_its_pairs():
    pairs = [random_convex_pair(i, 2, "ball_ball") for i in (0, 1)]
    args = ([sc.A for sc in pairs], [sc.B for sc in pairs], [sc.base_point for sc in pairs],
            [sc.intersection for sc in pairs])
    with pytest.raises(ValueError, match="zip"):  # one seed for two pairs
        estimate_sr_prime_stack(*args, [0], 0.1, samples=8)
    with pytest.raises(ValueError, match="base point must lie in both sets"):
        estimate_sr_prime_stack(*args[:2], [sc.base_point + 1.0 for sc in pairs], *args[3:],
                                [0, 1], 0.1, samples=8)
    mixed = [random_convex_pair(0, 2, "ball_ball"), random_convex_pair(0, 2, "halfspace_ball")]
    with pytest.raises(ValueError, match="a stack takes sets of one variant among"):
        estimate_sr_prime_stack([sc.A for sc in mixed], [sc.B for sc in mixed],
                                [sc.base_point for sc in mixed], [sc.intersection for sc in mixed],
                                [0, 1], 0.1, samples=8)


def _line_through_base_point(sc):
    u = np.r_[1.0, -0.2, np.zeros(sc.A.dim - 2)]
    return AffineSubspace(sc.base_point, [u / np.linalg.norm(u)])


@pytest.mark.parametrize(
    "pairs",
    [[random_convex_pair(i, 3, "box_affine") for i in (3, 4)],
     [random_convex_pair(i, 2, "ball_ball") for i in (5, 6)],
     [random_convex_pair(i, 3, "halfspace_ball") for i in (1, 2)]],
    ids=lambda pairs: pairs[0].name,
)
def test_alternating_rounds_of_a_start_ignore_the_other_starts(pairs):
    # the map's alternating rounds onto on_set and lam run in lockstep too
    _assert_each_start_ends_alone(pairs, _line_through_base_point)


def test_region_maps_points_into_on_set_and_lam():
    # one map puts points into the region: without on_set a trial point is
    # projected onto lam; beside on_set it alternates projections onto both,
    # so it lands in on_set and lam and is admitted
    lam = AffineSubspace([0.0, 0.0], [[0.6, 0.8]])
    trial = np.array([[0.5, 0.0]])
    Y, ok = _Region(np.zeros(2), 1.0, lam=lam).feasible(trial, np.zeros(1, int))
    assert ok.all() and np.allclose(Y, [[0.18, 0.24]], atol=1e-15)
    above = Halfspace([0.0, -1.0], -0.2)  # y >= 0.2, which meets lam in t (0.6, 0.8), t >= 1/4
    region = _Region(np.zeros(2), 0.3, on_set=above, lam=lam)
    # a row stops on its own: the first lands after one round, 0.46 from the
    # center, the second after about 30
    Y, ok = region.feasible(np.array([[0.5, 0.0], [-0.5, 0.0]]), np.zeros(2, int))
    assert ok.tolist() == [False, True]
    assert np.allclose(Y, [[0.276, 0.368], [0.15, 0.2]], atol=1e-12)
    assert distance(above, Y[1]) == 0.0 and distance(lam, Y[1]) <= 1e-12
    # the sample is the admitted rows of the map of the ball stream
    Y, ok = region.feasible(np.array(sample_ball(np.zeros(2), 0.3, 16, 3)), np.zeros(16, int))
    assert 0 < ok.sum() < 16 and np.array_equal(region.sample(16, [3])[0], Y[ok])
    P, owner = _Region(np.zeros(2), 1.0, lam=lam).sample(8, [0])
    assert all(distance(lam, p) <= 1e-12 for p in P) and not owner.any()


def test_region_rejects_rows_whose_rounds_have_not_converged():
    # A (the x-axis) meets the line at 0.7 rad only in the base point; 40
    # alternating rounds at the rate cos^2(0.7) = 0.585 leave a trial a few
    # tenths away about 1e-10 from it and within 1e-9 of the line, but its
    # last round still moved it by more than 1e-12
    lam = line_through_origin(0.7)
    region = _Region(PI3.base_point, 0.5, on_set=PI3.A, lam=lam)
    Y, ok = region.feasible(np.array([[0.1, 0.2], [0.4, -0.1], [-0.3, 0.0], [0.0, 0.3]]),
                            np.zeros(4, int))
    assert ok.tolist() == [False, False, False, True]  # the last lands on the base point
    assert np.all(np.abs(Y[:3, 0]) > 1e-11) and np.all(lam._distance_many(Y) <= 1e-9)
    # every admitted sample row has converged: one more round moves it by at most 1e-12
    S = region.sample(256, [0])[0]
    Q = lam._project_many(S)
    assert np.all(np.hypot(*(PI3.A._project_many(Q) - Q).T) <= 1e-12)


def test_kappa_evaluates_its_anchor_only_inside_the_region():
    # the region {x = 0.45} of the sawtooth near (0.5, 0) is the one point
    # (0.45, -0.05), where the ratio is sqrt(41); the center's projection onto
    # the sawtooth, (0.5, 0), is a stuck point off lam and must not be scored
    saw = build("sawtooth")
    lam = AffineSubspace([0.45, 0.0], [[0.0, 1.0]])
    est = estimate_kappa(AlternatingProjections(saw.A, saw.B), saw.intersection, [0.5, 0.0],
                         0.1, lam=lam, on_set=saw.A, samples=16, polish_starts=1)
    assert est.value == pytest.approx(math.sqrt(41.0), rel=1e-9)
    # no point of the sawtooth lies within 0.05 of (0.5, 0.08): the region is
    # empty, and the stuck projection (0.5, 0) of the center is not scored
    est = estimate_kappa(AlternatingProjections(saw.A, saw.B), saw.intersection, [0.5, 0.08],
                         0.05, on_set=saw.A, samples=16)
    assert est.value == 0.0 and est.degenerate


def test_a_whole_space_lam_of_the_wrong_dimension_is_named():
    for lam in (WholeSpace(3), AffineSubspace([0, 0, 0], [[1.0, 0.0, 0.0]])):
        with pytest.raises(DimensionMismatch, match="lam has dimension 3, expected 2"):
            estimate_sr_prime(PI3.A, PI3.B, [0, 0], 0.5, lam=lam, intersection=ORIGIN, samples=8)


@pytest.mark.parametrize("op_cls", [AlternatingProjections, DouglasRachford])
@pytest.mark.parametrize("name", builtin_names())
def test_batched_residual_map_equals_scalar(op_cls, name):
    # residual_map is the batch's one-row case, closed-form pairs included
    sc = build(name)
    op = op_cls(sc.A, sc.B)
    center = sc.seed_region[0] if sc.base_point is None else sc.base_point
    X = np.array(sample_ball(center, 0.5, 24, seed=2))
    ref = np.array([residual_map(op, x) for x in X])
    assert np.array_equal(residual_map_many(op, X), ref)


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


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("i", range(4))
def test_a_whole_space_lam_is_no_constraint(i, refine):
    # every estimate with lam=WholeSpace(d) is the lam=None one, bit for bit
    d = 2 + i % 2
    sc = random_convex_pair(i, d, ("halfspace_ball", "box_affine", "ball_ball")[i % 3])
    probe = [sc.base_point]
    kw = dict(samples=32, seed=20 + i, refine_numerator=refine, polish_starts=6)
    estimators = {
        "sr_prime": lambda lam: estimate_sr_prime(sc.A, sc.B, sc.base_point, 0.2, lam=lam,
                                                  intersection=probe, **kw),
        "sr": lambda lam: estimate_sr(sc.A, sc.B, sc.base_point, 0.2, lam=lam,
                                      intersection=probe, **kw),
        "kappa": lambda lam: estimate_kappa(AlternatingProjections(sc.A, sc.B), probe,
                                            sc.base_point, 0.3, lam=lam, on_set=sc.A, **kw),
        "kappa_dr": lambda lam: estimate_kappa(DouglasRachford(sc.A, sc.B), probe,
                                               sc.base_point, 0.3, lam=lam, **kw),
    }
    for name, estimate in estimators.items():
        free, whole = estimate(None), estimate(WholeSpace(d))
        assert whole.lam is None and whole.to_json_dict()["lam"] is None, name
        assert whole.to_json_dict() == free.to_json_dict(), name


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


def test_public_dataclasses_resolve_their_type_hints():
    # every annotation names something its module imports
    import dataclasses
    import importlib
    import typing

    modules = [importlib.import_module("fixpoint." + m) for m in
               ("cli", "diagnostics", "engine", "geometry", "regularity", "scenarios", "verify")]
    classes = {v for m in modules for k, v in vars(m).items()
               if not k.startswith("_") and isinstance(v, type) and dataclasses.is_dataclass(v)}
    assert {"RegularityEstimate", "Scenario", "Epigraph"} <= {c.__name__ for c in classes}
    for cls in classes:
        typing.get_type_hints(cls)
