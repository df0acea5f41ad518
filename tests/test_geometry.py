import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixpoint.geometry import (
    TIE_TOL,
    AffineSubspace,
    Ball,
    Box,
    DimensionMismatch,
    Epigraph,
    FinitePointSet,
    Halfspace,
    LinearPiece,
    NormalPair,
    ParabolicPiece,
    PiecewiseCurve,
    SetUnion,
    Sphere,
    WholeSpace,
    as_points,
    as_vector,
    distance,
    elemental_subreg_estimate,
    norm,
    pattern_polish,
    project_all,
    project_one,
    proximal_normal,
    sample_ball,
    sample_on_set,
    set_from_json,
    set_to_json,
)
from fixpoint.scenarios import sawtooth_graph


def segment_sweep_distance(curve_union, x, n=10**6):
    """Brute-force distance: dense parameter sweep over every piece."""
    x = np.asarray(x, float)
    best = math.inf
    pieces = []
    for member in curve_union.members:
        if isinstance(member, PiecewiseCurve):
            pieces.extend(member.pieces)
        elif isinstance(member, FinitePointSet):
            best = min(best, float(np.min(np.linalg.norm(member.points - x, axis=1))))
    m = max(2, n // max(1, len(pieces)))
    ts = np.linspace(0.0, 1.0, m)
    best_pt = None
    for p in pieces:
        pts = p.start[None, :] + ts[:, None] * (p.end - p.start)[None, :]
        d = np.linalg.norm(pts - x, axis=1)
        j = int(np.argmin(d))
        if d[j] < best:
            best = float(d[j])
            best_pt = pts[j]
    return best, best_pt


# ---------------------------------------------------------------------------
# distances


def test_distance_halfspace():
    assert distance(Halfspace([0, 1], 0.0), [1, 1]) == 1.0


def test_distance_ball():
    assert distance(Ball([0, 0], 1.0), [3, 4]) == 4.0


def test_distance_sawtooth_matches_sweep():
    saw = sawtooth_graph(20)
    x = [0.3, 0.1]
    ref, _ = segment_sweep_distance(saw, x)
    assert abs(distance(saw, x) - ref) <= 1e-6


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        distance(Ball([0, 0], 1.0), [1, 2, 3])


# ---------------------------------------------------------------------------
# projections


def test_project_all_halfspace():
    ps = project_all(Halfspace([0, 1], 0.0), [1, 1])
    assert len(ps) == 1
    assert np.allclose(ps[0], [1, 0])


def test_project_all_finite_tie_lexicographic():
    ps = project_all(FinitePointSet([[1, 0], [0, 1]]), [0, 0])
    assert len(ps) == 2
    assert np.allclose(ps[0], [0, 1]) and np.allclose(ps[1], [1, 0])


def test_project_all_sphere_center_canonical():
    ps = project_all(Sphere([0.0, 0.0, 0.0], 1.0), [0, 0, 0])
    assert len(ps) == 1
    assert np.allclose(ps[0], [1, 0, 0])
    assert ps.infinite_fiber
    away = project_all(Sphere([0.0, 0.0], 1.0), [0.5, 0.0])
    assert not away.infinite_fiber
    assert np.allclose(away[0], [1, 0])


def test_project_one_examples():
    assert np.allclose(project_one(FinitePointSet([[1, 0], [0, 1]]), [0, 0]), [0, 1])
    assert np.allclose(project_one(Box([0, 0], [1, 1]), [2, -1]), [1, 0])
    assert np.allclose(project_one(AffineSubspace([0, 0], [[1, 0]]), [3, 4]), [3, 0])


@pytest.mark.parametrize(
    "s",
    [
        Halfspace([0.3, -1.2], 0.7),
        AffineSubspace([1.0, 2.0], [[0.6, 0.8]]),
        Ball([0.5, -0.5], 1.3),
        Box([-1, -2], [0.5, 3]),
        Sphere([0.2, 0.1], 0.9),
        FinitePointSet([[0, 0], [1, 1], [2, -1], [0.6, 0.6]]),
        sawtooth_graph(8),
        Epigraph([-1.0, 0.0], [[0, -1, -1], [0, 0, 0], [1, 0, 0]]),
        SetUnion((Ball([0, 0], 0.5), Box([1, 1], [2, 2]))),
        WholeSpace(2),
    ],
    ids=lambda s: type(s).__name__,
)
def test_projection_optimality_and_idempotence(s):
    # every returned candidate attains the distance; no sampled set point is
    # closer; projecting twice is projecting once
    rng = np.random.default_rng(7)
    probe = np.array(sample_on_set(s, np.zeros(2), 4.0, 1000, seed=13))
    for _ in range(1000):
        x = rng.uniform(-3, 3, size=2)
        d = distance(s, x)
        for p in project_all(s, x):
            assert norm(p - x) <= d + 1e-9
        if len(probe):
            assert float(np.min(np.linalg.norm(probe - x, axis=1))) >= d - 1e-9
        p1 = project_one(s, x)
        assert norm(project_one(s, p1) - p1) <= 1e-12


@pytest.mark.parametrize(
    "s",
    [
        Halfspace([1.0, 0.4], -0.2),
        AffineSubspace([0.0, 1.0], [[1.0, 0.0]]),
        Ball([0.0, 0.0], 1.0),
        Box([-1, -1], [1, 1]),
        Epigraph([0.0], [[0, 0, 0], [1, 0, 0]]),
    ],
    ids=lambda s: type(s).__name__,
)
def test_firm_nonexpansiveness_convex(s):
    assert s.convex
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        x = rng.uniform(-3, 3, size=2)
        y = rng.uniform(-3, 3, size=2)
        px, py = project_one(s, x), project_one(s, y)
        lhs = norm(px - py) ** 2 + norm((x - px) - (y - py)) ** 2
        assert lhs <= norm(x - y) ** 2 + 1e-9


def test_union_distance_is_min_exactly():
    members = (Ball([0, 0], 0.5), Box([1, 1], [2, 2]), FinitePointSet([[-3, 0]]))
    u = SetUnion(members)
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = rng.uniform(-4, 4, size=2)
        assert distance(u, x) == min(distance(m, x) for m in members)


def test_parabolic_projection_matches_sweep():
    piece = ParabolicPiece(a=1.2, b=-0.4, c=0.3, t0=-1.5, t1=2.0)
    curve = PiecewiseCurve((piece,))
    ts = np.linspace(piece.t0, piece.t1, 10**6)
    graph = np.stack([ts, (piece.a * ts + piece.b) * ts + piece.c], axis=1)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-2, 3, size=2)
        ref = float(np.min(np.linalg.norm(graph - x, axis=1)))
        assert abs(distance(curve, x) - ref) <= 1e-6


def test_epigraph_membership_and_projection():
    epi = Epigraph([-1.0, 0.0], [[0, -1, -1], [0, 0, 0], [1, 0, 0]])
    assert distance(epi, [0.5, 0.5]) == 0.0  # above t^2
    assert distance(epi, [-0.5, 0.1]) == 0.0
    # below the flat part the projection is the vertical drop
    assert np.allclose(project_one(epi, [-0.5, -0.3]), [-0.5, 0.0])
    # below t^2: compare against a sweep of the whole boundary
    ts = np.linspace(-3, 3, 10**6)
    fs = np.where(ts < -1, -ts - 1, np.where(ts < 0, 0.0, ts * ts))
    graph = np.stack([ts, fs], axis=1)
    for x in ([0.8, 0.1], [0.4, -0.5], [-2.0, -1.0], [2.0, 1.0]):
        ref = float(np.min(np.linalg.norm(graph - np.asarray(x), axis=1)))
        assert abs(distance(epi, x) - ref) <= 1e-6


def test_epigraph_jump_uses_vertical_segment():
    # f jumps from 0 down to -1 at t=0: boundary includes the segment
    epi = Epigraph([0.0], [[0, 0, 0], [0, 0, -1]], convex=False)
    p = project_one(epi, [-0.3, -0.5])
    assert np.allclose(p, [0.0, -0.5])


# ---------------------------------------------------------------------------
# proximal normals and elemental subregularity


def test_proximal_normal_halfspace():
    pn = proximal_normal(Halfspace([0, 1], 0.0), [2, 3])
    assert np.allclose(pn.base, [2, 0]) and np.allclose(pn.direction, [0, 3])


def test_proximal_normal_sphere_inner_point():
    pn = proximal_normal(Sphere([0, 0], 1.0), [0.5, 0])
    assert np.allclose(pn.base, [1, 0]) and np.allclose(pn.direction, [-0.5, 0])


def test_proximal_normal_reprojects():
    for s, w in [
        (Ball([0, 0], 1.0), [2.0, 1.0]),
        (Box([0, 0], [1, 1]), [2.0, -0.4]),
        (sawtooth_graph(10), [0.4, 0.2]),
    ]:
        pn = proximal_normal(s, w)
        assert norm(project_one(s, pn.base + pn.direction) - pn.base) <= 1e-9


def test_proximal_normal_sawtooth_matches_sweep():
    saw = sawtooth_graph(20)
    w = np.array([3.0 / 2**4, 0.05])
    pn = proximal_normal(saw, w)
    _, best_pt = segment_sweep_distance(saw, w)
    assert norm(pn.base - best_pt) <= 1e-5


def test_proximal_normal_rejects_interior_query():
    with pytest.raises(ValueError):
        proximal_normal(Ball([0, 0], 1.0), [0.2, 0.2])


@pytest.mark.parametrize(
    "s,w",
    [
        (Ball([0.0, 0.0], 1.0), [2.0, 0.5]),
        (Halfspace([0.0, 1.0], 0.0), [0.3, 2.0]),
        (Box([0.0, 0.0], [1.0, 1.0]), [2.0, 0.5]),
        (AffineSubspace([0.0, 0.0], [[1.0, 0.0]]), [0.4, 1.0]),
    ],
    ids=lambda v: type(v).__name__ if hasattr(v, "dim") else "",
)
def test_elemental_zero_for_convex(s, w):
    w = np.asarray(w, float)
    pn = proximal_normal(s, w)
    sample = sample_on_set(s, pn.base, 0.5, 128, seed=4)
    assert elemental_subreg_estimate(s, sample, pn, pn.base, 0.5) <= 1e-12


def test_elemental_sphere_outward_zero():
    sph = Sphere([0.0, 0.0], 1.0)
    sample = sample_on_set(sph, [1.0, 0.0], 0.5, 128, seed=9)
    pair = NormalPair(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert elemental_subreg_estimate(sph, sample, pair, [1.0, 0.0], 0.5) == 0.0


def test_elemental_sphere_inward_matches_angular_sweep():
    sph = Sphere([0.0, 0.0], 1.0)
    sample = sample_on_set(sph, [1.0, 0.0], 0.5, 256, seed=9)
    pair = NormalPair(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    est = elemental_subreg_estimate(sph, sample, pair, [1.0, 0.0], 0.5)
    cap = 2.0 * math.asin(0.25)
    ts = np.linspace(-cap, cap, 10**6)
    ref = float(np.max(np.abs(np.sin(ts / 2.0))))
    assert abs(est - ref) <= 1e-6


def test_elemental_rejects_empty_sample():
    sph = Sphere([0.0, 0.0], 1.0)
    pair = NormalPair(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        elemental_subreg_estimate(sph, [pair.base], pair, [1.0, 0.0], 0.5)


# ---------------------------------------------------------------------------
# hypothesis properties


@settings(max_examples=60, deadline=None)
@given(
    nx=st.floats(-3, 3), ny=st.floats(-3, 3),
    qx=st.floats(-5, 5), qy=st.floats(-5, 5),
    off=st.floats(-2, 2),
)
def test_halfspace_projection_is_nearest(nx, ny, qx, qy, off):
    if abs(nx) + abs(ny) < 1e-3:
        nx = 1.0
    hs = Halfspace([nx, ny], off)
    q = np.array([qx, qy])
    p = project_one(hs, q)
    assert distance(hs, p) <= 1e-9
    assert abs(norm(p - q) - distance(hs, q)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(qx=st.floats(-5, 5), qy=st.floats(-5, 5), r=st.floats(0.1, 3))
def test_ball_projection_idempotent(qx, qy, r):
    b = Ball([0.3, -0.2], r)
    p = project_one(b, [qx, qy])
    assert norm(project_one(b, p) - p) <= 1e-12


def test_sampling_is_nested_prefix():
    a = sample_ball([0.0, 0.0], 1.0, 16, seed=5)
    b = sample_ball([0.0, 0.0], 1.0, 32, seed=5)
    assert all(np.array_equal(p, q) for p, q in zip(a, b))


# ---------------------------------------------------------------------------
# JSON wire format


@pytest.mark.parametrize(
    "s",
    [
        Halfspace([0, 1], 0.0),
        AffineSubspace([0, 0], [[1, 0]]),
        Ball([0, 0], 1.0),
        Box([0, 0], [1, 1]),
        Sphere([0, 0], 1.0),
        FinitePointSet([[1, 0], [0, 1]]),
        PiecewiseCurve((LinearPiece([0, 0], [1, 1]), ParabolicPiece(1, 0, 0, -1, 1))),
        Epigraph([0.0], [[0, 0, 0], [1, 0, 0]]),
        SetUnion((Ball([0, 0], 1.0), Box([2, 2], [3, 3]))),
        WholeSpace(2),
    ],
    ids=lambda s: type(s).__name__,
)
def test_set_json_round_trip(s):
    obj = set_to_json(s)
    s2 = set_from_json(obj)
    rng = np.random.default_rng(1)
    for _ in range(25):
        x = rng.uniform(-3, 3, size=2)
        assert distance(s, x) == pytest.approx(distance(s2, x), abs=1e-15)


def test_set_json_rejects_unknown():
    with pytest.raises(ValueError):
        set_from_json({"variant": "pentagon"})
    with pytest.raises(ValueError):
        set_from_json({"variant": "ball", "center": [0, 0], "radius": 1, "extra": 1})
    line = {"kind": "linear", "start": [0, 0], "end": [1, 1]}
    for piece in (dict(line, extra=1), dict(line, kind="spline"), {"start": [0, 0]}):
        with pytest.raises(ValueError):
            set_from_json({"variant": "piecewise_curve", "pieces": [piece]})


# ---------------------------------------------------------------------------
# projector invariants of every variant


VARIANTS = [
    Halfspace([0.3, -1.2], 0.7),
    AffineSubspace([1.0, 2.0], [[0.6, 0.8]]),
    Ball([0.5, -0.5], 1.3),
    Box([-1, -2], [0.5, 3]),
    WholeSpace(2),
    Sphere([0.2, 0.1], 0.9),
    FinitePointSet([[0, 0], [1, 1], [2, -1], [0.6, 0.6]]),
    PiecewiseCurve((LinearPiece([-1, 0], [0, 1]), ParabolicPiece(0.5, 0, 1, 0, 2))),
    Epigraph([0.0], [[0, 0, 0], [0, 0, -1]], convex=False),
    SetUnion((sawtooth_graph(8), Ball([-1, 1], 0.5))),
]

coordinate = st.floats(-5, 5, allow_nan=False)


@pytest.mark.parametrize("s", VARIANTS, ids=lambda s: type(s).__name__)
@settings(max_examples=40, deadline=None)
@given(qx=coordinate, qy=coordinate)
def test_projector_invariants(s, qx, qy):
    x = np.array([qx, qy])
    p = project_one(s, x)
    d, dp = distance(s, x), norm(x - p)
    slack = 1e-12 * max(1.0, d)
    if s.convex:
        assert abs(dp - d) <= slack
    else:
        # candidates within TIE_TOL of the nearest are ties, broken
        # lexicographically, so the selection may be up to TIE_TOL farther
        assert d - slack <= dp <= d + TIE_TOL + slack
    assert norm(project_one(s, p) - p) <= 1e-12 * max(1.0, norm(p))
    assert any(np.array_equal(p, q) for q in project_all(s, x))


def _exact_rows(s) -> bool:
    """Row loops over the scalar kernels (and mins of them) are exact; the
    closed forms round their dot products differently."""
    return not s.closed_form and all(_exact_rows(m) for m in getattr(s, "members", ()))


@pytest.mark.parametrize("s", VARIANTS, ids=lambda s: type(s).__name__)
@settings(max_examples=30, deadline=None)
@given(rows=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6))
def test_batched_kernels_equal_scalar_row_by_row(s, rows):
    Y = as_points(rows, s.dim)
    dists, projs = s._distance_many(Y), s._project_many(Y)
    assert dists.shape == (len(Y),) and projs.shape == Y.shape
    for y, d, p in zip(Y, dists, projs):
        if _exact_rows(s):
            assert d == distance(s, y) and np.array_equal(p, project_one(s, y))
        else:  # a few ulps of the input's scale
            ulps = 16 * np.finfo(float).eps * (1.0 + norm(y))
            assert abs(d - distance(s, y)) <= ulps
            assert np.max(np.abs(p - project_one(s, y))) <= ulps


def reference_pattern_polish(x0, score, feasible, step, max_rounds=48, floor=1e-9):
    """The scalar pattern ascent that the lockstep ascent replaced, kept as
    the reference its one-row call must equal exactly."""
    from fixpoint.geometry import _polish_directions

    x = feasible(np.asarray(x0, dtype=float))
    if x is None:
        return -math.inf, np.asarray(x0, dtype=float)
    best = score(x)
    dirs = _polish_directions(x.size)
    for _ in range(max_rounds):
        improved = False
        for move in step * dirs:
            y = feasible(x + move)
            if y is None:
                continue
            sy = score(y)
            if sy > best + 1e-15:
                x, best = y, sy
                improved = True
        if not improved:
            step *= 0.5
            if step < floor:
                break
    return best, x


@pytest.mark.parametrize("s", VARIANTS, ids=lambda s: type(s).__name__)
def test_pattern_polish_equals_the_scalar_ascent(s):
    center, delta = np.array([0.4, 0.1]), 0.6
    probe = np.array([0.9, -0.3])

    def feasible(y):
        p = project_one(s, y)
        return p if norm(p - center) <= delta else None

    def score(y):  # bounded, with kinks, -inf near the probe
        d = norm(y - probe)
        return -math.inf if d < 0.05 else math.sin(3.0 * y[0]) * y[1] / d

    for x0 in sample_ball(center, delta, 8, seed=3) + [np.array([5.0, 5.0])]:
        best, x = pattern_polish(x0, score, feasible, step=delta / 4)
        ref_best, ref_x = reference_pattern_polish(x0, score, feasible, step=delta / 4)
        assert best == ref_best and np.array_equal(x, ref_x)


# ---------------------------------------------------------------------------
# input validation


@pytest.mark.parametrize(
    "x,dim,error,message",
    [
        ([np.nan, 1.0], None, ValueError, "non-finite coordinates"),
        ([np.inf, 1.0], None, ValueError, "non-finite coordinates"),
        ([1.0, -np.inf], None, ValueError, "non-finite coordinates"),
        (np.nan, None, ValueError, "non-finite coordinates"),
        (3.0, 2, DimensionMismatch, r"expected dimension 2, got 1"),
        ([[1.0, 2.0], [3.0, 4.0]], None, ValueError, r"expected a 1-d point, got shape \(2, 2\)"),
        ([1.0, 2.0], 3, DimensionMismatch, "expected dimension 3, got 2"),
    ],
)
def test_as_vector_rejects(x, dim, error, message):
    with pytest.raises(error, match=message):
        as_vector(x, dim)


def test_as_vector_accepts_overflowing_dot():
    # v.v overflows to inf, but every coordinate is finite
    with np.errstate(over="ignore"):
        assert np.array_equal(as_vector([1e200, 1e200], 2), [1e200, 1e200])
    assert np.array_equal(as_vector(3.0), [3.0])


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda v: Halfspace([0.0, 1.0], v), "halfspace offset must be finite"),
        (lambda v: Ball([0.0, 0.0], v), "ball radius must be finite"),
        (lambda v: Sphere([0.0, 0.0], v), "sphere radius must be finite"),
    ],
    ids=["halfspace_offset", "ball_radius", "sphere_radius"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_set_scalars_must_be_finite(make, message, value):
    with pytest.raises(ValueError, match=f"{message}, got {value}"):
        make(value)
