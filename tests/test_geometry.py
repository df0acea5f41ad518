import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixpoint
from fixpoint import geometry
from fixpoint.geometry import (
    _BLOCK_SLOTS,
    TIE_TOL,
    AffineSubspace,
    Ball,
    Box,
    DimensionMismatch,
    Epigraph,
    FinitePointSet,
    Halfspace,
    LinearPiece,
    ParabolicPiece,
    PiecewiseCurve,
    SetUnion,
    Sphere,
    WholeSpace,
    _ArcTable,
    as_points,
    as_target,
    as_vector,
    ascend,
    ball_point,
    ball_points,
    by_blocks,
    distance,
    dot_norms,
    nearest_candidates,
    norm,
    pattern_polish,
    project_all,
    project_one,
    stack,
    take,
)
from fixpoint.regularity import _Region
from fixpoint.seeding import _seeding_step, pcg64_states
from fixpoint.scenarios import (
    SAWTOOTH_DEPTH,
    build,
    line_through_origin,
    sawtooth_graph,
    set_from_json,
    set_to_json,
)


def sample_ball(center, radius, count, seed):
    """The first ``count`` points of one seed's stream on a ball (see geometry.ball_points)."""
    return list(ball_points(np.tile(center, (count, 1)), [radius] * count, [seed] * count, range(count)))


def _nearest(cands: list[np.ndarray], x: np.ndarray) -> list[np.ndarray]:
    """The candidates within TIE_TOL of the least distance to x, in order:
    the reference for the batched selection."""
    dists = np.linalg.norm(np.asarray(cands) - x, axis=1)
    dmin = float(np.min(dists))
    return [p for p, d in zip(cands, dists) if d <= dmin + TIE_TOL]


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
    w = [3.0 / 2**4, 0.05]
    _, best_pt = segment_sweep_distance(saw, w)
    assert norm(project_one(saw, w) - best_pt) <= 1e-5


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
    away = project_all(Sphere([0.0, 0.0], 1.0), [0.5, 0.0])
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
    probe = _Region(np.zeros(2), 4.0, on_set=s).sample(1000, [13])[0]
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
    # below the graph: compare against a sweep of the whole boundary, which
    # for f jumping from 0 down to -1 at t=0 includes the vertical segment
    ts = np.linspace(-3, 3, 10**6)
    jump_segment = np.stack([np.zeros(10**5), np.linspace(-1.0, 0.0, 10**5)], axis=1)
    cases = [
        (epi, np.where(ts < -1, -ts - 1, np.where(ts < 0, 0.0, ts * ts)), [],
         ([0.8, 0.1], [0.4, -0.5], [-2.0, -1.0], [2.0, 1.0])),
        (Epigraph([0.0], [[0, 0, 0], [0, 0, -1]]), np.where(ts < 0, 0.0, -1.0),
         [jump_segment], ([-0.3, -0.5], [-0.1, -0.95], [-0.5, -0.2], [0.4, -1.3], [-2.0, -3.0])),
    ]
    for s, fs, extra, queries in cases:
        boundary = np.concatenate([np.stack([ts, fs], axis=1), *extra])
        for x in queries:
            ref = float(np.min(np.linalg.norm(boundary - np.asarray(x), axis=1)))
            assert abs(distance(s, x) - ref) <= 1e-6


def test_epigraph_convexity_is_read_from_its_pieces():
    # the built-in's pieces join continuously with slopes -1, 0, 0, 0
    assert build("epigraph").A.convex
    assert Epigraph([0.5, 1.0], [[0, 1, 0], [1, 0, 0.25], [0, 2, -0.75]]).convex
    concave = Epigraph([], [[-1, 0, 0]])  # y >= -t^2
    assert not concave.convex
    assert len(project_all(concave, [0.0, -5.0])) == 2
    assert not Epigraph([0.0], [[0, 0, 0], [0, 0, -1]]).convex  # a downward jump
    assert not Epigraph([0.0], [[0, 1, 0], [0, -1, 0]]).convex  # continuous, slope falls
    # convexity is derived, so it is no field of the JSON form
    obj = set_to_json(Epigraph([0.0], [[0, 0, 0], [1, 0, 0]]))
    assert "convex" not in obj
    with pytest.raises(ValueError, match=re.escape("scenario key 'set.convex' is unknown")):
        set_from_json(dict(obj, convex=True))


def test_epigraph_jump_uses_vertical_segment():
    # f jumps from 0 down to -1 at t=0: boundary includes the segment
    epi = Epigraph([0.0], [[0, 0, 0], [0, 0, -1]])
    p = project_one(epi, [-0.3, -0.5])
    assert np.allclose(p, [0.0, -0.5])


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


def reference_ball_point(center, radius, seed, index):
    """The stream's definition, one generator per point: point ``index`` of
    ``seed`` is made of the first draws of ``default_rng([seed, index])``."""
    rng = np.random.default_rng([seed, index])
    u = rng.standard_normal(center.size)
    nu = norm(u)
    if nu == 0.0:
        u[0] = 1.0
        nu = 1.0
    r = radius * rng.random() ** (1.0 / center.size)
    return center + (r / nu) * u


#: seeds of one to four uint32 words, and one longer than SeedSequence's pool
STREAM_SEEDS = [0, 5, 900, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 1]


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_ball_points_are_the_per_index_generators_draws(d):
    rows = [(s, i) for s in STREAM_SEEDS for i in [*range(256), 2**31]]
    rng = np.random.default_rng(d)
    C, R = rng.uniform(-2, 2, (len(rows), d)), rng.uniform(0.1, 2, len(rows))
    got = ball_points(C, R, [s for s, _ in rows], [i for _, i in rows])
    want = np.array([reference_ball_point(c, r, s, i) for c, r, (s, i) in zip(C, R, rows)])
    assert got.tobytes() == want.tobytes()
    assert ball_point(C[3], R[3], *rows[3]).tobytes() == want[3].tobytes()


@pytest.mark.parametrize("count", [1, 96, 600])
def test_pcg64_states_are_the_seed_sequence_seeded_states(count):
    # seeds of several word counts in one call; 600 rows span three 256-row
    # chunks; past one row, the last seed is longer than the hash constants
    # precomputed at import (16 words with its index)
    rows = [(STREAM_SEEDS[k % len(STREAM_SEEDS)], k * 7919 % 2**33) for k in range(count)]
    if count > 1:
        rows[-1] = (2**600 + 5, 2**40)
    got = [{"state": st, "inc": inc} for st, inc in pcg64_states(*zip(*rows))]
    assert got == [np.random.PCG64(np.random.SeedSequence([s, i])).state["state"] for s, i in rows]


def test_seeding_step_is_the_128_bit_formula_where_every_carry_fires():
    # rows (s_hi, s_lo, i_hi, i_lo): every mix of all-zero and all-ones words, then random ones
    words = [list(w) for w in itertools.product([0, 2**64 - 1], repeat=4)]
    words += np.random.default_rng(7).integers(0, 2**64, (64, 4), np.uint64).tolist()
    got = _seeding_step(np.array(words, np.uint64)).tolist()
    for (s1, s0, i1, i0), (h, lo, inc_h, inc_lo) in zip(words, got, strict=True):
        inc = ((i1 << 64 | i0) << 1 | 1) % 2**128
        state = (((s1 << 64 | s0) + inc) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) % 2**128
        assert (h << 64 | lo, inc_h << 64 | inc_lo) == (state, inc)


def test_ball_points_reject_a_negative_seed_or_index():
    for seeds, indices in (([3, -1], [0, 0]), ([3, 3], [0, -2]), ([-(2**70)], [0])):
        with pytest.raises(ValueError, match="non-negative"):
            ball_points(np.zeros((len(seeds), 2)), [1.0] * len(seeds), seeds, indices)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily; the ball stream builds its generator on first use
    code = "import sys, fixpoint.cli; sys.exit('numpy.random' in sys.modules)"
    src = str(Path(fixpoint.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
    with pytest.raises(ValueError, match=r"^scenario key 'set' must not be null$"):
        set_from_json(None)
    ball = {"variant": "ball", "center": [0, 0], "radius": 1}
    for obj, at in (({"variant": "union", "members": [ball, None]}, "members[1]"),
                    ({"variant": "piecewise_curve", "pieces": [None, line]}, "pieces[0]")):
        with pytest.raises(ValueError, match=re.escape(f"scenario key 'set.{at}' must not be null")):
            set_from_json(obj)


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
    Epigraph([0.0], [[0, 0, 0], [0, 0, -1]]),
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


@pytest.mark.parametrize("s", VARIANTS, ids=lambda s: type(s).__name__)
@settings(max_examples=30, deadline=None)
@given(rows=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6))
def test_batched_kernels_equal_scalar_row_by_row(s, rows):
    Y = as_points(rows, s.dim)
    dists, projs = s._distance_many(Y), s._project_many(Y)
    assert dists.shape == (len(Y),) and projs.shape == Y.shape
    for y, d, p in zip(Y, dists, projs):
        assert d == distance(s, y)  # a distance has the one kernel
        assert p.tobytes() == project_one(s, y).tobytes()


@pytest.mark.parametrize("dim", [3, 8])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_finite_point_set_batched_distance_equals_scalar(dim, data):
    # probes live in any dimension (long traces use R^8): the batched
    # kernel must round exactly as the scalar one there too
    point = st.lists(coordinate, min_size=dim, max_size=dim)
    s = FinitePointSet(data.draw(st.lists(point, min_size=1, max_size=5)))
    Y = as_points(data.draw(st.lists(point, min_size=1, max_size=6)), dim)
    assert s._distance_many(Y).tolist() == [distance(s, y) for y in Y]


def _assert_batched_equals_one_row(s, Y):
    """Distances and projections of a batch equal the one-row calls bit for
    bit, signed zeros included, and each projection is the selection
    ``min(_nearest(candidates), key=tolist)`` among the row's candidates."""
    dists, projs, kernel = s._distance_many(Y), s._project_many(Y), s._row_kernel()
    for y, d, p in zip(Y, dists, projs):
        assert d == distance(s, y) and p.tobytes() == kernel(y).tobytes() == project_one(s, y).tobytes()
        C = s._candidates_many(y[None, :])[0]
        ref = min(_nearest(list(C[np.isfinite(C[:, 0])]), y), key=np.ndarray.tolist)
        assert p.tobytes() == ref.tobytes()


def reference_stationary_points(a, b, c, t0, t1, q) -> list[float]:
    """The scalar root loop that the batched stationary points replaced, one
    arc and one query at a time with np.roots, kept as their reference."""
    x, y = float(q[0]), float(q[1])
    if a == 0.0:
        t = (x + b * (y - c)) / (1.0 + b * b)
        return [t] if t0 < t < t1 else []
    out = []
    for r in np.roots([2 * a * a, 3 * a * b, b * b + 2 * a * (c - y) + 1.0, b * (c - y) - x]):
        if abs(r.imag) > 1e-8 * max(1.0, abs(r.real)):
            continue
        t = float(r.real)
        if not (t0 - 1e-12 < t < t1 + 1e-12):
            continue
        for _ in range(3):
            g = ((t - x) + (a * t * t + b * t + c - y) * (2 * a * t + b))
            dg = 1.0 + (2 * a * t + b) ** 2 + 2 * a * (a * t * t + b * t + c - y)
            if dg == 0.0:
                break
            t_new = t - g / dg
            if not (t0 - 1e-9 <= t_new <= t1 + 1e-9):
                break
            t = t_new
        out.append(min(max(t, t0), t1) if math.isfinite(t0) else t)
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_stationary_points_equal_the_scalar_root_loop(data):
    # a coefficient below 1e-100 can overflow the companion matrix, and then
    # the stacked call and np.roots in the scalar loop both raise
    coefficient = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                            st.floats(-3, 3).filter(lambda v: v == 0 or abs(v) > 1e-100))
    end = st.one_of(st.just(math.inf), st.floats(0, 3))
    arcs = []
    for _ in range(data.draw(st.integers(1, 3))):
        t0, t1 = -data.draw(end), data.draw(end)
        arcs.append([data.draw(coefficient) for _ in range(3)] + [t0, t1])
    Y = as_points(data.draw(st.lists(st.tuples(coefficient, coefficient), min_size=1, max_size=5)), 2)
    with np.errstate(all="ignore"):  # a tiny a overflows np.roots' division alike
        T = _ArcTable(np.array(arcs)).stationary_points(Y)
        for y, row in zip(Y, T):
            for arc, ts in zip(arcs, row):
                ref = reference_stationary_points(*arc, y)
                assert ts[~np.isnan(ts)].tobytes() == np.array(ref, dtype=float).tobytes()


def test_a_cubic_with_a_zero_constant_term_goes_through_np_roots(monkeypatch):
    # at x = 0 the stationarity cubic of t^2 has no constant term:
    # 2 t^3 + (1 - 2y) t = 0, with roots 0 and +-sqrt(y - 1/2)
    piece = ParabolicPiece(1, 0, 0, -2.0, 2.0)
    arcs = np.array([[1.0, 0.0, 0.0, -2.0, 2.0]])
    calls = []
    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda p: calls.append(p.tolist()) or roots(p))
    ts = _ArcTable(arcs).stationary_points(np.array([[0.0, 2.0], [0.3, 2.0]]))
    assert calls == [[2.0, 0.0, -3.0, -0.0]]  # only the row at x = 0
    assert sorted(ts[0, 0].tolist()) == pytest.approx([-math.sqrt(1.5), 0.0, math.sqrt(1.5)],
                                                      abs=1e-15)
    assert np.isfinite(ts[1, 0]).sum() == 3  # the same arc off x = 0: the stacked eigvals
    curve = PiecewiseCurve((piece,))
    # (0, 2) ties between the arc points at +-sqrt(1.5): the lexicographically least wins
    assert project_one(curve, [0.0, 2.0])[0] == pytest.approx(-math.sqrt(1.5), abs=1e-15)
    Y = as_points([[0.0, 2.0], [0.0, 0.3], [-0.0, 1.0], [0.3, 2.0], [0.0, -1.0]], 2)
    _assert_batched_equals_one_row(curve, Y)
    # the epigraph's t^2 arc queried at x = 0 below the graph
    epi = build("epigraph").A
    assert project_one(epi, [0.0, -0.5]).tolist() == [0.0, 0.0]
    _assert_batched_equals_one_row(epi, as_points([[0.0, -0.5], [-0.0, -2.0], [0.5, -0.5]], 2))


def reference_curve_candidates(curve, Y):
    """A curve's candidate enumeration as it was before its arc table was
    built once per curve: the segment feet, the arc table, the flat mask and
    the cubic coefficients rebuilt on every call, kept as its reference."""
    lin = [p for p in curve.pieces if isinstance(p, LinearPiece)]
    starts = np.array([p.start for p in lin]).reshape(-1, 2)
    d = np.array([p.end for p in lin]).reshape(-1, 2) - starts
    t = np.einsum("mij,ij->mi", Y[:, None, :] - starts, d) / np.maximum(np.einsum("ij,ij->i", d, d), 1e-300)
    np.clip(t, 0.0, 1.0, out=t)
    feet = starts + t[:, :, None] * d
    arcs = np.array([[p.a, p.b, p.c, p.t0, p.t1] for p in curve.pieces if isinstance(p, ParabolicPiece)])
    if not len(arcs):
        return feet
    ends = np.broadcast_to(arcs[:, 3:], (len(Y), len(arcs), 2))
    T = np.concatenate([_reference_stationary_points_many(arcs, Y), ends], axis=2)
    with np.errstate(invalid="ignore"):
        pts = np.stack([T, (arcs[:, None, 0] * T + arcs[:, None, 1]) * T + arcs[:, None, 2]], axis=-1)
    pts[~np.isfinite(T)] = np.inf
    return np.concatenate([feet, pts.reshape(len(Y), -1, 2)], axis=1)


def _reference_stationary_points_many(arcs, Y):
    x, y = Y[:, 0, None], Y[:, 1, None]
    a, b, c, t0, t1 = arcs.T
    out = np.full((len(Y), len(arcs), 3), np.nan)
    flat = a == 0.0
    t = (x + b[flat] * (y - c[flat])) / (1.0 + b[flat] * b[flat])
    out[:, flat, 0] = np.where((t0[flat] < t) & (t < t1[flat]), t, np.nan)
    if flat.all() or not len(Y):
        return out
    a, b, c, t0, t1 = (v[~flat] for v in (a, b, c, t0, t1))
    cy = c - y
    p = np.stack(np.broadcast_arrays(2 * a * a, 3 * a * b, b * b + 2 * a * cy + 1.0, b * cy - x),
                 axis=-1)
    roots = np.full(p.shape[:2] + (3,), np.nan, dtype=complex)
    whole = (p[..., 0] != 0.0) & (p[..., 3] != 0.0)
    M = np.zeros((int(whole.sum()), 3, 3))
    M[:, 0] = -p[whole][:, 1:] / p[whole][:, :1]
    M[:, 1, 0] = M[:, 2, 1] = 1.0
    if len(M):
        roots[whole] = np.linalg.eigvals(M)
    for i, j in zip(*np.nonzero(~whole)):
        r = np.roots(p[i, j])
        roots[i, j, :r.size] = r
    T = roots.real
    a, b, c, t0, t1 = (v[:, None] for v in (a, b, c, t0, t1))
    x, y = x[..., None], y[..., None]
    keep = ~(np.isnan(T) | (np.abs(roots.imag) > 1e-8 * np.maximum(1.0, np.abs(T))))
    keep &= (t0 - 1e-12 < T) & (T < t1 + 1e-12)
    step = keep.copy()
    with np.errstate(all="ignore"):
        for _ in range(3):
            u, v = 2 * a * T + b, a * T * T + b * T + c - y
            dg = 1.0 + np.float_power(u, 2.0) + 2 * a * v
            t_new = T - ((T - x) + v * u) / dg
            step &= (dg != 0.0) & (t0 - 1e-9 <= t_new) & (t_new <= t1 + 1e-9)
            T = np.where(step, t_new, T)
    lo = np.where(t0 > T, t0, T)
    T = np.where(np.isfinite(t0), np.where(t1 < lo, t1, lo), T)
    out[:, ~flat] = np.where(keep, T, np.nan)
    return out


_CURVES = {
    "arcs": PiecewiseCurve((ParabolicPiece(0.7, -0.3, 0.45, -1.0, 2.0), ParabolicPiece(0.0, 0.5, -1.0, 2.0, math.inf),
                            ParabolicPiece(-0.37, 0.1, 1.3, -math.inf, -1.0), ParabolicPiece(1.0, 0.0, 0.0, -2.0, 2.0))),
    "segments": sawtooth_graph(3).members[0],
    "both": PiecewiseCurve((LinearPiece([0, 0], [1, 1]), ParabolicPiece(0.55, -0.2, 1.1, 0, 2),
                            LinearPiece([-1, 0], [0, -0.0]), ParabolicPiece(0.0, -1.0, 0.0, -math.inf, 0.0))),
    "epigraph-with-a-jump": Epigraph([-1.0, 0.5], [[0.0, -1.0, 0.0], [1.3, 0.2, -0.1], [-0.6, 1.1, 2.0]])._boundary,
}


@pytest.mark.parametrize("kind", list(_CURVES))
def test_curve_candidates_equal_the_per_call_reference(kind):
    # the arc table built once per curve keeps the candidates of the
    # enumeration that rebuilt it on every call, bit for bit, for rows
    # above, below and at x = 0
    curve = _CURVES[kind]
    if kind == "epigraph-with-a-jump":
        assert any(isinstance(p, LinearPiece) for p in curve.pieces)
    rng = np.random.default_rng(11)
    Y = rng.uniform(-3.0, 3.0, (200, 2))
    Y[::4, 0] = 0.0
    Y[1::8, 0] = -0.0
    Y = np.concatenate([Y, [[0.0, 2.0], [0.0, -2.0], [-0.0, 0.0], [0.5, 5.0], [0.5, -5.0]]])
    for rows in (Y, Y[:1], Y[-3:-2]):
        want = reference_curve_candidates(curve, rows)
        got = curve._candidates_many(rows)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_exact_ties_are_broken_lexicographically_with_signed_zeros():
    # equidistant points: the least coordinate by coordinate, where -0.0
    # ties 0.0, and the first candidate on a full tie
    pts = FinitePointSet([[0.0, 1.0], [-0.0, -1.0], [1.0, 0.0]])
    assert np.signbit(project_one(pts, [0.0, 0.0])).tolist() == [True, True]
    for first, second in (([0.0, 1.0], [-0.0, 1.0]), ([-0.0, 1.0], [0.0, 1.0])):
        p = project_one(FinitePointSet([first, second]), [0.0, 0.0])
        assert p.tobytes() == np.array(first).tobytes()
        # the same tie between two union members, in member order
        u = SetUnion((FinitePointSet([first]), FinitePointSet([second])))
        assert project_one(u, [0.0, 0.0]).tobytes() == np.array(first).tobytes()
        _assert_batched_equals_one_row(u, as_points([[0.0, 0.0], [-0.0, 0.0], [0.0, 2.0]], 2))
    u = SetUnion((FinitePointSet([[1.0, -0.0]]), sawtooth_graph(3), FinitePointSet([[-1.0, 0.0]])))
    assert project_one(u, [0.0, 0.0]).tolist() == [0.0, 0.0]
    _assert_batched_equals_one_row(u, as_points([[0.0, 0.0], [0.0, 1.0], [-0.0, -1.0]], 2))
    _assert_batched_equals_one_row(pts, as_points([[0.0, 0.0], [-0.0, 0.0], [0.5, 0.5]], 2))


def test_batches_larger_than_a_block_equal_the_one_row_calls(monkeypatch):
    # a block holds _BLOCK_SLOTS // slots rows: with a smaller budget, the
    # rows span more than 3 blocks of the sawtooth's and of the epigraph's
    monkeypatch.setattr(geometry, "_BLOCK_SLOTS", 2**10)
    saw, epi = sawtooth_graph(SAWTOOTH_DEPTH), build("epigraph").A
    blocks = [geometry._BLOCK_SLOTS // s._slots for s in (saw, epi)]  # rows a block
    rows = 3 * max(blocks) + 5
    assert rows >= 3 * 64 + 5 and all(rows > 3 * n for n in blocks)
    rng = np.random.default_rng(2)
    Y = as_points(rng.uniform([-0.1, -0.3], [1.1, 0.3], size=(rows, 2)), 2)
    _assert_batched_equals_one_row(saw, Y)
    for s in (saw, epi):
        P = s._project_many(Y)
        assert all(any(np.array_equal(p, q) for q in project_all(s, y)) for y, p in zip(Y, P))


def _slot_cases() -> dict:
    """Sets of every variant, each with rows whose candidates fill all its slots."""
    rng = np.random.default_rng(3)
    Y = as_points(rng.uniform(-2.0, 2.0, (30, 2)), 2)
    flat = build("epigraph").A
    jump = Epigraph([-1.0, 0.5], [[0.0, -1.0, 0.0], [1.3, 0.2, -0.1], [-0.6, 1.1, 2.0]])
    segments = [sum(isinstance(p, LinearPiece) for p in e._boundary.pieces) for e in (flat, jump)]
    assert segments[0] == 0 < segments[1]
    below = as_points(np.c_[rng.uniform(-3.0, 3.0, 30), np.full(30, -5.0)], 2)
    probes = [FinitePointSet(rng.standard_normal((4, 2))) for _ in range(3)]
    gathered = take(stack(probes), rng.integers(0, 3, len(Y)))
    return {
        **{f"one-{type(s).__name__}": (s, Y) for s in VARIANTS if s.convex or isinstance(s, Sphere)},
        "finite": (FinitePointSet(rng.standard_normal((7, 2))), Y),
        "finite-stacked": (stack(probes), Y[:3]),  # a stack's one row per member
        "finite-gathered": (gathered, Y),
        **{f"curve-{k}": (c, Y) for k, c in _CURVES.items()},
        "epigraph": (flat, below),
        "epigraph-with-a-jump": (jump, below),
        "union-nested": (SetUnion((sawtooth_graph(3), SetUnion((jump, _CURVES["both"])),
                                   FinitePointSet([[0.0, 1.0], [1.0, 0.0]]))), below),
    }


SLOT_CASES = _slot_cases()


@pytest.mark.parametrize("name", list(SLOT_CASES))
def test_slots_are_the_width_of_the_candidates(name):
    # _slots sizes every block: a count below the true width would let a
    # block's (rows, slots, dim) temporaries outgrow the budget unseen
    s, Y = SLOT_CASES[name]
    assert s._slots == s._candidates_many(Y).shape[1]
    if name.startswith("one-"):  # a convex set's or a sphere's one candidate
        assert s._slots == 1
    if isinstance(s, Epigraph):  # a row on or above the graph is its own one candidate
        assert s._candidates_many(Y + [0.0, 20.0]).shape[1] == 1 <= s._slots


def reference_union_candidates(u, Y):
    """A union's candidates with its members pre-selected by the tie rule: a
    member whose least candidate norm lies beyond TIE_TOL of the least of all
    leaves its slots +inf (a nested union pre-selects its own members)."""
    Cs = [reference_union_candidates(m, Y) if isinstance(m, SetUnion) else m._candidates_many(Y)
          for m in u.members]
    least = np.stack([dot_norms(C - Y[:, None, :]).min(axis=1) for C in Cs], axis=1)
    near = least <= (least.min(axis=1) + TIE_TOL)[:, None]
    return np.concatenate([np.where(n[:, None, None], C, np.inf) for C, n in zip(Cs, near.T)], axis=1)


def _union_cases() -> dict:
    """Unions, each with random rows and rows built on exact ties: equidistant
    from two members, signed zeros, the sawtooth's tooth joints, and gaps just
    inside and just beyond TIE_TOL."""
    rng = np.random.default_rng(37)
    saw = sawtooth_graph(SAWTOOTH_DEPTH)
    joints = [[t, dy] for n in range(8) for t in (0.5**n, 3.0 * 0.25 * 0.5**n)
              for dy in (0.0, -0.0, 1e-3, -0.5**(n + 3))]
    saw_rows = np.r_[rng.uniform([-0.1, -0.3], [1.1, 0.3], (200, 2)), joints,
                     [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [1e-13, 0.0], [-1e-3, 1e-3]]]
    mixed = SetUnion((Ball([0, 0], 0.5), Box([1, 1], [2, 2]), FinitePointSet([[-3, 0]])))
    # (1.5, 0) is 1 from both the ball and the box, (-1.75, 0) 1.25 from the ball and the point
    mixed_rows = np.r_[rng.uniform(-4, 4, (200, 2)),
                       [[1.5, 0.0], [1.5, -0.0], [0.0, 1.5], [-1.75, 0.0], [-1.75, -0.0]]]
    # (1.5, 0) ties the curve's end (1, 0) with both points there; (-0.5, 0) is
    # 5e-10 farther from (-1 - 5e-10, 0) than from the origin, 2e-9 from (-1 - 2e-9, 0)
    ties = SetUnion((FinitePointSet([[1.0, -0.0]]), FinitePointSet([[-1.0 - 5e-10, 0.0]]), sawtooth_graph(3),
                     FinitePointSet([[1.0, 0.0], [-0.0, -1.0]]), FinitePointSet([[-1.0 - 2e-9, -0.0]])))
    tie_rows = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [1.5, 0.0], [1.5, -0.0], [-0.5, 0.0], [-0.5, -0.0],
                [0.0, -0.5], [-0.0, -0.5], [0.0, 2.0]]
    planes = SetUnion(tuple(AffineSubspace(np.zeros(6), np.eye(6)[[i, j]])
                            for i, j in itertools.combinations(range(6), 2)))
    plane_rows = np.r_[rng.standard_normal((200, 6)),
                       [[1, 1, 1, 0, 0, 0], [-1, 1, -0.0, 1, 0, 0], [0.0] * 6, [-0.0] * 6,
                        [2, -2, 1, 1, -1, 1], [3, 1, 1 + 5e-10, 0, 0, 0], [3, 1, 1 + 2e-9, 1, 0, 0]]]
    nested, below = SLOT_CASES["union-nested"]
    return {
        "sawtooth": (saw, saw_rows),
        "ball-box-points": (mixed, mixed_rows),
        "nested": (nested, np.r_[below, rng.uniform(-2.0, 2.0, (30, 2))]),
        "ties": (ties, np.array(tie_rows)),
        "coordinate-planes-r6": (planes, plane_rows),
    }


UNION_CASES = _union_cases()


@pytest.mark.parametrize("name", list(UNION_CASES))
def test_a_union_candidates_are_its_members_in_member_order(name):
    # no member's slots are emptied: the tie rule is applied once, by the selection
    u, Y = UNION_CASES[name]
    Y = as_points(Y, u.dim)
    want = np.concatenate([m._candidates_many(Y) for m in u.members], axis=1)
    got = u._candidates_many(Y)
    assert got.shape == want.shape == (len(Y), u._slots, u.dim) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(UNION_CASES))
def test_union_selection_equals_the_members_pre_selected(name, monkeypatch):
    # every reader of a union's candidates applies the tie rule itself, so
    # pre-selecting the members moves no bit of a projection, a candidate
    # list or an AP or DR image, the union as A or as B
    from fixpoint.engine import AlternatingProjections, DouglasRachford, candidates, residual_map_many

    u, Y = UNION_CASES[name]
    Y = as_points(Y, u.dim)
    other = line_through_origin(0.3) if u.dim == 2 else AffineSubspace(np.zeros(6), [np.ones(6) / math.sqrt(6)])
    ops = [cls(*pair) for cls in (AlternatingProjections, DouglasRachford) for pair in ((u, other), (other, u))]
    few = Y[::7]

    def outputs():
        return ([u._project_many(Y).tobytes(), nearest_candidates(u, Y).tobytes()]
                + [[p.tobytes() for p in project_all(u, y)] for y in Y]
                + [residual_map_many(op, Y).tobytes() for op in ops]
                + [[p.tobytes() for p in candidates(op, y)] for op in ops for y in few])

    got = outputs()
    monkeypatch.setattr(SetUnion, "_candidates_many", reference_union_candidates)
    assert outputs() == got


@pytest.mark.parametrize("slots", [1, 3, 43, 4096, 2**14, 2**15])
def test_by_blocks_holds_at_most_its_budget_of_slots(slots):
    # a spy kernel: blocks of max(1, _BLOCK_SLOTS // slots) rows, in order, the last one short
    seen, X = [], np.arange(40_000)
    out = by_blocks(len(X), lambda r: seen.append(len(X[r])) or X[r], slots)
    assert out.tolist() == X.tolist()
    rows = max(1, _BLOCK_SLOTS // slots)
    assert max(seen) == rows and all(n == rows for n in seen[:-1])
    # a batch within one block, or of no rows, is one call, whose array comes back itself
    for m in (0, 1, rows):
        made, calls = np.arange(m), []
        assert by_blocks(m, lambda r: calls.append(r) or made, slots) is made
        assert calls == [slice(0, rows)]


@pytest.mark.parametrize("name", ["sawtooth", "epigraph", "geometric_n3"])
def test_kernels_see_at_most_a_budget_of_slots_a_block(name, monkeypatch):
    # a spy on every candidate enumeration (and a finite set's read of its
    # points for a block): a call of a set's kernels or of the residual map
    # hands each at most _BLOCK_SLOTS // slots rows at once, slots being the
    # enumerating set's (a pair's: A's times B's)
    from fixpoint.engine import AlternatingProjections, residual_map_many

    monkeypatch.setattr(geometry, "_BLOCK_SLOTS", 2**9)
    sc = build(name)
    op = AlternatingProjections(sc.A, sc.B)
    width = lambda s: sc.A._slots * sc.B._slots if s is op else s._slots
    seen = []
    for cls in (SetUnion, PiecewiseCurve, Epigraph, FinitePointSet, AlternatingProjections):
        real = cls._candidates_many
        monkeypatch.setattr(cls, "_candidates_many",
                            lambda self, X, *rest, real=real: seen.append((self, len(X))) or real(self, X, *rest))
    points = FinitePointSet._points

    def spy_points(self, r):
        if r.stop is not None:  # a block's rows, not a whole batch's
            seen.append((self, r.stop - r.start))
        return points(self, r)

    monkeypatch.setattr(FinitePointSet, "_points", spy_points)
    X = np.array(sample_ball(sc.seed_region[0], 0.5, 1_000, seed=4))
    for call, top in ((sc.A._distance_many, None), (sc.A._project_many, sc.A),
                      (lambda X: residual_map_many(op, X), op)):
        seen.clear()
        call(X)
        assert seen and all(n <= max(1, geometry._BLOCK_SLOTS // width(s)) for s, n in seen)
        if top is not None:  # the rows span several blocks of the called kernel
            assert sum(s is top for s, _ in seen) > 1


def test_a_large_finite_point_set_works_in_blocks_of_its_budget():
    # 1,000 rows against 4,096 points: one call would hold tens of MB of
    # (rows, points, dim) temporaries; a block of 4 rows holds 256 KiB
    import tracemalloc

    rng = np.random.default_rng(12)
    s = FinitePointSet(rng.standard_normal((4096, 2)))
    Y = as_points(rng.standard_normal((1000, 2)), 2)
    for kernel in (s._project_many, s._distance_many):
        tracemalloc.start()
        try:
            kernel(Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, kernel.__name__


def random_convex_sets(rng, d: int, count: int, ranks) -> dict:
    """count seeded sets in R^d of each stackable convex variant, a variant's
    of one shape, and of an affine subspace for each basis rank in ranks:
    columns of an orthogonal matrix, transposed, so not C-contiguous."""
    return {
        "halfspace": [Halfspace(rng.standard_normal(d), rng.uniform(-1, 1)) for _ in range(count)],
        "ball": [Ball(rng.standard_normal(d), rng.uniform(0.1, 2.0)) for _ in range(count)],
        "box": [Box(lo, lo + rng.uniform(0.0, 2.0, d)) for lo in rng.standard_normal((count, d))],
        **{f"affine_k{k}": [AffineSubspace(rng.standard_normal(d),
                                           np.linalg.qr(rng.standard_normal((d, d)))[0][:, :k].T)
                            for _ in range(count)] for k in ranks},
    }


def _stackable_members() -> dict:
    """Three sets of one shape in R^3 for every variant a stack takes."""
    rng = np.random.default_rng(11)
    return {**random_convex_sets(rng, 3, 3, (0, 1, 2)),
            "probe": [FinitePointSet(rng.standard_normal((2, 3))) for _ in range(3)]}


STACKABLE = _stackable_members()


@pytest.mark.parametrize("name", list(STACKABLE))
def test_stacked_kernels_equal_each_members_kernels(name):
    # a stack gathered by owner computes each row as the row's member does
    # alone, bit for bit, whatever the other rows' members
    members = STACKABLE[name]
    rng = np.random.default_rng(5)
    Y = as_points(rng.uniform(-2, 2, (40, 3)), 3)
    Y[:6] = [m._project_many(Y[:2])[0] for m in members for _ in range(2)]  # rows on a member
    owner = np.r_[np.repeat(np.arange(3), 2), rng.integers(0, 3, 34)]
    s = stack(members)
    assert s.dim == 3 and take(s, None) is s
    gathered = take(s, owner)
    assert take(gathered, owner) is gathered  # a gathered copy is no stack
    for kernel in ("_project_many", "_distance_many"):
        got = getattr(gathered, kernel)(Y)
        for k, m in enumerate(members):
            assert np.array_equal(got[owner == k], getattr(m, kernel)(Y[owner == k])), (kernel, k)


def test_a_gathered_stack_spans_blocks_row_by_row(monkeypatch):
    # a gathered stack's points lead with a row axis: each block takes its own rows' points
    monkeypatch.setattr(geometry, "_BLOCK_SLOTS", 8)
    members = STACKABLE["probe"]
    rng = np.random.default_rng(8)
    Y, owner = as_points(rng.uniform(-2, 2, (50, 3)), 3), rng.integers(0, 3, 50)
    gathered = take(stack(members), owner)
    assert geometry._BLOCK_SLOTS // gathered._slots < len(Y)
    for kernel in ("_project_many", "_distance_many"):
        want = np.array([getattr(members[k], kernel)(y[None, :])[0] for k, y in zip(owner, Y)])
        assert getattr(gathered, kernel)(Y).tobytes() == want.tobytes(), kernel


def test_a_stack_takes_one_variant_and_one_set_is_itself():
    ball = Ball([0.0, 0.0], 1.0)
    assert stack([ball]) is ball and take(ball, np.zeros(3, int)) is ball
    saw = sawtooth_graph(2)
    assert stack([saw]) is saw
    for sets in ([ball, Box([0, 0], [1, 1])], [saw, saw]):
        with pytest.raises(ValueError, match="a stack takes sets of one variant among"):
            stack(sets)


def reference_closed_form(s, y):
    """A convex set's projection of the point y in scalar closed form, apart
    from the set's kernels: the reference every row of them equals."""
    if isinstance(s, Halfspace):
        excess = float(s.normal @ y) - s.offset
        return y.copy() if excess <= 0.0 else y - (excess / float(s.normal @ s.normal)) * s.normal
    if isinstance(s, AffineSubspace):
        if s.basis.size == 0:
            return s.point.copy()
        return s.point + s.basis.T.dot(s.basis.dot(y - s.point))
    if isinstance(s, Ball):
        u = y - s.center
        nu = norm(u)
        return y.copy() if nu <= s.radius else s.center + (s.radius / nu) * u
    if isinstance(s, Box):
        return np.minimum(np.maximum(y, s.lo), s.hi)
    assert isinstance(s, WholeSpace), s
    return y.copy()


def assert_rows_are_the_closed_forms(sets, Y, owner) -> None:
    """Row i of ``take(stack(sets), owner)``'s kernels, and of set owner[i]'s
    one-row calls (its batched kernel, its row kernel and project_one), is
    the reference closed form of set owner[i] at Y[i], byte for byte."""
    want = np.array([reference_closed_form(sets[k], y) for k, y in zip(owner, Y)]).reshape(Y.shape)
    s = take(stack(sets), owner)
    assert s._project_many(Y).tobytes() == want.tobytes()
    assert s._distance_many(Y).tolist() == [distance(sets[k], y) for k, y in zip(owner, Y)]
    kernels = [t._row_kernel() for t in sets]
    for k, y, w in zip(owner, Y, want):
        assert sets[k]._project_many(y[None, :]).tobytes() == w.tobytes()
        assert kernels[k](y).tobytes() == project_one(sets[k], y).tobytes() == w.tobytes()


CONVEX = {**random_convex_sets(np.random.default_rng(25), 5, 7, range(6)), "whole_space": [WholeSpace(5)]}


@pytest.mark.parametrize("name", list(CONVEX))
def test_convex_rows_are_the_same_at_every_batch_size(name):
    # a row's dot products are rounded on their own, so neither the batch
    # size (one row, around a block of 64, 1000) nor the other rows' sets
    # of a stack change its bits
    sets = CONVEX[name]
    rng = np.random.default_rng(26)
    Y = 3.0 * rng.standard_normal((1000, 5))
    owner = rng.integers(len(sets), size=len(Y))
    for n in (1, 63, 64, 65, 1000):
        assert_rows_are_the_closed_forms(sets, Y[:n], owner[:n])
        assert_rows_are_the_closed_forms(sets[:1], Y[:n], np.zeros(n, int))


def test_a_row_kernel_is_stored_on_no_set():
    # a row kernel binds its set's operands when fetched; the set keeps only its fields
    y = np.linspace(-2.0, 2.0, 5)
    for name, sets in CONVEX.items():
        fields = set(vars(sets[0]))
        sets[0]._row_kernel()(y)
        assert set(vars(sets[0])) == fields, name


def test_a_non_contiguous_basis_rounds_as_its_contiguous_copy():
    # a transposed slice of an orthogonal matrix is stored C-contiguous, so
    # its products round as those of its copy, scalar and batched
    rng = np.random.default_rng(3)
    for d in (3, 5, 8):
        Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        Y = 2.0 * rng.standard_normal((500, d))
        for k in range(1, d):
            point = rng.standard_normal(d)
            sliced, copied = AffineSubspace(point, Q[:, :k].T), AffineSubspace(point, Q[:, :k].T.copy())
            assert not Q[:, :k].T.flags.c_contiguous and sliced.basis.flags.c_contiguous
            assert sliced._project_many(Y).tobytes() == copied._project_many(Y).tobytes()
            assert all(project_one(sliced, y).tobytes() == project_one(copied, y).tobytes() for y in Y)
            assert_rows_are_the_closed_forms([sliced], Y, np.zeros(len(Y), int))


def test_the_affine_row_kernel_is_the_projection_bit_for_bit():
    # the iteration loop's kernel has point and the .dot of basis and of
    # basis.T bound once; each row it returns is point + B^T (B (x - point)),
    # spelled here as the one-point projection spelled it, and the batched row,
    # at every rank in R^1-R^8; the bound operands are stored on no set
    rng = np.random.default_rng(27)
    for d in range(1, 9):
        Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        Y = 2.0 * rng.standard_normal((16, d))
        Y[1, 0] = -0.0
        for k in range(d + 1):
            point = rng.standard_normal(d)
            point[0] = -0.0
            s = AffineSubspace(point, Q[:, :k].T)
            kernel = s._row_kernel()
            for y in Y:
                if k == 0:
                    want = s.point.copy()
                else:
                    want = s.point + s.basis.T.dot(s.basis.dot(y - s.point))
                got = kernel(y)
                assert got.tobytes() == project_one(s, y).tobytes() == want.tobytes(), (d, k)
                assert got is not s.point
            assert s._project_many(Y).tobytes() == np.array([kernel(y) for y in Y]).tobytes()
            assert set(vars(s)) == {"point", "basis"}
            stacked = stack([s, AffineSubspace(-point, Q[:, :k].T)])
            stacked._project_many(Y[:2])
            assert set(vars(stacked)) == {"point", "basis", "_members"}
            assert set(vars(take(stacked, np.array([0, 1])))) == {"point", "basis"}


@pytest.mark.parametrize("s", [
    PiecewiseCurve((ParabolicPiece(1.0, 0.0, 0.0, -1.0, 1.0),)),
    PiecewiseCurve((LinearPiece([-1, 0], [0, 1]), ParabolicPiece(0.5, 0, 1, 0, 2))),
    Epigraph([0.0], [[1, 0, 0], [0, 0, -1]]),
    SetUnion((PiecewiseCurve((ParabolicPiece(1.0, 0.0, 0.0, -1.0, 1.0),)), Ball([0, 0], 1.0))),
    SetUnion((Epigraph([0.0], [[1, 0, 0], [0, 0, -1]]), sawtooth_graph(3))),
], ids=["arc", "segment-and-arc", "epigraph", "union-with-arc", "union-with-epigraph"])
def test_an_empty_batch_has_empty_rows(s):
    Y = np.zeros((0, 2))
    assert s._distance_many(Y).shape == (0,) and s._project_many(Y).shape == (0, 2)


def test_as_target_reads_a_probe_as_its_finite_point_set():
    box = Box([0, 0], [1, 1])
    assert as_target(box, 2, "target") is box
    probe = as_target([np.array([3.0, 4.0]), [0.0, 1.0]], 2, "target")
    assert isinstance(probe, FinitePointSet) and distance(probe, [0, 0]) == 1.0
    with pytest.raises(ValueError, match="intersection probe is empty"):
        as_target([], 2, "intersection probe")
    with pytest.raises(DimensionMismatch, match="intersection probe has dimension 3, expected 2"):
        as_target([[0.0, 0.0, 0.0]], 2, "intersection probe")
    with pytest.raises(DimensionMismatch, match="target has dimension 2, expected 3"):
        as_target(box, 3, "target")
    with pytest.raises(ValueError, match="nonempty"):
        FinitePointSet([])  # an empty list once made a set of one 0-d point


def reference_pattern_polish(x0, score, feasible, step, max_rounds=48, floor=1e-9, moves=None):
    """The scalar pattern ascent that the lockstep ascent replaced, kept as
    the reference it must equal exactly.  ``moves`` collects the number of
    moves of each round."""
    from fixpoint.geometry import _polish_directions

    x = feasible(np.asarray(x0, dtype=float))
    if x is None:
        return -math.inf, np.asarray(x0, dtype=float)
    best = score(x)
    dirs = _polish_directions(x.size)
    for _ in range(max_rounds):
        improved = 0
        for move in step * dirs:
            y = feasible(x + move)
            if y is None:
                continue
            sy = score(y)
            if sy > best + 1e-15:
                x, best = y, sy
                improved += 1
        if moves is not None:
            moves.append(improved)
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


def batched_polish_maps(s, center, delta, probe):
    """Row-wise feasible and score maps for :func:`ascend`, and the same maps
    on one point (each a one-row call) for the scalar reference."""

    def feasible_many(Y, at):  # the same region for every start
        P = s._project_many(Y)
        return P, dot_norms(P - center) <= delta

    def score_many(Y, at):  # bounded, with kinks, -inf near the probe
        d = dot_norms(Y - probe)
        return np.where(d < 0.05, -math.inf, np.sin(3.0 * Y[:, 0]) * Y[:, 1] / d + Y[:, 2] ** 2)

    def feasible(y):
        P, ok = feasible_many(y[None, :], np.zeros(1, int))
        return P[0] if ok[0] else None

    def score(y):
        return float(score_many(y[None, :], np.zeros(1, int))[0])

    return feasible_many, score_many, feasible, score


R3_SETS = [Box([-1.0, -1.0, -1.0], [1.0, 0.5, 1.0]), Ball([0.3, 0.0, 0.0], 0.8),
           Halfspace([1.0, 1.0, -1.0], 0.2)]


@pytest.mark.parametrize("s", R3_SETS, ids=lambda s: type(s).__name__)
def test_ascend_in_r3_equals_the_scalar_ascent_row_by_row(s):
    # 18 directions; inadmissible starts ride along in the same batch
    center, delta = np.array([0.4, 0.1, -0.2]), 0.6
    feasible_many, score_many, feasible, score = batched_polish_maps(
        s, center, delta, np.array([0.9, -0.3, 0.1]))
    starts = sample_ball(center, delta, 8, seed=3)
    starts[2:2] = [np.array([5.0, 5.0, 5.0])]
    starts.append(np.array([-4.0, 0.0, 3.0]))
    best, X = ascend(np.array(starts), score_many, feasible_many, step=delta / 4)
    assert np.isinf(best[2]) and np.array_equal(X[2], starts[2])
    for i, x0 in enumerate(starts):
        ref_best, ref_x = reference_pattern_polish(x0, score, feasible, step=delta / 4)
        assert best[i] == ref_best and np.array_equal(X[i], ref_x)


def test_ascend_makes_one_call_per_pass():
    # a round costs at most 1 + (its moves) score calls, not one per direction
    center, delta = np.array([0.4, 0.1, -0.2]), 0.6
    feasible_many, score_many, feasible, score = batched_polish_maps(
        R3_SETS[0], center, delta, np.array([0.9, -0.3, 0.1]))
    starts = np.array(sample_ball(center, delta, 6, seed=4))
    moves = []  # per start, its moves in each round
    for x0 in starts:
        moves.append([])
        reference_pattern_polish(x0, score, feasible, step=delta / 4, moves=moves[-1])
    calls = []
    for rounds in range(13):
        count = [0]

        def counted(Y, at):
            count[0] += 1
            return score_many(Y, at)

        ascend(starts, counted, feasible_many, step=delta / 4, max_rounds=rounds)
        calls.append(count[0])
    assert calls[0] == 1
    for k in range(1, len(calls)):
        moved = sum(m[k - 1] for m in moves if len(m) >= k)
        assert calls[k] - calls[k - 1] <= 1 + moved
    assert sum(map(sum, moves)) > 0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("admits", ["every_trial", "some_trials"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ascend_equals_the_scalar_ascent_on_random_starts(d, admits, data):
    # a box far larger than the steps admits every trial (projecting those
    # that leave it), so each pass scores the trials as feasible returns them;
    # the unit ball admits only some
    starts = np.array(data.draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                                         min_size=1, max_size=6)))
    box, radius = (Box([-3.0] * d, [3.0] * d), math.inf) if admits == "every_trial" else (
        Box([-1.0] * d, [1.0] * d), 1.0)
    peak = np.linspace(0.3183, -0.2718, d)

    def feasible_many(Y, at):
        P = box._project_many(Y)
        return P, dot_norms(P) <= radius

    def score_many(Y, at):  # its one maximum is the kink at peak
        return 0.1 * np.sin(5.0 * Y[:, 0]) - dot_norms(Y - peak)

    def feasible(y):
        P, ok = feasible_many(y[None, :], np.zeros(1, int))
        return P[0] if ok[0] else None

    def score(y):
        return float(score_many(y[None, :], np.zeros(1, int))[0])

    best, X = ascend(starts, score_many, feasible_many, step=0.25, max_rounds=24)
    for i, x0 in enumerate(starts):
        ref_best, ref_x = reference_pattern_polish(x0, score, feasible, step=0.25, max_rounds=24)
        assert best[i] == ref_best and X[i].tobytes() == ref_x.tobytes()
    if admits == "every_trial":  # every start away from the peak moves
        far = dot_norms(starts - peak) > 1e-6
        assert (X != starts).any(axis=1)[far].all()


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


@pytest.mark.parametrize(
    "obj,field",
    [
        ({"variant": "box", "lo": [math.nan, 0], "hi": [1, 1]}, "set.lo"),
        ({"variant": "box", "lo": [0, 0], "hi": [math.inf, 1]}, "set.hi"),
        ({"variant": "halfspace", "normal": [math.inf, 0], "offset": 0}, "set.normal"),
        ({"variant": "ball", "center": [0, math.nan], "radius": 1}, "set.center"),
        ({"variant": "sphere", "center": [-math.inf, 0], "radius": 1}, "set.center"),
        ({"variant": "affine_subspace", "point": [math.nan, 0], "basis": [[1, 0]]}, "set.point"),
        ({"variant": "affine_subspace", "point": [0, 0], "basis": [[math.nan, 1]]}, "set.basis"),
        ({"variant": "piecewise_curve", "pieces": [
            {"kind": "linear", "start": [math.nan, 0], "end": [1, 1]}]}, "set.pieces[0].start"),
        ({"variant": "piecewise_curve", "pieces": [
            {"kind": "linear", "start": [0, 0], "end": [1, math.inf]}]}, "set.pieces[0].end"),
    ],
    ids=["box_lo", "box_hi", "halfspace_normal", "ball_center", "sphere_center",
         "affine_point", "affine_basis", "linear_start", "linear_end"],
)
def test_non_finite_set_vectors_name_their_field(obj, field):
    with pytest.raises(ValueError, match=re.escape(f"scenario key '{field}' must hold finite numbers")):
        set_from_json(obj)


def test_parabolic_piece_ends_are_numbers_or_infinite():
    piece = {"kind": "parabolic", "a": 1, "b": 0, "c": 0, "t0": -math.inf, "t1": math.inf}
    curve = set_from_json({"variant": "piecewise_curve", "pieces": [piece]})
    assert (curve.pieces[0].t0, curve.pieces[0].t1) == (-math.inf, math.inf)
    for key, value in (("t0", True), ("t1", "2"), ("t1", "inf"), ("t0", None), ("t1", [1])):
        error = "must not be null" if value is None else f"must be a number, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(f"scenario key 'set.pieces[0].{key}' {error}")):
            set_from_json({"variant": "piecewise_curve", "pieces": [{**piece, key: value}]})


@pytest.mark.parametrize("dim", [2.7, 2.0, -2, 0, "2", True, None])
def test_whole_space_dim_is_an_integer_of_at_least_one(dim):
    error = "must not be null" if dim is None else f"must be an integer >= 1, got {dim!r}"
    with pytest.raises(ValueError, match=re.escape(f"scenario key 'set.dim' {error}")):
        set_from_json({"variant": "whole_space", "dim": dim})
    assert set_from_json({"variant": "whole_space", "dim": 3}).dim == 3
