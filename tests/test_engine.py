import csv
import dataclasses
import inspect
import io
import itertools
import json
import math
import tempfile
import tracemalloc

import numpy as np
import pytest

from fixpoint import engine
from fixpoint.engine import (
    COLUMNS,
    OPERATORS,
    WRITE_BLOCK,
    AlternatingProjections,
    DouglasRachford,
    Trace,
    apply,
    candidates,
    residual_map,
    residual_map_many,
    run,
    settle_many,
    trace_to_json_text,
)
from fixpoint.geometry import (
    DEDUP_TOL,
    AffineSubspace,
    Ball,
    DimensionMismatch,
    FinitePointSet,
    Halfspace,
    LinearPiece,
    PiecewiseCurve,
    SetUnion,
    Sphere,
    ball_point,
    ball_points,
    distance,
    dot_norms,
    norm,
    project_all,
    project_one,
    sorted_unique,
    stack,
)
from fixpoint.floatrepr import templates
from fixpoint.scenarios import (
    FAMILIES,
    build,
    builtin_names,
    line_through_origin,
    random_convex_pair,
)


def sample_ball(center, radius, count, seed):
    """The first ``count`` points of one seed's stream on a ball (see geometry.ball_points)."""
    return list(ball_points(np.tile(center, (count, 1)), [radius] * count, [seed] * count, range(count)))


def bits(values) -> bytes:
    """values' bytes as a float64 array: equal only bit for bit, so -0.0 is not 0.0."""
    return np.array(values, dtype=float).tobytes()


def two_lines_op(angle=math.pi / 3):
    return AlternatingProjections(line_through_origin(0.0), line_through_origin(angle))


def test_apply_two_lines_contracts_by_cos_squared():
    op = two_lines_op()
    y = apply(op, [1.0, 0.0])
    assert y[1] == 0.0
    assert norm(y) == pytest.approx(math.cos(math.pi / 3) ** 2, abs=1e-12)


def test_apply_ball_pair():
    b = Ball([0, 0], 1.0)
    assert np.allclose(apply(AlternatingProjections(b, b), [2.0, 0.0]), [1, 0])


def test_apply_dr_same_halfspace():
    hs = Halfspace([0, 1], 0.0)
    assert np.allclose(apply(DouglasRachford(hs, hs), [1.0, 1.0]), [1, 0])


#: each entry point that checks its point, and what it is on a checked vector
ENTRY_POINTS = {
    "apply": (apply, lambda op, x: op._image_many(x[None, :])[0]),
    "candidates": (candidates, lambda op, x: list(op._candidates_many(x[None, :])[0, 0])),
    "residual_map": (residual_map, lambda op, x: residual_map_many(op, x[None, :])[0]),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("operator", [AlternatingProjections, DouglasRachford])
def test_apply_checks_its_point_once_and_then_is_the_method(operator, entry):
    # the operator methods take checked vectors; the module-level entry points check
    checked, method = ENTRY_POINTS[entry]
    sc = random_convex_pair(3, 3, "ball_ball")
    op = operator(sc.A, sc.B)
    with pytest.raises(DimensionMismatch, match="expected dimension 3, got 2"):
        checked(op, [1.0, 0.0])
    for bad in ([1.0, math.nan, 0.0], [math.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="non-finite"):
            checked(op, bad)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=3)
        assert np.array_equal(checked(op, x.tolist()), method(op, x))


def test_dr_matches_reflector_composition():
    rng = np.random.default_rng(2)
    for i in range(50):
        sc = random_convex_pair(i, 2, "ball_ball")
        op = DouglasRachford(sc.A, sc.B)
        x = rng.uniform(-2, 2, size=2)
        rb = 2 * project_one(sc.B, x) - x
        ra = 2 * project_one(sc.A, rb) - rb
        assert np.allclose(apply(op, x), 0.5 * (x + ra), atol=1e-12)


def test_run_orthogonal_lines_one_step():
    op = two_lines_op(math.pi / 2)
    tr = run(op, [0.0, 1.0])
    assert np.allclose(tr.limit, [0, 0])
    assert len(tr.x) <= 2


def test_run_two_lines_distance_decay():
    sc = build("two_lines_pi3")
    op = AlternatingProjections(sc.A, sc.B)
    tr = run(op, [1.0, 0.0], target=[np.zeros(2)])
    for k, d in enumerate(tr.dist_target):
        assert abs(d - 0.25**k) <= 1e-9


def test_run_seed_preprojected_onto_first_set():
    sc = build("two_lines_pi3")
    op = AlternatingProjections(sc.A, sc.B)
    tr = run(op, [0.7, 0.9])
    assert tr.dist_A[0] <= 1e-12
    assert tr.metadata["raw_seed"] == [0.7, 0.9]


def test_run_geometric_finite_sets_exact_steps():
    sc = build("geometric_n2")
    op = AlternatingProjections(sc.A, sc.B)
    tr = run(op, [1.0, 0.0])
    # solved at exactly iteration 2, with each stage the true nearest point
    assert len(tr.x) == 3
    assert np.allclose(tr.limit, [1.0 / 81.0, 0.0])
    pts_a, pts_b = sc.A.points, sc.B.points
    for xk, bk in zip(tr.x, tr.b):
        assert norm(bk - xk) == pytest.approx(
            float(np.min(np.linalg.norm(pts_b - xk, axis=1))), abs=0
        )
    steps = [norm(tr.z[k + 1] - tr.z[k]) for k in range(len(tr.z) - 1)]
    assert steps == pytest.approx([2 / 3, 2 / 9, 2 / 27, 2 / 81, 0.0], abs=1e-15)


def test_joining_sequence_interleaves():
    sc = build("two_lines_pi3")
    op = AlternatingProjections(sc.A, sc.B)
    tr = run(op, [1.0, 0.0])
    assert len(tr.z) == 2 * len(tr.x)
    for k in range(len(tr.x)):
        assert np.array_equal(tr.z[2 * k], tr.x[k])
        assert np.array_equal(tr.z[2 * k + 1], tr.b[k])


def test_joining_sequence_is_derived():
    assert "z" not in {f.name for f in dataclasses.fields(Trace)}
    assert "record_joining" not in inspect.signature(run).parameters
    sc = build("two_lines_pi3")
    tr = run(DouglasRachford(sc.A, sc.B), [1.0, 0.0], max_iter=5)
    assert tr.b.shape == tr.z.shape == (0, 2) and "z" not in json.loads(trace_to_json_text(tr))


@pytest.mark.parametrize("max_iter,stop", [(3, "max_iter"), (100_000, "fixed_point")])
def test_run_residual_is_the_step_from_each_iterate(max_iter, stop):
    # on max_iter one more step is taken, so every recorded x_k has its residual
    op = two_lines_op()
    tr = run(op, [1.0, 0.0], max_iter=max_iter)
    assert tr.stop_reason == stop
    assert len(tr.residual) == len(tr.x) == len(tr.b)
    for xk, rk in zip(tr.x, tr.residual):
        assert rk == norm(apply(op, xk) - xk)
    assert (tr.residual[-1] <= 1e-12) == (stop == "fixed_point")


def iterates(step, x, tol: float, max_iter: int):
    """The reference loop that applies an operator repeatedly: yields
    (x_{k+1}, ||x_{k+1} - x_k||) for x_{k+1} = step(x_k), at most max_iter
    times, and stops after the first step of length <= tol."""
    for _ in range(max_iter):
        x_next = step(x)
        r = norm(x_next - x)
        yield x_next, r
        if r <= tol:
            return
        x = x_next


def test_iterates_stops_after_the_first_short_step():
    steps = list(iterates(lambda x: x / 2, np.array([1.0]), 0.2, 10))
    assert [r for _, r in steps] == [0.5, 0.25, 0.125]
    assert [float(x[0]) for x, _ in steps] == [0.5, 0.25, 0.125]
    assert len(list(iterates(lambda x: x / 2, np.array([1.0]), 0.0, 4))) == 4


class CountingOperator:
    """An operator's batched image that records how many rows each call takes."""

    def __init__(self, op):
        self.op, self.sizes = op, []

    def _image_many(self, X, owner=None):
        self.sizes.append(len(X))
        return self.op._image_many(X, owner)


def settle_cases():
    pair = random_convex_pair(3, 3, "box_affine")
    two = build("two_lines_pi3")
    saw = build("sawtooth")
    return [
        (AlternatingProjections(two.A, two.B), sample_ball(two.base_point, 0.5, 6, seed=1)),
        (DouglasRachford(two.A, two.B), sample_ball(two.base_point, 0.5, 6, seed=2)),
        (AlternatingProjections(pair.A, pair.B), sample_ball(pair.base_point, 0.5, 6, seed=3)),
        (DouglasRachford(pair.A, pair.B), sample_ball(pair.base_point, 0.5, 6, seed=4)),
        (AlternatingProjections(saw.A, saw.B), sample_ball(saw.base_point, 0.5, 6, seed=5)),
    ]


@pytest.mark.parametrize("max_iter", [0, 1, 3, 400])
def test_settle_many_rows_equal_one_row_calls(max_iter):
    for op, pts in settle_cases():
        X = np.array(pts)
        # a settled row stops after its first step, the others run longer
        X[0] = settle_many(op, X[:1], 0.0, 400)[0]
        got = settle_many(op, X, 1e-13, max_iter)
        for i in range(len(X)):
            assert np.array_equal(got[i], settle_many(op, X[i : i + 1], 1e-13, max_iter)[0])
        if max_iter == 0:
            assert np.array_equal(got, X) and not np.shares_memory(got, X)


def test_settle_many_keeps_each_rows_cap_and_stop():
    op = two_lines_op()
    X = np.array([[1.0, 0.0], [0.0, 0.0]])  # the origin is fixed from the start
    counting = CountingOperator(op)
    got = settle_many(counting, X, 1e-13, 4)
    y = X[:1]
    for _ in range(4):
        y = op._image_many(y)
    assert np.array_equal(got[0], y[0])  # the last of max_iter
    assert np.array_equal(got[1], X[1])
    assert counting.sizes == [2, 1, 1, 1]  # the origin stops after one zero step


@pytest.mark.parametrize(
    "sc", [build("two_lines_pi3"), random_convex_pair(3, 3, "box_affine")], ids=lambda sc: sc.name
)
def test_settle_many_takes_the_scalar_iterations_steps(sc):
    op = AlternatingProjections(sc.A, sc.B)
    X = np.array([project_one(sc.A, p) for p in sample_ball(sc.base_point, 0.5, 16, seed=7)])
    steps = [len(list(iterates(lambda y: apply(op, y), x, 1e-13, 400))) for x in X]
    counting = CountingOperator(op)
    settle_many(counting, X, 1e-13, 400)
    # the k-th lockstep call takes the rows that make more than k steps
    assert counting.sizes == [sum(n > k for n in steps) for k in range(max(steps))]


def test_residual_map_fixed_point_zero():
    op = two_lines_op()
    assert residual_map(op, [0.0, 0.0]) == 0.0


def test_residual_map_two_lines_value():
    op = two_lines_op()
    assert residual_map(op, [1.0, 0.0]) == pytest.approx(math.sin(math.pi / 3) ** 2, abs=1e-12)


def test_residual_map_sawtooth_stuck_point():
    sc = build("sawtooth")
    op = AlternatingProjections(sc.A, sc.B)
    x = np.array([1.0 / 2**3, 0.0])
    assert residual_map(op, x) <= 1e-15
    # stuck: the point is not anywhere near the intersection
    assert norm(x) > 0.1


def test_residual_map_minimizes_over_candidates():
    # symmetric tie: the deterministic selection walks one branch while the
    # residual takes the infimum over the full candidate list
    A = FinitePointSet([[0.0, 1.0], [0.0, -1.0]])
    B = FinitePointSet([[2.0, 0.0]])
    op = AlternatingProjections(A, B)
    x = np.array([0.0, 1.0])
    cands = candidates(op, x)
    assert len(cands) == 2
    assert np.allclose(apply(op, x), [0.0, -1.0])  # lexicographically smallest
    assert norm(apply(op, x) - x) == 2.0
    assert residual_map(op, x) == 0.0  # the other branch returns to x


def reference_candidates(op, x):
    """The scalar loops over project_all that enumerated Tx before the
    batched candidate image, kept as the reference it must match to rounding."""
    out = []
    if isinstance(op, AlternatingProjections):
        for b in project_all(op.B, x):
            out.extend(project_all(op.A, b))
    else:
        for pb in project_all(op.B, x):
            rb = 2.0 * pb - x
            for pa in project_all(op.A, rb):
                out.append(0.5 * (x + 2.0 * pa - rb))
    return sorted_unique(out, DEDUP_TOL)


def reference_points(sc, count):
    """Seeded points about a built-in's base point and seed region, with the
    base point itself and the seed region's center (ties and fixed points)."""
    center, radius = sc.seed_region
    base = center if sc.base_point is None else sc.base_point
    return np.array([base, center, *sample_ball(base, 0.5, count, seed=11),
                     *sample_ball(center, radius, count, seed=12)])


def switch_points(op, X):
    """Consecutive rows of X bisected, all in lockstep, toward a jump of the
    selected image between them.  A stage's selection jumps where a candidate
    leaves its TIE_TOL band, so of each pair that ends at a jump the side
    still inside the band has several candidates."""
    P, Q = X[:-1].copy(), X[1:].copy()
    TP, TQ = op._image_many(P), op._image_many(Q)
    for _ in range(52):
        M = 0.5 * (P + Q)
        TM = op._image_many(M)
        left = dot_norms(TM - TP) >= dot_norms(TM - TQ)  # the larger change is in [P, M]
        Q[left], TQ[left] = M[left], TM[left]
        P[~left], TP[~left] = M[~left], TM[~left]
    jump = dot_norms(TP - TQ) > 1e-6
    return np.concatenate([P[jump], Q[jump]])


@pytest.mark.parametrize("operator", [AlternatingProjections, DouglasRachford])
@pytest.mark.parametrize("name", builtin_names())
def test_candidate_image_matches_the_scalar_reference(name, operator):
    # every stage rounds as project_all does, so AP's image is exact; the
    # reference spells DR's formula with another association, 16 eps off
    sc = build(name)
    op = operator(sc.A, sc.B)
    X = reference_points(sc, 150)
    S = switch_points(op, X)
    X = np.concatenate([X, S])
    ties = 0
    for x, r_x in zip(X, residual_map_many(op, X)):
        tol = 0.0 if operator is AlternatingProjections else 16 * np.finfo(float).eps * (1.0 + norm(x))
        want, got = reference_candidates(op, x), candidates(op, x)
        assert len(got) == len(want)
        for c in got:
            assert min(norm(c - w) for w in want) <= tol
        assert abs(r_x - min(norm(w - x) for w in want)) <= tol
        ties += len(got) > 1
    assert 2 * ties >= len(S)  # sawtooth and the geometric pairs reach hundreds of ties


@pytest.mark.parametrize("operator", [AlternatingProjections, DouglasRachford])
def test_the_closed_form_image_is_the_candidate_image(operator):
    # a pair of one-candidate sets takes residual_map_many's shortcut through
    # _image_many; its residuals are those of the candidate image, bit for bit:
    # convex pairs alone and as pairs of stacks gathered by owner, and pairs
    # of a sphere, a segment, a point, a one-member union and a ball
    rng = np.random.default_rng(9)
    cases = []
    for dim, family in itertools.product((2, 3, 8), ("halfspace_ball", "box_affine", "ball_ball")):
        pairs = [random_convex_pair(seed, dim, family) for seed in range(4)]
        owner = rng.integers(len(pairs), size=300)
        X = np.array([sc.base_point for sc in pairs])[owner] + rng.uniform(-1, 1, (300, dim))
        cases += [(operator(sc.A, sc.B), X, None) for sc in pairs]
        cases.append((operator(stack([sc.A for sc in pairs]), stack([sc.B for sc in pairs])), X, owner))
    ones = [Sphere([0.3, -0.2], 1.1), PiecewiseCurve((LinearPiece((-1.0, 0.5), (2.0, -0.5)),)),
            FinitePointSet([[0.4, 0.7]]), SetUnion((Sphere([-0.5, 0.1], 0.8),)), Ball([0.1, 0.2], 0.6)]
    X = np.vstack([[0.3, -0.2], rng.uniform(-2, 2, (500, 2))])  # the first sphere's center first
    cases += [(operator(A, B), X, None) for A, B in itertools.permutations(ones, 2)]
    for op, X, at in cases:
        assert op.A._slots * op.B._slots == 1
        C = op._candidates_many(X, at)
        want = dot_norms(C - X[:, None, None, :]).min(axis=(1, 2))
        assert residual_map_many(op, X, at).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["sawtooth", "epigraph"])
def test_residual_map_many_works_in_blocks_of_rows(name):
    # the candidate image of 20,000 rows at once would take tens of MB
    sc = build(name)
    X = np.array(sample_ball(sc.seed_region[0], 0.5, 20_000, seed=1))
    tracemalloc.start()
    try:
        residual_map_many(AlternatingProjections(sc.A, sc.B), X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_a_long_run_and_its_write_hold_the_trace_and_one_block(tmp_path):
    # DR on two lines at 0.04 rad in R^8 for 16,000 steps: the loop records
    # into float64 rows and the writer spills trace.json's lists, so neither
    # phase holds more than a bounded allowance beyond the returned trace's
    # arrays: 1.9 and 3.1 MB here, where lists of one ndarray per iterate and
    # trace.json's 5.4 MB of text held until the end took 5.2 and 8.2 MB
    A, B, seed = _lines(dim=8, angle=0.04)
    tracemalloc.start()
    try:
        tr = run(DouglasRachford(A, B), seed, max_iter=16_000)
        ran = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with open(tmp_path / "trace.csv", "w", encoding="utf-8") as fc, \
                open(tmp_path / "trace.json", "w", encoding="utf-8") as fj:
            tr.write(fc, fj)
        wrote = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.stop_reason == "max_iter" and tr.x.shape == (16_001, 8)
    arrays = sum(getattr(tr, name).nbytes for name in ("x", "b", *COLUMNS))
    assert ran - arrays <= 4 * 2**20 and wrote - arrays <= 4 * 2**20, (ran, wrote, arrays)


def test_dr_doubles_by_addition_bit_for_bit():
    # DR's stages write 2 p as p + p, which is 2.0 * p for every double:
    # signed zeros, subnormals, sums that overflow to inf, inf and nan
    rng = np.random.default_rng(34)
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
                        -2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308])

    def rows():
        bits = rng.integers(0, 2**64, (4000, 8), dtype=np.uint64).view(float)
        return np.where(rng.random((4000, 8)) < 0.3, rng.choice(special, (4000, 8)), bits)

    X, Y, P = rows(), rows(), rows()
    dr = DouglasRachford
    with np.errstate(all="ignore"):
        assert dr._enter(X, P).tobytes() == (2.0 * P - X).tobytes()
        assert dr._leave(X, Y, P).tobytes() == (0.5 * (X + (2.0 * P - Y))).tobytes()
        for x, y, p in zip(X[:200], Y, P):  # the loop's one-row arrays
            assert dr._enter(x, p).tobytes() == (2.0 * p - x).tobytes()
            assert dr._leave(x, y, p).tobytes() == (0.5 * (x + (2.0 * p - y))).tobytes()


def test_run_determinism_bit_identical():
    sc = build("sawtooth")
    op = AlternatingProjections(sc.A, sc.B)
    t1, t2 = (run(op, [0.09, 0.03], max_iter=500) for _ in range(2))
    assert all(np.array_equal(a, b) for a, b in zip(t1.x, t2.x))
    assert t1.to_csv_text() == t2.to_csv_text()


def test_step_ratio_nondecreasing_on_convex_traces():
    # joining-step ratios never decrease for projection pairs of convex sets
    cases = [build("two_lines_pi3")] + [random_convex_pair(i, 2, "box_affine") for i in range(8)]
    for sc in cases:
        op = AlternatingProjections(sc.A, sc.B)
        seed = sc.base_point + 0.1 * sc.boundary_ray if sc.boundary_ray is not None else [1.0, 0.0]
        tr = run(op, seed)
        steps = [norm(tr.z[k + 1] - tr.z[k]) for k in range(len(tr.z) - 1)]
        ratios = [
            steps[k + 1] / steps[k]
            for k in range(len(steps) - 1)
            if steps[k] >= 1e-6  # below this, rounding dominates the ratio
        ]
        for r0, r1 in zip(ratios, ratios[1:]):
            assert r1 >= r0 - 1e-9


def test_traces_fejer_monotone_for_convex_pairs():
    from fixpoint.diagnostics import check_fejer

    for i in range(6):
        sc = random_convex_pair(i, 2, "box_affine")
        op = AlternatingProjections(sc.A, sc.B)
        tr = run(op, sc.base_point + 0.1 * sc.boundary_ray)
        probe = [sc.base_point, tr.limit]
        assert check_fejer(tr.x, probe).holds


def test_trace_csv_header_and_shape():
    sc = build("two_lines_pi3")
    op = AlternatingProjections(sc.A, sc.B)
    tr = run(op, [1.0, 0.0], max_iter=10)
    buf = io.StringIO()
    tr.write(buf, io.StringIO())
    lines = buf.getvalue().splitlines()
    assert lines[0] == "k,x_0,x_1,b_0,b_1,dist_A,dist_B,dist_target,step_norm,residual"
    assert len(lines) == len(tr.x) + 1


def reference_json(tr):
    """trace.json as json.dumps wrote it from the trace's fields (z is not
    written: x and b determine it)."""
    out = {name: [[float(t) for t in p] for p in getattr(tr, name)] for name in ("x", "b")}
    for name in COLUMNS:
        out[name] = [float(t) for t in getattr(tr, name)]
    out["stop_reason"] = tr.stop_reason
    out["metadata"] = tr.metadata
    return json.dumps(out, sort_keys=True, indent=1)


def reference_csv(tr):
    """trace.csv as csv.writer wrote it, floats as repr(float(t))."""
    dim = tr.x[0].size
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["k", *(f"x_{i}" for i in range(dim)), *(f"b_{i}" for i in range(dim)), *COLUMNS])
    columns = [getattr(tr, name) for name in COLUMNS]
    for k, xk in enumerate(tr.x):
        bk = [repr(float(t)) for t in tr.b[k]] if k < len(tr.b) else [""] * dim
        w.writerow([str(k), *(repr(float(t)) for t in xk), *bk,
                    *(repr(float(col[k])) for col in columns)])
    return buf.getvalue()


def _non_finite_trace():
    sc = build("two_lines_pi3")
    tr = run(AlternatingProjections(sc.A, sc.B), [1.0, 0.0], max_iter=6)
    tr.x[2], tr.b[4] = np.array([math.nan, -math.inf]), np.array([math.inf, 0.0])
    tr.dist_A[0], tr.dist_B[1], tr.residual[3] = math.inf, -math.inf, math.nan
    tr.metadata["note"] = "inf nan"  # non-float strings keep their letters
    return tr


def _sequence_trace():
    sc = build("monotone_not_fejer")
    xs = [np.array(p, float) for p in sc.sequence]
    return Trace.record(xs, sc.A, sc.B, sc.intersection, np.full(len(xs), math.nan), "sequence",
                        {"operator": "none"})


#: floats where the repr layout changes: subnormals, the smallest normal,
#: signed zeros, both sides of the 1e-4/1e-5 and 1e16 switches to an exponent,
#: three-digit exponents, integral values and the largest finite float
LAYOUT_EDGES = [5e-324, -2.225073858507201e-308, 2.2250738585072014e-308, -0.0, 0.0,
                1e-05, -9.999999999999999e-05, 0.0001, 0.00012345678901234567, 1e16,
                -9999999999999998.0, 1.2345678901234567e16, 1e-300, -1e300, 123.0, 0.5,
                1.7976931348623157e308]


def _layout_edge_trace():
    """A trace in R^1 whose x, b and columns hold LAYOUT_EDGES, and whose
    columns also hold inf, -inf and nan."""
    n = len(LAYOUT_EDGES)
    edges = np.array(LAYOUT_EDGES)
    columns = [np.roll(edges, 3 * i) for i in range(len(COLUMNS))]
    columns[0][1], columns[1][2], columns[4][0] = math.inf, -math.inf, math.nan
    return Trace(edges.reshape(n, 1), -edges.reshape(n, 1),
                 **dict(zip(COLUMNS, columns)), stop_reason="max_iter",
                 metadata={"operator": "none"})


def block_rows(dim, b=True):
    """Rows per block of a trace in R^dim as Trace.write formats it: the
    floats of a row are x_k, b_k if the trace records b, and the columns."""
    return WRITE_BLOCK // ((2 if b else 1) * dim + len(COLUMNS))


def _dr_r8_trace():
    """A DR trace in R^8 (no b rows) of several blocks."""
    A, B, seed = _lines(angle=0.15)
    return run(DouglasRachford(A, B), seed)


def _non_finite_at_block_joint():
    """ap_long with nan, inf and -inf in x, b and the columns on both sides of
    its first block joint, where separators and spellings meet."""
    tr = TRACES["ap_long"]()
    k = block_rows(2)
    tr.dist_A[k - 1:k + 1] = [math.nan, math.inf]
    tr.dist_B[k - 1:k + 1] = [-math.inf, math.nan]
    tr.dist_target[k - 1:k + 1] = [math.inf, -math.inf]
    tr.step_norm[k - 1], tr.residual[k] = math.nan, -math.inf
    tr.x[k - 1], tr.b[k] = [math.inf, math.nan], [-math.inf, 1.0]
    return tr


TRACES = {
    "ap": lambda: run(two_lines_op(), [1.0, 0.3]),
    "dr": lambda: run(DouglasRachford(line_through_origin(0.0), line_through_origin(math.pi / 3)),
                      [1.0, 0.3]),
    "ap_long": lambda: run(two_lines_op(0.05),
                           [1.0, 0.2], residual_tol=1e-6),
    "sequence": _sequence_trace,
    "one_iterate": lambda: run(two_lines_op(), [0.0, 0.0]),
    "non_finite": _non_finite_trace,
    "layout_edges": _layout_edge_trace,
    "dr_r8_blocks": _dr_r8_trace,
    "non_finite_at_block_joint": _non_finite_at_block_joint,
}


@pytest.mark.parametrize("case", sorted(TRACES))
def test_writer_matches_json_and_csv_modules_byte_for_byte(case, tmp_path):
    tr = TRACES[case]()
    with open(tmp_path / "trace.csv", "w", encoding="utf-8") as fc, \
            open(tmp_path / "trace.json", "w", encoding="utf-8") as fj:
        tr.write(fc, fj)
    assert (tmp_path / "trace.csv").read_text(encoding="utf-8") == reference_csv(tr)
    assert (tmp_path / "trace.json").read_text(encoding="utf-8") == reference_json(tr)
    assert tr.to_csv_text() == reference_csv(tr)
    assert trace_to_json_text(tr) == reference_json(tr)


def test_one_iterate_and_dr_traces_have_the_expected_shape():
    assert len(TRACES["one_iterate"]().x) == 1
    dr = json.loads(trace_to_json_text(TRACES["dr"]()))
    assert dr["b"] == [] and "z" not in dr
    assert len(TRACES["ap_long"]().x) > 2048  # more than one block of rows
    dr_r8 = TRACES["dr_r8_blocks"]()
    assert len(dr_r8.x) > 3 * block_rows(8, b=False) and dr_r8.b.shape == (0, 8)
    assert "NaN" in trace_to_json_text(TRACES["sequence"]())


def test_the_writer_formats_only_the_floats_the_files_hold(monkeypatch):
    # a row formats x_k, b_k if the trace records it and four columns: a DR
    # trace (no b) n (d + 4) floats, an AP trace n (2d + 4), in one templates
    # call per block; step_norm is formatted only where its bits are not
    # residual's: a loop's last row (0.0 against the last step), every row of
    # a shipped sequence (its residual is nan)
    sizes = []

    def counting(a):
        sizes.append(a.size)
        return templates(a)

    monkeypatch.setattr(engine, "templates", counting)
    cases = (("dr_r8_blocks", False), ("dr", False), ("ap_long", True), ("ap", True),
             ("sequence", False))
    for case, b in cases:
        tr = TRACES[case]()
        (n, d), sizes[:] = tr.x.shape, []
        assert len(tr.b) == (n if b else 0)
        moved = n if case == "sequence" else 1
        assert tr.residual[-1] != 0.0 or case == "sequence"
        tr.write(io.StringIO(), io.StringIO())
        assert sum(sizes) == n * ((2 if b else 1) * d + len(COLUMNS) - 1) + moved, case
        assert len(sizes) == -(-n // block_rows(d, b)), case


@pytest.mark.parametrize("rows", [1, 5, -1])
def test_the_writer_rejects_a_b_that_stops_partway(rows):
    # b has a row per iterate or none; a b with fewer rows than x is refused
    # before either file is written
    tr = TRACES["ap"]()
    tr.b = tr.b[:rows]
    fc, fj = io.StringIO(), io.StringIO()
    with pytest.raises(ValueError, match=rf"b has {len(tr.b)} rows for {len(tr.x)} iterates"):
        tr.write(fc, fj)
    assert fc.getvalue() == fj.getvalue() == ""


def test_the_writer_closes_its_spills_when_a_file_fails(monkeypatch):
    # trace.json's lists are spilled to temporary files until the pass ends;
    # a failing write of either file, during the pass or during the copy,
    # leaves none of them open
    made = []

    class Counted(tempfile.SpooledTemporaryFile):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    class Failing(io.StringIO):
        def __init__(self, after):
            super().__init__()
            self.calls = after

        def write(self, text):
            self.calls -= 1
            if self.calls < 0:
                raise OSError("disk full")
            return super().write(text)

    monkeypatch.setattr(tempfile, "SpooledTemporaryFile", Counted)
    tr = TRACES["dr_r8_blocks"]()
    # a file fails at its write after the given count: the CSV's fourth
    # writes a block (the pass has more than three), the JSON's fourth opens a
    # list and its 31st copies a chunk of x's spill
    for csv_file, json_file in ((Failing(3), io.StringIO()), (io.StringIO(), Failing(3)),
                                (io.StringIO(), Failing(30))):
        made.clear()
        with pytest.raises(OSError, match="disk full"):
            tr.write(csv_file, json_file)
        assert len(made) == 6 and all(f.closed for f in made)  # x and the columns
        assert any(f._rolled for f in made)  # x went to a file on disk


def _lines(dim=8, angle=0.2, seed=8):
    """Two lines through the origin of R^dim at the given angle, and a seed on
    A: in R^8 each dot product sums eight terms, so a row rounded another way
    would show."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(dim)
    a /= norm(a)
    w = rng.standard_normal(dim)
    w -= (w @ a) * a
    w /= norm(w)
    b = math.cos(angle) * a + math.sin(angle) * w
    return AffineSubspace(np.zeros(dim), [a]), AffineSubspace(np.zeros(dim), [b]), a + 0.3 * w


@pytest.mark.parametrize("operator", [AlternatingProjections, DouglasRachford])
def test_post_pass_reuses_the_loop_step_and_the_distance_kernels(operator):
    # x, b and residual are the loop's own values, and the post-pass step_norm
    # rounds as the residual; each distance column is one batched kernel
    # call, of which distance() is the one-row case, so the columns equal
    # distance() bit for bit
    sc = build("two_lines_pi3")
    pairs = [(sc.A, sc.B, np.array([1.0, 0.3])), _lines()]
    for (A, B, seed), max_iter in itertools.product(pairs, (5, 100_000)):
        op = operator(A, B)
        probe = [np.zeros(A.dim), np.full(A.dim, 0.1)]
        tr = run(op, seed, max_iter=max_iter, target=probe)
        n = len(tr.x)
        assert tr.x.shape == (n, A.dim) and tr.x.dtype == float
        xs, x = [], project_one(A, seed)
        for _ in range(n):
            xs.append(x)
            x = apply(op, x)
        assert np.array_equal(tr.x, xs)
        assert tr.step_norm.tobytes() == bits([*tr.residual[:n - 1], 0.0])
        steps = [norm(tr.x[k + 1] - tr.x[k]) for k in range(n - 1)]
        assert tr.step_norm[:-1].tobytes() == bits(steps)
        assert tr.residual.tobytes() == bits([norm(apply(op, p) - p) for p in tr.x])
        assert tr.dist_target.tobytes() == bits([distance(FinitePointSet(probe), p) for p in tr.x])
        assert tr.dist_A.tobytes() == bits(A._distance_many(tr.x))
        assert tr.dist_A.tobytes() == bits([distance(A, p) for p in tr.x])
        if operator.records_b:
            assert np.array_equal(tr.b, [project_one(B, p) for p in tr.x])
            # B is affine: its distance is ||x_k - b_k||, b_k the row kernel's projection
            assert tr.dist_B.tobytes() == bits([norm(b - p) for p, b in zip(tr.x, tr.b)])
            assert tr.dist_B.tobytes() == bits([distance(B, p) for p in tr.x])
        else:
            assert tr.b.shape == (0, A.dim)
            assert tr.dist_B.tobytes() == bits(B._distance_many(tr.x))
            assert tr.dist_B.tobytes() == bits([distance(B, p) for p in tr.x])


@pytest.mark.parametrize("family", ["halfspace_ball", "ball_ball"])
def test_every_distance_column_is_its_sets_distance_bit_for_bit(family):
    # AP records b_k, but dist_B is B's distance kernel like the other
    # columns, not ||x_k - b_k||: a ball's and a halfspace's distances are
    # closed forms of their own, which that norm need not equal in the last bits
    for dim, seed in itertools.product((2, 3, 8), range(6)):
        sc = random_convex_pair(seed, dim, family)
        tr = run(AlternatingProjections(sc.A, sc.B), sc.base_point + 0.1 * sc.boundary_ray,
                 target=sc.intersection)
        assert len(tr.b) == len(tr.x)
        sets = {"dist_A": sc.A, "dist_B": sc.B, "dist_target": FinitePointSet(sc.intersection)}
        for name, S in sets.items():
            assert getattr(tr, name).tobytes() == bits([distance(S, x) for x in tr.x]), \
                (name, dim, seed)


def _iterating_pairs():
    """Every built-in that iterates (no shipped sequence), and one pair of each random family."""
    scs = [sc for sc in map(build, builtin_names()) if sc.sequence is None]
    assert {"two_lines_pi2", "two_lines_pi3", "sawtooth", "geometric_n1", "geometric_n2",
            "geometric_n3", "epigraph"} <= {sc.name for sc in scs}
    return scs + [random_convex_pair(2, 3, family) for family in FAMILIES]


@pytest.mark.parametrize("operator", list(OPERATORS.values()))
def test_the_loop_step_is_apply_bit_for_bit(operator):
    # run steps with each set's row kernel, apply with the batched
    # kernels' one row: every x_{k+1} is apply(x_k), and a run that records
    # b_k records each set's deterministic selection
    for sc, seed in itertools.product(_iterating_pairs(), range(4)):
        op = operator(sc.A, sc.B)
        tr = run(op, ball_point(*sc.seed_region, seed, 0), max_iter=2_000, lam=sc.lam)
        for k in range(len(tr.x) - 1):
            assert apply(op, tr.x[k]).tobytes() == tr.x[k + 1].tobytes(), (sc.name, k)
        last = apply(op, tr.x[-1]) - tr.x[-1]
        assert tr.residual[-1].tobytes() == bits([math.sqrt(last.dot(last))]), sc.name
        want = [project_one(sc.B, p) for p in tr.x] if operator.records_b else np.zeros((0, sc.A.dim))
        assert np.asarray(want).tobytes() == tr.b.tobytes(), sc.name


def test_ap_dist_B_is_the_distance_at_a_nonconvex_near_tie():
    # x_0 = 0 lies in B, but B's selected projection of it is the
    # lexicographically smaller point 1e-10 away: dist_B is the distance
    A = line_through_origin(0.0)
    B = FinitePointSet([[0.0, 0.0], [-1e-10, 0.0]])
    tr = run(AlternatingProjections(A, B), [0.0, 0.0])
    assert norm(tr.b[0] - tr.x[0]) == 1e-10
    assert tr.dist_B.tobytes() == bits([distance(B, p) for p in tr.x]) and tr.dist_B[0] == 0.0
    assert tr.solved_at == 0


def first_solved(tr):
    """solved_at as a generator over the columns: the first k with x_k in A and in B (to 1e-12)."""
    return next((k for k, (da, db) in enumerate(zip(tr.dist_A, tr.dist_B))
                 if da <= 1e-12 and db <= 1e-12), None)


def test_trace_columns_are_float64_arrays_and_solved_at_a_python_int():
    from fixpoint.cli import _sequence_trace

    for tr in (TRACES["ap"](), TRACES["dr"](), _sequence_trace(build("monotone_not_fejer"))):
        for name in COLUMNS:
            column = getattr(tr, name)
            assert isinstance(column, np.ndarray) and column.dtype == np.float64, name
            assert column.shape == (len(tr.x),), name
    sc = build("geometric_n2")
    solved = run(AlternatingProjections(sc.A, sc.B), [1.0, 0.0])
    at_start = run(two_lines_op(), [0.0, 0.0])  # x_0 = 0 lies in A and in B
    never = run(two_lines_op(), [1.0, 0.3], max_iter=5)
    for tr, want in ((solved, 2), (at_start, 0), (never, None)):
        assert tr.solved_at == first_solved(tr) == want
        assert type(tr.solved_at) is type(want)  # a Python int, which json serializes


def test_run_checks_its_stop_rule():
    op = two_lines_op()
    with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
        run(op, [0, 0], max_iter=0)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="residual_tol must be a finite number > 0"):
            run(op, [0, 0], residual_tol=tol)


@pytest.mark.parametrize("operator", [AlternatingProjections, DouglasRachford])
def test_probe_target_distances_round_as_the_probe_formula(operator):
    # the probe's distance formula before probes became finite point sets:
    # the least sqrt(d.d) over the listed points
    def reference(x, probe):
        return min(math.sqrt((x - p).dot(x - p)) for p in probe)

    A, B = line_through_origin(0.0), line_through_origin(0.3)
    probe = [np.array([0.0, 0.0]), np.array([0.3, -0.1]), np.array([1e-3, 2e-3])]
    tr = run(operator(A, B), [1.0, 0.3], target=probe)
    assert len(tr.x) > 100
    assert tr.dist_target.tobytes() == bits([reference(x, probe) for x in tr.x])


@pytest.mark.parametrize("probe, message", [
    ([[0.0, 0.0, 0.0]], "target has dimension 3, expected 2"),
    ([], "target is empty"),
])
def test_run_rejects_a_malformed_target_probe(probe, message):
    sc = build("two_lines_pi3")
    with pytest.raises(ValueError, match=message):
        run(AlternatingProjections(sc.A, sc.B), [1.0, 0.3], target=probe)


def test_run_respects_affine_constraint():
    from fixpoint.geometry import AffineSubspace

    s3, c3 = math.sin(math.pi / 3), math.cos(math.pi / 3)
    A = AffineSubspace([0, 0, 0], [[1.0, 0.0, 0.0]])
    B = AffineSubspace([0, 0, 0], [[c3, s3, 0.0]])
    lam = AffineSubspace([0, 0, 0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    op = AlternatingProjections(A, B)
    tr = run(op, [1.0, 0.3, 0.9], lam=lam)
    assert all(abs(p[2]) <= 1e-12 for p in tr.x)
    assert np.allclose(tr.limit, [0, 0, 0], atol=1e-9)
