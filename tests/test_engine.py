import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from fixpoint.engine import (
    COLUMNS,
    AlternatingProjections,
    DouglasRachford,
    IterationConfig,
    Trace,
    apply,
    candidates,
    iterates,
    residual_map,
    run,
    settle,
    trace_to_json_text,
)
from fixpoint.geometry import (
    Ball,
    FinitePointSet,
    Halfspace,
    distance,
    norm,
    project_one,
)
from fixpoint.scenarios import build, line_through_origin, random_convex_pair


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
    tr = run(op, IterationConfig(seed_point=[0.0, 1.0]))
    assert np.allclose(tr.limit, [0, 0])
    assert len(tr.x) <= 2


def test_run_two_lines_distance_decay():
    sc = build("two_lines_pi3")
    op = AlternatingProjections(sc.A, sc.B)
    tr = run(op, IterationConfig(seed_point=[1.0, 0.0], target=[np.zeros(2)]))
    for k, d in enumerate(tr.dist_target):
        assert abs(d - 0.25**k) <= 1e-9


def test_run_seed_preprojected_onto_first_set():
    sc = build("two_lines_pi3")
    op = AlternatingProjections(sc.A, sc.B)
    tr = run(op, IterationConfig(seed_point=[0.7, 0.9]))
    assert tr.dist_A[0] <= 1e-12
    assert tr.metadata["raw_seed"] == [0.7, 0.9]


def test_run_geometric_finite_sets_exact_steps():
    sc = build("geometric_n2")
    op = AlternatingProjections(sc.A, sc.B)
    tr = run(op, IterationConfig(seed_point=[1.0, 0.0]))
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
    tr = run(op, IterationConfig(seed_point=[1.0, 0.0]))
    assert len(tr.z) == 2 * len(tr.x)
    for k in range(len(tr.x)):
        assert np.array_equal(tr.z[2 * k], tr.x[k])
        assert np.array_equal(tr.z[2 * k + 1], tr.b[k])


def test_joining_sequence_is_derived():
    assert "z" not in {f.name for f in dataclasses.fields(Trace)}
    assert "record_joining" not in {f.name for f in dataclasses.fields(IterationConfig)}
    sc = build("two_lines_pi3")
    tr = run(DouglasRachford(sc.A, sc.B), IterationConfig(seed_point=[1.0, 0.0], max_iter=5))
    assert tr.b == [] and tr.z == [] and json.loads(trace_to_json_text(tr))["z"] == []


@pytest.mark.parametrize("max_iter,stop", [(3, "max_iter"), (100_000, "fixed_point")])
def test_run_residual_is_the_step_from_each_iterate(max_iter, stop):
    # on max_iter one more step is taken, so every recorded x_k has its residual
    op = two_lines_op()
    tr = run(op, IterationConfig(seed_point=[1.0, 0.0], max_iter=max_iter))
    assert tr.stop_reason == stop
    assert len(tr.residual) == len(tr.x) == len(tr.b)
    for xk, rk in zip(tr.x, tr.residual):
        assert rk == norm(apply(op, xk) - xk)
    assert (tr.residual[-1] <= 1e-12) == (stop == "fixed_point")


def test_iterates_stops_after_the_first_short_step():
    steps = list(iterates(lambda x: x / 2, np.array([1.0]), 0.2, 10))
    assert [r for _, r in steps] == [0.5, 0.25, 0.125]
    assert [float(x[0]) for x, _ in steps] == [0.5, 0.25, 0.125]
    assert len(list(iterates(lambda x: x / 2, np.array([1.0]), 0.0, 4))) == 4
    op = two_lines_op()
    y = np.array([1.0, 0.0])
    for _ in range(4):
        y = apply(op, y)
    assert np.array_equal(settle(op, np.array([1.0, 0.0]), 1e-13, 4), y)  # the last of max_iter
    assert np.array_equal(settle(op, y, 1e-13, 0), y)


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


def test_run_determinism_bit_identical():
    sc = build("sawtooth")
    op = AlternatingProjections(sc.A, sc.B)
    cfg = lambda: IterationConfig(seed_point=[0.09, 0.03], max_iter=500)
    t1, t2 = run(op, cfg()), run(op, cfg())
    assert all(np.array_equal(a, b) for a, b in zip(t1.x, t2.x))
    assert t1.to_csv_text() == t2.to_csv_text()


def test_step_ratio_nondecreasing_on_convex_traces():
    # joining-step ratios never decrease for projection pairs of convex sets
    cases = [build("two_lines_pi3")] + [random_convex_pair(i, 2, "box_affine") for i in range(8)]
    for sc in cases:
        op = AlternatingProjections(sc.A, sc.B)
        seed = sc.base_point + 0.1 * sc.boundary_ray if sc.boundary_ray is not None else [1.0, 0.0]
        tr = run(op, IterationConfig(seed_point=seed))
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
        tr = run(op, IterationConfig(seed_point=sc.base_point + 0.1 * sc.boundary_ray))
        probe = [sc.base_point, tr.limit]
        assert check_fejer(tr.x, probe).holds


def test_trace_csv_header_and_shape():
    sc = build("two_lines_pi3")
    op = AlternatingProjections(sc.A, sc.B)
    tr = run(op, IterationConfig(seed_point=[1.0, 0.0], max_iter=10))
    buf = io.StringIO()
    tr.write(csv_file=buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "k,x_0,x_1,b_0,b_1,dist_A,dist_B,dist_target,step_norm,residual"
    assert len(lines) == len(tr.x) + 1


def reference_json(tr):
    """trace.json as json.dumps wrote it from the trace's fields."""
    out = {name: [[float(t) for t in p] for p in getattr(tr, name)] for name in ("x", "b", "z")}
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
    tr = run(AlternatingProjections(sc.A, sc.B), IterationConfig(seed_point=[1.0, 0.0], max_iter=6))
    tr.x[2] = np.array([math.nan, -math.inf])
    tr.b = tr.b[:4]  # rows past b_3 have blank b columns
    tr.dist_A[0], tr.dist_B[1], tr.residual[3] = math.inf, -math.inf, math.nan
    tr.metadata["note"] = "inf nan"  # non-float strings keep their letters
    return tr


def _sequence_trace():
    sc = build("monotone_not_fejer")
    xs = [np.array(p, float) for p in sc.sequence]
    return Trace.record(xs, sc.A, sc.B, sc.intersection, [math.nan] * len(xs), "sequence",
                        {"operator": "none"})


TRACES = {
    "ap": lambda: run(two_lines_op(), IterationConfig(seed_point=[1.0, 0.3])),
    "dr": lambda: run(DouglasRachford(line_through_origin(0.0), line_through_origin(math.pi / 3)),
                      IterationConfig(seed_point=[1.0, 0.3])),
    "ap_long": lambda: run(two_lines_op(0.05),
                           IterationConfig(seed_point=[1.0, 0.2], residual_tol=1e-6)),
    "sequence": _sequence_trace,
    "one_iterate": lambda: run(two_lines_op(), IterationConfig(seed_point=[0.0, 0.0])),
    "non_finite": _non_finite_trace,
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
    assert dr["b"] == [] and dr["z"] == []
    assert len(TRACES["ap_long"]().x) > 2048  # more than one block of rows
    assert "NaN" in trace_to_json_text(TRACES["sequence"]())


@pytest.mark.parametrize("operator", [AlternatingProjections, DouglasRachford])
def test_post_pass_reuses_the_loop_step_and_the_distance_kernels(operator):
    sc = build("two_lines_pi3")
    for max_iter in (5, 100_000):
        tr = run(operator(sc.A, sc.B), IterationConfig(seed_point=[1.0, 0.3], max_iter=max_iter))
        n = len(tr.x)
        assert tr.step_norm[:-1] == tr.residual[:n - 1] and tr.step_norm[-1] == 0.0
        assert tr.step_norm[:-1] == [norm(tr.x[k + 1] - tr.x[k]) for k in range(n - 1)]
        assert tr.dist_A == [distance(sc.A, p) for p in tr.x]
        assert tr.dist_B == [distance(sc.B, p) for p in tr.x]


def test_iteration_config_validation():
    with pytest.raises(ValueError):
        IterationConfig(seed_point=[0, 0], max_iter=0)
    with pytest.raises(ValueError):
        IterationConfig(seed_point=[0, 0], residual_tol=0.0)


def test_run_respects_affine_constraint():
    from fixpoint.geometry import AffineSubspace

    s3, c3 = math.sin(math.pi / 3), math.cos(math.pi / 3)
    A = AffineSubspace([0, 0, 0], [[1.0, 0.0, 0.0]])
    B = AffineSubspace([0, 0, 0], [[c3, s3, 0.0]])
    lam = AffineSubspace([0, 0, 0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    op = AlternatingProjections(A, B)
    tr = run(op, IterationConfig(seed_point=[1.0, 0.3, 0.9], lam=lam))
    assert all(abs(p[2]) <= 1e-12 for p in tr.x)
    assert np.allclose(tr.limit, [0, 0, 0], atol=1e-9)
