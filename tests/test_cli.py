import json
import math
import os
import shutil
from xml.etree import ElementTree

import numpy as np
import pytest

from fixpoint.cli import _plot_svg, execute_run, main
from fixpoint.engine import AlternatingProjections, IterationConfig, run
from fixpoint.geometry import distance, norm
from fixpoint.scenarios import (
    build,
    builtin_names,
    line_through_origin,
    scenario_from_json,
    scenario_to_json,
    set_from_json,
)


def test_run_two_lines(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "two_lines_pi3", "--out", str(out), "--seed", "3", "--samples", "64"])
    assert code == 0
    for name in ("trace.csv", "trace.json", "report.json", "plot.svg"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["ok"]
    assert abs(report["diagnostics"]["q_rate"] - 0.25) <= 1e-6
    assert abs(report["estimates"]["sr_prime"] - 2 / math.sqrt(3)) <= 1e-3
    svg = (out / "plot.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_run_sawtooth_stuck(tmp_path):
    out = tmp_path / "saw"
    code = main(["run", "sawtooth", "--out", str(out), "--seed", "1", "--max-iter", "500"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["diagnostics"]["stop_reason"] == "fixed_point"
    lim = np.array(report["diagnostics"]["limit"])
    # stuck at a tooth peak or landed in the intersection
    n = round(-math.log2(lim[0])) if lim[0] > 0 else None
    assert (n is not None and lim[0] == 0.5**n and lim[1] == 0.0) or np.allclose(lim, 0.0)


def test_run_sequence_scenario(tmp_path):
    out = tmp_path / "seq"
    code = main(["run", "monotone_not_fejer", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    checks = {c["name"]: c for c in report["expectation_checks"]}
    assert checks["linear_c"]["measured"] == 0.5
    assert checks["fejer_holds"]["measured"] is False


def test_run_user_scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json(build("geometric_n2"))))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    checks = {c["name"]: c for c in report["expectation_checks"]}
    assert checks["iterations_to_solve"]["measured"] == 2


def test_plot_title_escapes_the_scenario_name(tmp_path):
    obj = scenario_to_json(build("two_lines_pi3"))
    obj["name"] = "pair <A & B>"
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--samples", "16"]) == 0
    texts = [t.text for t in ElementTree.parse(out / "plot.svg").getroot()]
    assert "pair <A & B>: distance to target" in texts


def reference_plot_points(ys):
    """plot.svg's polyline as drawn from every value: log10 (floored at 1e-16)
    against the index, scaled to the 540 x 300 px plot area."""
    w, h, pad, floor = 640, 400, 50, 1e-16
    logs = [math.log10(max(float(y), floor)) if math.isfinite(y) else math.log10(floor) for y in ys]
    lo, hi = min(logs), max(logs)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    n = max(len(logs) - 1, 1)
    return [f"{pad + (w - 2 * pad) * k / n:.2f},{h - pad - (h - 2 * pad) * (v - lo) / (hi - lo):.2f}"
            for k, v in enumerate(logs)]


def polyline(svg: str) -> list[str]:
    line = next(e for e in ElementTree.fromstring(svg) if e.tag.endswith("polyline"))
    return line.get("points").split()


def test_plot_of_every_builtin_draws_every_value(tmp_path):
    # built-in traces are shorter than the plot is wide: no point is dropped
    main(["run", "all", "--out", str(tmp_path), "--samples", "16"])
    for name in builtin_names():
        ys = json.loads((tmp_path / name / "trace.json").read_text())["dist_target"]
        assert len(ys) <= 540
        assert polyline((tmp_path / name / "plot.svg").read_text()) == reference_plot_points(ys)


def test_a_long_plot_draws_each_pixel_columns_lowest_and_highest_value():
    A, B = line_through_origin(0.0), line_through_origin(0.05)
    ys = run(AlternatingProjections(A, B), IterationConfig(seed_point=[1.0, 0.2], residual_tol=1e-6,
                                                           target=[[0.0, 0.0]])).dist_target
    ys[100:103] = [math.nan, math.inf, 0.0]  # drawn at the floor, so the lowest of their column
    n = len(ys) - 1
    assert n > 2048
    svg = _plot_svg(ys, "t")
    assert svg == _plot_svg(ys, "t")
    # each drawn point is the full plot's point of one iterate, in order
    where = {p: k for k, p in enumerate(reference_plot_points(ys))}
    ks = [where[p] for p in polyline(svg)]
    assert ks == sorted(set(ks)) and ks[0] == 0 and ks[-1] == n
    values = np.nan_to_num(np.maximum(ys, 1e-16), nan=1e-16, posinf=1e-16)
    column = 540 * np.arange(n + 1) // n
    for c in range(541):
        assert len([k for k in ks[1:-1] if column[k] == c]) <= 2
        extremes = {values[column == c].min(), values[column == c].max()}
        assert extremes <= {values[k] for k in ks if column[k] == c}
    assert len(ks) <= 2 * 541 + 2


def test_run_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


def test_run_unknown_scenario(capsys):
    assert main(["run", "no_such_thing", "--out", "/tmp/x"]) == 1


def test_run_expectation_mismatch_exit_2(tmp_path):
    obj = scenario_to_json(build("geometric_n2"))
    obj["expected"]["iterations_to_solve"]["value"] = 7  # wrong on purpose
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(obj))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


def test_env_seed_override(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    os.environ["FIXPOINT_SEED"] = "77"
    try:
        main(["run", "two_lines_pi3", "--out", str(out_a), "--seed", "3", "--samples", "32"])
    finally:
        del os.environ["FIXPOINT_SEED"]
    report = json.loads((out_a / "report.json").read_text())
    assert report["config"]["seed"] == 77


def test_estimate_subcommand(capsys):
    assert main(["estimate", "sr_prime", "two_lines_pi3", "--samples", "64"]) == 0
    est = json.loads(capsys.readouterr().out)
    assert abs(est["value"] - 2 / math.sqrt(3)) <= 1e-3
    assert est["certificate"]["count"] == 64


def test_estimate_unknown_constant(capsys):
    assert main(["estimate", "curvature", "two_lines_pi3"]) == 1


def test_verify_unknown_suite(capsys):
    assert main(["verify", "everything"]) == 1


def test_dr_operator_flag(tmp_path):
    out = tmp_path / "dr"
    code = main(["run", "two_lines_pi2", "--out", str(out), "--operator", "dr", "--max-iter", "200"])
    assert code in (0, 2)  # expectations target the default operator
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["operator"] == "dr"


def _as_builtin(obj: dict, name: str) -> dict:
    """Replace obj by the JSON form of a built-in; returns its expected map."""
    obj.clear()
    obj.update(scenario_to_json(build(name)))
    return obj["expected"]


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda o: o.update(A={"variant": "halfspace", "normal": [0, 1], "offset": math.nan}),
         "scenario key 'A.offset' must be finite, got nan"),
        (lambda o: o.update(B={"variant": "ball", "center": [0, 0], "radius": math.nan}),
         "scenario key 'B.radius' must be finite, got nan"),
        (lambda o: o.update(B={"variant": "sphere", "center": [0, 0], "radius": math.inf}),
         "scenario key 'B.radius' must be finite, got inf"),
        (lambda o: o.update(seed_region=[0.0, 0.0]),
         "scenario key 'seed_region' must be an object"),
        (lambda o: o["seed_region"].pop("center"),
         "scenario is missing required key 'seed_region.center'"),
        (lambda o: o["seed_region"].pop("radius"),
         "scenario is missing required key 'seed_region.radius'"),
        (lambda o: o["seed_region"].update(radius="wide"),
         "scenario key 'seed_region.radius' must be a number, got 'wide'"),
        (lambda o: o["seed_region"].update(radius=-1),
         "scenario key 'seed_region.radius' must be >= 0, got -1.0"),
        (lambda o: o["expected"]["q_rate"].pop("value"),
         "scenario is missing required key 'expected.q_rate.value'"),
        (lambda o: o["expected"].update(q_rte=o["expected"].pop("q_rate")),
         "scenario key 'expected.q_rte' is not one that run checks"),
        (lambda o: o["expected"]["q_rate"].update(tol="x"),
         "scenario key 'expected.q_rate.tol' must be a number, got 'x'"),
        (lambda o: o["expected"]["q_rate"].update(tol=math.nan),
         "scenario key 'expected.q_rate.tol' must be finite, got nan"),
        (lambda o: o["expected"]["q_rate"].update(tol=-1e-6),
         "scenario key 'expected.q_rate.tol' must be >= 0, got -1e-06"),
        (lambda o: o["expected"]["sr_prime"].update(value="x"),
         "scenario key 'expected.sr_prime.value' must be a number, got 'x'"),
        (lambda o: o.update(scenario_to_json(build("sawtooth")), expected={"sr": {"value": 2.0}}),
         "scenario key 'expected.sr' needs a convex pair"),
        (lambda o: o.update(intersection={"variant": "halfspace", "normal": [0, 1], "offset": 0},
                            expected={"fejer_holds": {"value": True}}),
         "scenario key 'expected.fejer_holds' needs a fejer_witness or an intersection probe"),
        (lambda o: o.update(expected={"global_ratio_diverges": {"value": True}}),
         "scenario key 'expected.global_ratio_diverges' needs an intersection set in the plane"),
        (lambda o: (o.pop("intersection"), o.update(expected={"stuck_points": {"value": [[0, 0]]}})),
         "scenario key 'expected.stuck_points' needs an intersection"),
        (lambda o: o.update(sequence=[]),
         "scenario key 'sequence' must be a non-empty list of points, got []"),
        (lambda o: o.update(intersection=[]),
         "scenario key 'intersection' must be a non-empty list of points, got []"),
        (lambda o: o.update(**{"lambda": {"variant": "ball", "center": [0, 0], "radius": 1}}),
         "scenario key 'lambda' must be an affine_subspace or whole_space, got ball"),
        (lambda o: o["A"].update(point={"a": 1}),
         "scenario key 'A.point' must be a non-empty list of numbers, got {'a': 1}"),
        (lambda o: o["B"].update(variant=[1]),
         "scenario key 'B.variant' must be one of halfspace, affine_subspace, ball, box, sphere, "
         "finite_point_set, piecewise_curve, epigraph, union, whole_space, got [1]"),
        (lambda o: o.update(B={"variant": "union", "members": 5}),
         "scenario key 'B.members' must be a list of set objects, got 5"),
        (lambda o: o.update(A=None), "scenario key 'A' must not be null"),
        (lambda o: _as_builtin(o, "monotone_not_fejer")["fejer_holds"].update(value="yes"),
         "scenario key 'expected.fejer_holds.value' must be true or false, got 'yes'"),
        (lambda o: _as_builtin(o, "epigraph")["global_ratio_diverges"].update(value=1),
         "scenario key 'expected.global_ratio_diverges.value' must be true or false, got 1"),
        (lambda o: _as_builtin(o, "geometric_n2")["iterations_to_solve"].update(value="2"),
         "scenario key 'expected.iterations_to_solve.value' must be an integer >= 0, got '2'"),
        (lambda o: _as_builtin(o, "geometric_n2")["iterations_to_solve"].update(value=True),
         "scenario key 'expected.iterations_to_solve.value' must be an integer >= 0, got True"),
        (lambda o: _as_builtin(o, "geometric_n2")["iterations_to_solve"].update(value=-1),
         "scenario key 'expected.iterations_to_solve.value' must be an integer >= 0, got -1"),
        (lambda o: _as_builtin(o, "geometric_n2")["solution"].update(value=[1, 0, 0]),
         "scenario key 'expected.solution.value' has dimension 3, but A has dimension 2"),
        (lambda o: _as_builtin(o, "sawtooth")["intersection"].update(value="origin"),
         "scenario key 'expected.intersection.value' must be a point in R^2"),
        (lambda o: _as_builtin(o, "sawtooth")["stuck_points"].update(value=5),
         "scenario key 'expected.stuck_points.value' must be a non-empty list of points, got 5"),
        (lambda o: _as_builtin(o, "sawtooth")["stuck_points"].update(value=[[1, 0], [1]]),
         "scenario key 'expected.stuck_points.value[1]' has dimension 1, but A has dimension 2"),
        (lambda o: o.update(convex="no"), "scenario key 'convex' must be true or false, got 'no'"),
        (lambda o: (_as_builtin(o, "sawtooth"), o.update(convex=True)),
         "scenario key 'convex' is true, but A (union) is not a convex set"),
        (lambda o: o.update(A={"variant": "epigraph", "breakpoints": [], "pieces": [[-1, 0, 0]]}),
         "scenario key 'convex' is true, but A (epigraph) is not a convex set"),
        (lambda o: o.update(convex=False),
         "scenario key 'convex' is false, but A (affine_subspace) and B (affine_subspace) "
         "are convex sets"),
        (lambda o: _as_builtin(o, "monotone_not_fejer").update(extendible_c={"value": 0.5}),
         "scenario key 'expected.extendible_c' needs an iteration run"),
        (lambda o: o.update(B={"variant": "piecewise_curve", "pieces": [
            {"kind": "parabolic", "a": math.nan, "b": 0, "c": 0, "t0": -1, "t1": 1}]}),
         "scenario key 'B.pieces[0].a' must be finite, got nan"),
        (lambda o: o.update(B={"variant": "piecewise_curve", "pieces": [
            {"kind": "parabolic", "a": 1, "b": 0, "c": math.inf, "t0": -1, "t1": 1}]}),
         "scenario key 'B.pieces[0].c' must be finite, got inf"),
        (lambda o: o.update(B={"variant": "epigraph", "breakpoints": [math.nan],
                               "pieces": [[0, 0, 0], [1, 0, 0]]}),
         "scenario key 'B.breakpoints' must hold finite numbers, got [nan]"),
        (lambda o: o.update(B={"variant": "epigraph", "breakpoints": [math.inf],
                               "pieces": [[0, 0, 0], [1, 0, 0]]}),
         "scenario key 'B.breakpoints' must hold finite numbers, got [inf]"),
        (lambda o: o.update(B={"variant": "epigraph", "breakpoints": [0.0],
                               "pieces": [[0, 0, 0], [1, -math.inf, 0]]}),
         "scenario key 'B.pieces' must hold finite numbers, got [[0, 0, 0], [1, -inf, 0]]"),
        (lambda o: o.update(B={"variant": "box", "lo": [math.nan, 0], "hi": [1, 1]}),
         "scenario key 'B.lo' must hold finite numbers, got [nan, 0]"),
        (lambda o: o.update(**{"lambda": {"variant": "whole_space", "dim": 2.7}}),
         "scenario key 'lambda.dim' must be an integer >= 1, got 2.7"),
        (lambda o: o.update(B={"variant": "finite_point_set", "points": 5}),
         "scenario key 'B.points' must be a list of numbers or of non-empty lists of numbers of one "
         "length, got 5"),
        (lambda o: o.update(A={"variant": "halfspace", "normal": 7, "offset": 0}),
         "scenario key 'A.normal' must be a non-empty list of numbers, got 7"),
        (lambda o: o.update(B={"variant": "finite_point_set", "points": [[[1, 2]]]}),
         "scenario key 'B.points' must be a list of numbers or of non-empty lists of numbers of one "
         "length, got [[[1, 2]]]"),
        (lambda o: o.update(B={"variant": "finite_point_set", "points": [[0, 0], [1]]}),
         "scenario key 'B.points' must be a list of numbers or of non-empty lists of numbers of one "
         "length, got [[0, 0], [1]]"),
        (lambda o: o.update(B={"variant": "finite_point_set", "points": [[0, math.inf]]}),
         "scenario key 'B.points' must hold finite numbers, got [[0, inf]]"),
        (lambda o: o.update(base_point=[True, 0]),
         "scenario key 'base_point' must be a point in R^2, got [True, 0]"),
        (lambda o: o["seed_region"].update(center=[False, 0]),
         "scenario key 'seed_region.center' must be a point in R^2, got [False, 0]"),
        (lambda o: o.update(B={"variant": "halfspace", "normal": [True, 0], "offset": 0}),
         "scenario key 'B.normal' must be a non-empty list of numbers, got [True, 0]"),
        (lambda o: o["A"].update(basis=[[True, False]]),
         "scenario key 'A.basis' must be a list of numbers or of non-empty lists of numbers of one "
         "length, got [[True, False]]"),
        (lambda o: (_as_builtin(o, "sawtooth"),
                    o["A"]["members"][0]["pieces"][0].update(start=[True, 0])),
         "scenario key 'A.members[0].pieces[0].start' must be a non-empty list of numbers, "
         "got [True, 0]"),
        (lambda o: (_as_builtin(o, "monotone_not_fejer"), o.update(sequence=[[1, 1]])),
         "scenario key 'expected.linear_c' needs a trace of at least two points"),
        (lambda o: o.update(B={"variant": "piecewise_curve", "pieces": [
            {"kind": "parabolic", "a": 1, "b": 0, "c": 0, "t0": True, "t1": 2}]}),
         "scenario key 'B.pieces[0].t0' must be a number, got True"),
        (lambda o: o.update(B={"variant": "piecewise_curve", "pieces": [
            {"kind": "parabolic", "a": 1, "b": 0, "c": 0, "t0": -1, "t1": "2"}]}),
         "scenario key 'B.pieces[0].t1' must be a number, got '2'"),
    ],
    ids=["halfspace_offset", "ball_radius", "sphere_radius", "seed_region_not_object",
         "seed_region_center", "seed_region_radius", "seed_region_radius_type",
         "seed_region_radius_negative",
         "expected_value", "expected_unknown_key", "expected_tol_type", "expected_tol_nan",
         "expected_tol_negative", "expected_value_type", "sr_not_convex",
         "fejer_holds_set_intersection", "global_ratio_probe", "stuck_points_no_intersection",
         "sequence_empty", "intersection_empty", "lambda_ball", "set_point_type",
         "set_variant_type", "union_members_type", "set_null", "fejer_holds_type",
         "global_ratio_diverges_type", "iterations_to_solve_string", "iterations_to_solve_bool",
         "iterations_to_solve_negative", "solution_dimension", "intersection_point_type",
         "stuck_points_type", "stuck_points_dimension", "convex_type", "convex_not_convex",
         "convex_concave_epigraph", "convex_false_on_convex_sets", "extendible_c_sequence",
         "parabolic_a_nan", "parabolic_c_inf", "epigraph_breakpoint_nan",
         "epigraph_breakpoint_inf", "epigraph_piece_inf", "box_lo_nan", "whole_space_dim_float",
         "point_set_scalar", "halfspace_normal_scalar", "point_set_nested", "point_set_ragged",
         "point_set_inf", "base_point_bool", "seed_region_center_bool", "halfspace_normal_bool",
         "affine_basis_bool", "piece_start_bool", "sequence_one_point", "piece_t0_bool",
         "piece_t1_string"],
)
def test_run_rejects_non_finite_set_scalar(tmp_path, capsys, corrupt, message):
    obj = scenario_to_json(build("two_lines_pi3"))
    corrupt(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))  # NaN and Infinity are valid to json.load
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["A.radius", "seed_region.center", "expected.q_rate.tol"])
def test_an_integer_too_large_for_a_float_is_a_usage_error(tmp_path, capsys, key):
    # float() and np.asarray(..., float) raise OverflowError on a 400-digit integer
    obj = scenario_to_json(build("two_lines_pi3"))
    obj["A"] = {"variant": "ball", "center": [0.0, 0.0], "radius": 1.0}
    obj["expected"] = {"q_rate": {"value": 0.25, "tol": 1e-6}}
    huge = 10**400
    if key == "A.radius":
        obj["A"]["radius"] = huge
    elif key == "seed_region.center":
        obj["seed_region"]["center"][0] = huge
    else:
        obj["expected"]["q_rate"]["tol"] = huge
    path, out = tmp_path / "big.json", tmp_path / "o"
    path.write_text(json.dumps(obj))
    assert main(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"scenario key '{key}' holds an integer too large for a float" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize(
    "B, key",
    [({"variant": "union", "members": [None]}, "B.members[0]"),
     ({"variant": "piecewise_curve", "pieces": [None]}, "B.pieces[0]"),
     ({"variant": "piecewise_curve",
       "pieces": [None, {"kind": "linear", "start": [0, 0], "end": [1, 0]}]}, "B.pieces[0]"),
     ({"variant": "finite_point_set", "points": [[0, 0], None]}, "B.points")],
    ids=["union-member", "curve-piece", "curve-piece-beside-a-piece", "point"],
)
def test_a_null_set_member_or_curve_piece_is_a_usage_error(tmp_path, capsys, B, key):
    # null in a list of sets or pieces reached the set's class as None
    obj = scenario_to_json(build("two_lines_pi3"))
    obj["B"], obj["expected"] = B, {}
    path, out = tmp_path / "null.json", tmp_path / "o"
    path.write_text(json.dumps(obj))
    assert main(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"scenario key '{key}' must " in err
    assert "Traceback" not in err and not out.exists()


def test_a_pair_of_zero_dimensional_sets_is_a_usage_error(tmp_path, capsys):
    # a point in R^0 crashed the ball stream at its first coordinate
    box = {"variant": "box", "lo": [], "hi": []}
    obj = {"name": "empty", "A": box, "B": box, "seed_region": {"center": [], "radius": 1.0}}
    path, out = tmp_path / "r0.json", tmp_path / "o"
    path.write_text(json.dumps(obj))
    assert main(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "scenario key 'A.lo' must be a non-empty list of numbers, got []" in err
    assert "Traceback" not in err and not out.exists()


#: a value of each JSON type, null included, for a mutation that swaps a value's type
_JSON_VALUES = {str: "x", float: 7, bool: True, list: [], dict: {}, type(None): None}
#: scenario keys that may be null or left out.  This set and _may_leave_out
#: are written out here, not read from the scenario tables, so that a wrong
#: table row fails the mutation test
_NULLABLE = {("lambda",), ("base_point",), ("intersection",), ("sequence",)}


def _may_leave_out(path: tuple) -> bool:
    """Whether the key at path may be left out: a key of _NULLABLE, convex,
    expected, an expected entry, and an entry's tol and provenance."""
    return (path in _NULLABLE or path in {("convex",), ("expected",)}
            or path[0] == "expected" and path[2:] in ((), ("tol",), ("provenance",)))


def _json_type(value):
    return float if type(value) is int else type(value)


def _value_paths(obj, path=()):
    """The path of every value below a JSON value, depth first: object keys
    and list indices."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _value_paths(value, path + (key,))


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _is_vector(value) -> bool:
    return isinstance(value, list) and bool(value) and all(map(_is_number, value))


#: an integer beyond the float range, put in place of every number
_HUGE = 10**400


def _mutations(obj: dict):
    """Every mutation of a scenario object: each key's value swapped for one
    of every other JSON type or null, each key deleted, an unknown key added
    to every object, _HUGE in place of every number (a lone one, or the first
    coordinate of a vector), [] in place of every vector (a non-empty list
    of numbers) and null in place of every list element.  Yields (mutated object, path of the value touched, whether
    the scenario must still load); the error must name that path."""
    text = json.dumps(obj)

    def put(path, value):
        bad = json.loads(text)
        _get(bad, path[:-1])[path[-1]] = value
        return bad

    paths = list(_value_paths(obj))
    for path in [p for p in paths if isinstance(p[-1], str)]:
        current = _json_type(_get(obj, path))
        for value in [v for t, v in _JSON_VALUES.items() if t is not current]:
            yield put(path, value), path, value is None and path in _NULLABLE
        bad = json.loads(text)
        del _get(bad, path[:-1])[path[-1]]
        yield bad, path, _may_leave_out(path)
    for path in [()] + [p for p in paths if isinstance(_get(obj, p), dict)]:
        bad = json.loads(text)
        _get(bad, path)["zz_unknown"] = 1
        yield bad, path + ("zz_unknown",), False
    for path in paths:
        value = _get(obj, path)
        if _is_number(value):
            yield put(path, _HUGE), path, False
        elif _is_vector(value):
            yield put(path + (0,), _HUGE), path + (0,), False
            # an epigraph takes one more coefficient triple than it has
            # breakpoints: [] is well formed there on its own, and the set's
            # own check of that relation names the set
            yield put(path, []), path[:-1] if path[-1] == "breakpoints" else path, False
    for path in [p for p in paths if isinstance(p[-1], int)]:
        yield put(path, None), path, False


def _json_path(path: tuple) -> str:
    """A path as errors name it: 'A.members[0].pieces[3].start'."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def _names(err: str, path: tuple) -> bool:
    """Whether an error names the full JSON path of the key touched, or a path
    within its value.  The key touched is the last key on the path: a vector's
    coordinate, or a point in a list of points, is part of its key's value."""
    key = _json_path(path[:max(i for i, k in enumerate(path) if isinstance(k, str)) + 1])
    return any(f"'{key}{end}" in err for end in "'[.")


def test_corrupted_builtins_exit_1_naming_a_key(tmp_path, capsys):
    # every mutation of every built-in's JSON, and of two_lines_pi3 with an
    # affine lambda, the one input with lambda's fields.  One that may be
    # left out or null must load, unless an expected key's check needs what
    # it took away; any other must be a usage error (exit 1) whose message
    # names the full JSON path of the key touched, never a traceback, never a
    # bundle and never an expectation mismatch (exit 2)
    lam = scenario_to_json(build("two_lines_pi3"))
    lam["lambda"] = {"variant": "affine_subspace", "point": [0.3, 0.0], "basis": [[0.0, 1.0]]}
    src, out = tmp_path / "sc.json", tmp_path / "o"
    failures, cases = [], 0
    for obj in [scenario_to_json(build(name)) for name in builtin_names()] + [lam]:
        for bad, path, loads in _mutations(obj):
            cases += 1
            if loads:
                try:
                    scenario_from_json(bad)
                except ValueError as e:
                    if "' needs " not in str(e):
                        failures.append((obj["name"], path, str(e)))
                continue
            src.write_text(json.dumps(bad))
            capsys.readouterr()
            code = execute_run(str(src), str(out), samples=16, max_iter=50)  # `fixpoint run`
            err = capsys.readouterr().err
            if code != 1 or "Traceback" in err or not _names(err, path) or out.exists():
                failures.append((obj["name"], path, code, err.strip()[-200:]))
                shutil.rmtree(out, ignore_errors=True)
    assert cases > 3000 and not failures, failures


def test_global_ratio_check_with_probe_points_in_B_is_an_error(tmp_path, capsys):
    # the probe points (t, t^2) of the check lie in B = {y >= 0}, where the
    # ratio dist(x, A cap B) / dist(x, B) divides by zero
    obj = scenario_to_json(build("epigraph"))
    obj["B"] = {"variant": "halfspace", "normal": [0, -1], "offset": 0}
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out), "--samples", "16"]) == 1
    err = capsys.readouterr().err
    assert "scenario key 'expected.global_ratio_diverges' cannot be checked" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_dr_run_rejects_extendible_c(tmp_path, capsys):
    # a DR trace records no joining sequence, so extendible_c cannot be measured
    code = main(["run", "geometric_n2", "--operator", "dr", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert "'expected.extendible_c'" in err and "--operator dr" in err


@pytest.mark.parametrize("name", builtin_names())
def test_builtins_load_from_their_json(tmp_path, name):
    # every built-in passes the load-time checks of its own JSON form
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(scenario_to_json(build(name))))
    assert main(["run", str(path), "--out", str(tmp_path / "o"), "--samples", "16",
                 "--max-iter", "200"]) in (0, 2)


@pytest.mark.parametrize(
    "argv",
    [["run", "two_lines_pi3"], ["run", "monotone_not_fejer"], ["run", "all"],
     ["estimate", "kappa", "two_lines_pi3"]],
    ids=["run", "run-sequence", "run-all", "estimate"],
)
def test_zero_samples_is_a_usage_error(tmp_path, capsys, argv):
    # monotone_not_fejer ships its sequence, so it neither iterates nor
    # estimates: its flags are checked all the same, before anything is written
    out = tmp_path / "o"
    extra = ["--out", str(out)] if argv[0] == "run" else []
    bad = [("--samples", "0", "samples must be >= 1, got 0")] + [
        ("--delta", d, f"delta must be a finite number > 0, got {float(d)}")
        for d in ("-0.5", "0", "nan", "inf")]
    if argv[0] == "run":
        bad += [("--max-iter", "0", "max_iter must be >= 1, got 0")] + [
            ("--residual-tol", t, f"residual_tol must be a finite number > 0, got {float(t)}")
            for t in ("-1", "0", "nan", "inf")]
    for flag, value, message in bad:
        assert main([*argv, f"{flag}={value}", *extra]) == 1, (flag, value)
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err and err.count("\n") == 1
        assert not out.exists()


def test_estimate_on_a_directory_is_an_error(tmp_path, capsys):
    assert main(["estimate", "sr_prime", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_bad_seed_names_its_source(tmp_path, capsys, monkeypatch):
    assert main(["estimate", "sr", "two_lines_pi3", "--seed=-3"]) == 1
    assert "error: --seed must be an integer >= 0, got -3" in capsys.readouterr().err
    monkeypatch.setenv("FIXPOINT_SEED", "abc")
    assert main(["run", "two_lines_pi3", "--out", str(tmp_path / "o")]) == 1
    assert "FIXPOINT_SEED must be an integer >= 0, got 'abc'" in capsys.readouterr().err


def test_run_honours_lambda(tmp_path):
    obj = scenario_to_json(build("two_lines_pi3"))
    obj["lambda"] = {"variant": "affine_subspace", "point": [0.3, 0.0], "basis": [[0.0, 1.0]]}
    obj["expected"] = {}
    path = tmp_path / "lam.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--samples", "32"]) == 0
    seed_point = json.loads((out / "trace.json").read_text())["metadata"]["seed_point"]
    assert abs(seed_point[0] - 0.3) <= 1e-12  # the start lies on the line x = 0.3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_run_geometric_pairs_meet_expectations(tmp_path, n):
    assert main(["run", f"geometric_n{n}", "--out", str(tmp_path / "o")]) == 0


def test_run_all_writes_every_builtin(tmp_path, capsys):
    assert main(["run", "all", "--out", str(tmp_path), "--samples", "64"]) == 0
    for name in builtin_names():
        report = json.loads((tmp_path / name / "report.json").read_text())
        assert report["scenario"] == name and report["ok"]


def test_run_all_names_each_error_and_ranks_usage_errors_first(tmp_path, capsys):
    # under DR, geometric_n1-3 cannot check extendible_c (exit 1) and sawtooth
    # and two_lines_pi3 miss an expectation (exit 2): the usage errors win
    code = main(["run", "all", "--operator", "dr", "--samples", "16", "--out", str(tmp_path)])
    errors = capsys.readouterr().err.splitlines()
    assert code == 1
    assert errors == [f"error: geometric_n{n}: scenario key 'expected.extendible_c' cannot be "
                      "checked with --operator dr: a DR run records no joining sequence"
                      for n in (1, 2, 3)]


def test_estimate_all_keys_every_constant(capsys):
    assert main(["estimate", "all", "two_lines_pi3", "--samples", "32"]) == 0
    ests = json.loads(capsys.readouterr().out)
    assert sorted(ests) == ["kappa", "sigma", "sr", "sr_prime"]
    assert main(["estimate", "sr_prime", "two_lines_pi3", "--samples", "32"]) == 0
    assert ests["sr_prime"] == json.loads(capsys.readouterr().out)


def _sequence_scenario(tmp_path, **changes):
    obj = scenario_to_json(build("monotone_not_fejer"))
    obj.update(changes)
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({k: v for k, v in obj.items() if v is not None}))
    return path


def test_sequence_trace_records_dist_B_to_B(tmp_path):
    B = {"variant": "halfspace", "normal": [1.0, 0.0], "offset": -1.0}  # x <= -1
    out = tmp_path / "o"
    assert main(["run", str(_sequence_scenario(tmp_path, B=B)), "--out", str(out)]) == 0
    tr = json.loads((out / "trace.json").read_text())
    B_set, A_set = set_from_json(B), build("monotone_not_fejer").A
    assert tr["dist_B"] == [distance(B_set, x) for x in tr["x"]]
    assert tr["dist_A"] == [distance(A_set, x) for x in tr["x"]]
    assert tr["dist_B"] != tr["dist_A"]


def test_sequence_without_intersection_targets_the_last_point(tmp_path, capsys):
    expected = scenario_to_json(build("monotone_not_fejer"))["expected"]
    expected.pop("linear_c")  # needs an intersection
    path = _sequence_scenario(tmp_path, intersection=None, expected=expected)
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err
    tr = json.loads((out / "trace.json").read_text())
    last = np.array(tr["x"][-1])
    assert tr["dist_target"] == [norm(np.array(x) - last) for x in tr["x"]]
