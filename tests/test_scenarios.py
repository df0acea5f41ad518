import json
import math

import numpy as np
import pytest

from fixpoint.cli import main
from fixpoint.engine import AlternatingProjections, residual_map
from fixpoint.geometry import FinitePointSet, distance, norm
from fixpoint.scenarios import (
    FAMILIES,
    build,
    builtin_names,
    random_convex_pair,
    sawtooth_graph,
    scenario_from_json,
    scenario_to_json,
)


def test_builtin_names_cover_the_catalog():
    names = builtin_names()
    for expected in (
        "two_lines_pi3",
        "monotone_not_fejer",
        "sawtooth",
        "geometric_n1",
        "geometric_n2",
        "geometric_n3",
        "epigraph",
    ):
        assert expected in names


def test_build_unknown_raises():
    with pytest.raises(ValueError):
        build("nonexistent")


def test_two_lines_expected_values():
    sc = build("two_lines_pi3")
    assert sc.expected["sr_prime"].value == pytest.approx(2 / math.sqrt(3))
    assert sc.expected["sr"].value == pytest.approx(2.0)
    assert sc.expected["q_rate"].value == pytest.approx(0.25)
    assert sc.convex


def test_sawtooth_scenario_shape():
    sc = build("sawtooth")
    # the stored stuck points include (1/8, 0) and all lie on the graph
    stuck = sc.expected["stuck_points"].value
    assert (0.125, 0.0) in [tuple(p) for p in stuck]
    for p in stuck:
        assert distance(sc.A, p) <= 1e-12
    # intersection is the origin only
    assert np.allclose(sc.intersection[0], [0, 0])
    assert distance(sc.A, [0, 0]) == 0.0 and distance(sc.B, [0, 0]) == 0.0


def test_sawtooth_graph_values():
    saw = sawtooth_graph(10)
    # peaks at (1/2^n, 0), dips of depth 1/2^{n+2} at 3/2^{n+2}
    for n in range(5):
        assert distance(saw, [0.5**n, 0.0]) <= 1e-15
        assert distance(saw, [3.0 / 2 ** (n + 2), -1.0 / 2 ** (n + 2)]) <= 1e-15
        assert distance(saw, [0.5**n, -0.1 / 2**n]) > 0


def test_geometric_scenario_matches_construction():
    sc = build("geometric_n2")
    assert isinstance(sc.A, FinitePointSet) and isinstance(sc.B, FinitePointSet)
    a = sorted(tuple(p) for p in sc.A.points)
    b = sorted(tuple(p) for p in sc.B.points)
    third = 1.0 / 3.0
    assert a == sorted([(1.0, 0.0), (third**2, 0.0), (third**4, 0.0)])
    assert b == sorted([(third**4, 0.0), (third, 0.0), (third**3, 0.0)])


def test_monotone_not_fejer_ships_sequence():
    sc = build("monotone_not_fejer")
    assert sc.sequence is not None
    assert np.allclose(sc.sequence[3], [0.125, 0.125])


@pytest.mark.parametrize("family", FAMILIES)
def test_random_pair_certified_common_point(family):
    for seed in range(8):
        sc = random_convex_pair(seed, 2 + seed % 3, family)
        assert distance(sc.A, sc.base_point) <= 1e-9
        assert distance(sc.B, sc.base_point) <= 1e-9
        op = AlternatingProjections(sc.A, sc.B)
        assert residual_map(op, sc.base_point) <= 1e-9
        assert abs(norm(sc.boundary_ray) - 1.0) <= 1e-9


def test_random_pair_deterministic_in_seed():
    a = scenario_to_json(random_convex_pair(5, 3, "ball_ball"))
    b = scenario_to_json(random_convex_pair(5, 3, "ball_ball"))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_random_pair_validation():
    with pytest.raises(ValueError):
        random_convex_pair(0, 1, "ball_ball")
    with pytest.raises(ValueError):
        random_convex_pair(0, 9, "ball_ball")
    with pytest.raises(ValueError):
        random_convex_pair(0, 2, "cone_cone")


def test_scenario_json_round_trip():
    sc = build("two_lines_pi3")
    obj = scenario_to_json(sc)
    sc2 = scenario_from_json(obj)
    assert sc2.name == sc.name
    assert np.allclose(sc2.base_point, sc.base_point)
    assert sc2.expected["sr_prime"].value == pytest.approx(sc.expected["sr_prime"].value)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        assert distance(sc2.A, x) == distance(sc.A, x)
        assert distance(sc2.B, x) == distance(sc.B, x)


def test_scenario_json_rejects_unknown_keys():
    obj = scenario_to_json(build("two_lines_pi3"))
    obj["surprise"] = 1
    with pytest.raises(ValueError):
        scenario_from_json(obj)


def test_scenario_json_requires_core_keys():
    with pytest.raises(ValueError):
        scenario_from_json({"name": "x"})


def _three_d(obj: dict, key: str) -> dict:
    """Scenario JSON for two_lines_pi3 with one key moved to R^3."""
    obj = dict(obj, seed_region=dict(obj["seed_region"]))
    if key == "B":
        obj["B"] = {"variant": "affine_subspace", "point": [0, 0, 0], "basis": [[1, 0, 0]]}
    elif key == "lambda":
        obj["lambda"] = {"variant": "whole_space", "dim": 3}
    elif key == "seed_region.center":
        obj["seed_region"]["center"] = [0.0, 0.0, 0.0]
    elif key == "base_point":
        obj["base_point"] = [0.0, 0.0, 0.0]
    else:  # a probe point or sequence point among good ones
        obj[key] = [[0.0, 0.0], [0.0, 0.0, 0.0]]
    return obj


@pytest.mark.parametrize(
    "key", ["B", "lambda", "base_point", "seed_region.center", "intersection", "sequence"]
)
def test_scenario_json_rejects_dimension_mismatch(key, tmp_path, capsys):
    obj = _three_d(scenario_to_json(build("two_lines_pi3")), key)
    message = f"scenario key '{key}' has dimension 3, but A has dimension 2"
    with pytest.raises(ValueError, match=message):
        scenario_from_json(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
