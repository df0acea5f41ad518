import json
import math
import re
import struct
from dataclasses import MISSING, fields

import numpy as np
import pytest

from fixpoint.cli import main
from fixpoint.engine import AlternatingProjections, residual_map
from fixpoint.geometry import (
    AffineSubspace,
    Ball,
    Box,
    Epigraph,
    FinitePointSet,
    Halfspace,
    LinearPiece,
    ParabolicPiece,
    PiecewiseCurve,
    SetSpec,
    SetUnion,
    Sphere,
    WholeSpace,
    as_vector,
    distance,
    norm,
)
from fixpoint.scenarios import (
    FAMILIES,
    PIECES,
    SETS,
    Scenario,
    _unit,
    _unit_orthogonal,
    build,
    builtin_names,
    random_convex_pair,
    sawtooth_graph,
    scenario_from_json,
    scenario_to_json,
    set_from_json,
    set_to_json,
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


def reference_unit_orthogonal(rng, nu: np.ndarray) -> np.ndarray:
    """The unit vector orthogonal to nu that the reference drew: up to 8
    draws, then the axis least aligned with nu."""
    for _ in range(8):
        w = rng.standard_normal(nu.size)
        w = w - (w @ nu) * nu
        if norm(w) > 1e-8:
            return _unit(w)
    w = np.zeros(nu.size)
    w[int(np.argmin(np.abs(nu)))] = 1.0
    w = w - (w @ nu) * nu
    return _unit(w)


def test_unit_orthogonal_raises_on_a_draw_along_nu():
    class Along:  # a generator whose every draw is a multiple of nu
        def standard_normal(self, n):
            return 3.0 * nu

    nu = _unit(np.array([1.0, 2.0, 2.0]))
    with pytest.raises(RuntimeError, match="within 1e-8"):
        _unit_orthogonal(Along(), nu)
    w = _unit_orthogonal(np.random.default_rng(0), nu)
    assert abs(w @ nu) <= 1e-15 and norm(w) == pytest.approx(1.0, abs=1e-15)


def reference_random_convex_pair(seed: int, dim: int, family: str) -> Scenario:
    """The if-chain over the three first families, with its retry loop, that
    drew random pairs before the family table, kept as the reference its rows
    must match bit for bit."""
    rng = np.random.default_rng([1234, int(seed)])
    for _ in range(16):
        x_bar = rng.uniform(-1.0, 1.0, size=dim)
        nu = _unit(rng.standard_normal(dim))
        w = reference_unit_orthogonal(rng, nu)
        theta = rng.uniform(math.radians(25.0), math.radians(65.0))
        if family == "halfspace_ball":
            r = rng.uniform(0.7, 1.5)
            ball = Ball(x_bar - r * nu, r)
            n = math.cos(theta) * nu + math.sin(theta) * w
            A = Halfspace(n, float(n @ x_bar))
            B = ball
            # tangent of bd A at x_bar exiting the ball
            ray = _unit(nu - math.cos(theta) * n)
        elif family == "ball_ball":
            r1 = rng.uniform(0.7, 1.5)
            r2 = rng.uniform(0.7, 1.5)
            nu2 = math.cos(theta) * nu + math.sin(theta) * w
            A = Ball(x_bar - r1 * nu, r1)
            B = Ball(x_bar - r2 * nu2, r2)
            ray = _unit(nu2 - math.cos(theta) * nu)
        else:  # box_affine
            half = rng.uniform(0.5, 1.2, size=dim)
            center = x_bar.copy()
            center[0] -= half[0]  # x_bar sits at the middle of the +e0 face
            A = Box(center - half, center + half)
            e0 = np.eye(dim)[0]
            w_face = reference_unit_orthogonal(rng, e0)  # tangent to the face
            u = _unit(-math.sin(theta) * w_face - math.cos(theta) * e0)
            B = AffineSubspace(x_bar, [u])
            ray = w_face  # along the face, away from the line's shadow
        if distance(A, x_bar) <= 1e-9 and distance(B, x_bar) <= 1e-9:
            return Scenario(
                name=f"random_{family}_{seed}_d{dim}",
                A=A,
                B=B,
                lam=None,
                base_point=as_vector(x_bar),
                seed_region=(as_vector(x_bar), 0.5),
                expected={},
                intersection=[as_vector(x_bar)],
                boundary_ray=as_vector(ray),
            )
    raise RuntimeError("could not draw an intersecting pair (exhausted retries)")


@pytest.mark.parametrize("family", ["halfspace_ball", "box_affine", "ball_ball"])
def test_family_rows_equal_the_reference_bit_for_bit(family):
    # scenario_to_json writes no boundary_ray, and verify reads the ray only
    # through seed points: compare its bytes on their own
    for dim in range(2, 9):
        for seed in range(9):
            got = random_convex_pair(seed, dim, family)
            want = reference_random_convex_pair(seed, dim, family)
            assert json.dumps(scenario_to_json(got)) == json.dumps(scenario_to_json(want)), got.name
            assert got.boundary_ray.tobytes() == want.boundary_ray.tobytes(), got.name


def test_random_pair_validation():
    with pytest.raises(ValueError):
        random_convex_pair(0, 1, "ball_ball")
    with pytest.raises(ValueError):
        random_convex_pair(0, 9, "ball_ball")
    with pytest.raises(ValueError) as err:
        random_convex_pair(0, 2, "cone_cone")
    assert all(repr(name) in str(err.value) for name in FAMILIES)


def test_a_builder_that_misses_the_common_point_raises(monkeypatch):
    def off(rng, x_bar, nu, w, theta):
        return Ball(x_bar - nu, 1.0), Ball(x_bar + 2.0 * nu, 1.0), w

    monkeypatch.setitem(FAMILIES, "off_ball", off)
    with pytest.raises(RuntimeError, match="off_ball"):
        random_convex_pair(0, 2, "off_ball")


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
    for name in builtin_names():  # every built-in reads back to the same JSON
        text = json.dumps(scenario_to_json(build(name)))
        assert json.dumps(scenario_to_json(scenario_from_json(json.loads(text)))) == text


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
    at = f"{key}[1]" if key in ("intersection", "sequence") else key  # the point at fault
    message = f"scenario key '{at}' has dimension 3, but A has dimension 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        scenario_from_json(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# sets cross the JSON boundary by the SETS and PIECES rows, bit for bit as the
# dataclass-field reader and writer they replaced

_REFERENCE_KEYS = {"space_dim": "dim"}


def reference_set_to_json(s) -> dict:
    """The field-walking writer that sets were written by before the SETS
    table: its variant (or kind), then its fields in declaration order."""
    out = {"variant": s.variant} if isinstance(s, SetSpec) else {"kind": s.kind}
    for f in fields(s):
        v = getattr(s, f.name)
        if isinstance(v, tuple):  # union members or curve pieces
            v = [reference_set_to_json(t) for t in v]
        elif isinstance(v, np.ndarray):
            v = v.tolist()
        out[_REFERENCE_KEYS.get(f.name, f.name)] = v
    return out


def _reference_holds_bool(v) -> bool:
    return isinstance(v, bool) or isinstance(v, list) and any(map(_reference_holds_bool, v))


def _reference_from_json(obj, tag: str, registry: dict, what: str):
    name = obj.get(tag) if isinstance(obj, dict) else None
    if not isinstance(name, str) or name not in registry:
        raise ValueError(f"unknown {what}: {name}")
    cls = registry[name]
    keys = {_REFERENCE_KEYS.get(f.name, f.name): f for f in fields(cls)}
    rest = {k: v for k, v in obj.items() if k != tag}
    unknown = set(rest) - set(keys)
    if unknown:
        raise ValueError(f"unknown keys for {name}: {sorted(unknown)}")
    missing = [k for k, f in keys.items() if k not in rest and f.default is MISSING]
    if missing:
        raise ValueError(f"missing keys for {name}: {missing}")
    for k, v in rest.items():
        if keys[k].type in ("Vector", "np.ndarray", "tuple") and not isinstance(v, list):
            raise ValueError(f"{name} {k} must be a list, got {v!r}")
        if keys[k].type in ("Vector", "np.ndarray") and _reference_holds_bool(v):
            raise ValueError(f"{name} {k} must hold numbers, not true or false, got {v!r}")
    args = {keys[k].name: v for k, v in rest.items()}
    if cls is PiecewiseCurve:
        args["pieces"] = tuple(_reference_from_json(p, "kind", _REFERENCE_PIECES,
                                                    "curve piece kind") for p in args["pieces"])
    elif cls is SetUnion:
        args["members"] = tuple(reference_set_from_json(m) for m in args["members"])
    return cls(**args)


_REFERENCE_VARIANTS = {c.variant: c for c in (
    Halfspace, AffineSubspace, Ball, Box, Sphere, FinitePointSet,
    PiecewiseCurve, Epigraph, SetUnion, WholeSpace,
)}
_REFERENCE_PIECES = {c.kind: c for c in (LinearPiece, ParabolicPiece)}


def reference_set_from_json(obj: dict):
    """The reader that read sets by their dataclass annotations before the SETS table."""
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ValueError("set description must be an object with a 'variant' key")
    return _reference_from_json(obj, "variant", _REFERENCE_VARIANTS, "set variant")


def _same_bits(a, b) -> bool:
    """Whether two values hold the same bits: arrays by dtype, shape and bytes,
    floats by their IEEE bytes, sets and pieces by every attribute."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    if hasattr(a, "__dict__"):
        return vars(a).keys() == vars(b).keys() and all(
            _same_bits(v, vars(b)[k]) for k, v in vars(a).items())
    return a == b


SETS_OF_EVERY_VARIANT = [
    Halfspace([0.3, -1.0], 0.25),
    AffineSubspace([0.1, 0.2, 0.3], [[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]),
    AffineSubspace([1.5, -2.0], []),
    Ball([1.0 / 3.0, -2.0], 0.7),
    Box([-1.0, 0.0, 2.0], [1.0, 0.5, 2.0]),
    Sphere([0.0, 1e-3], 2.5),
    FinitePointSet([[1.0, 0.0], [0.1, 0.2], [-3.0, 1e300]]),
    PiecewiseCurve((LinearPiece([0, 0], [1, 1]), ParabolicPiece(1.0, -0.5, 0.25, -1.0, 2.0))),
    PiecewiseCurve((ParabolicPiece(-0.5, 0.0, 1.0, -math.inf, math.inf),
                    ParabolicPiece(2.0, 1.0, 0.0, 0.0, math.inf))),
    Epigraph([0.0], [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]),  # a jump at 0
    Epigraph([-1.0, 0.0], [[0.0, -1.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
    Epigraph([], [[-1.0, 0.0, 0.0]]),
    SetUnion((PiecewiseCurve((LinearPiece([0.5, 0.0], [0.75, -0.125]),)),
              FinitePointSet([[0.0, 0.0]]))),
    SetUnion((Ball([0.0, 0.0], 1.0), SetUnion((Box([2.0, 2.0], [3.0, 3.0]), Sphere([0, 0], 4))))),
    WholeSpace(3),
]


@pytest.mark.parametrize("s", SETS_OF_EVERY_VARIANT, ids=lambda s: s.variant)
def test_sets_cross_json_as_the_reference_writes_and_reads_them(s):
    obj = set_to_json(s)
    assert json.dumps(obj) == json.dumps(reference_set_to_json(s))
    # read back from JSON text, and from a form with integers where floats were
    for o in (json.loads(json.dumps(obj)),
              json.loads(re.sub(r"(-?\d+)\.0\b", r"\1", json.dumps(obj)))):
        got, want = set_from_json(o), reference_set_from_json(o)
        assert _same_bits(got, want), o
        assert json.dumps(set_to_json(got)) == json.dumps(obj)


def test_every_variant_and_piece_kind_is_covered():
    variants = {s.variant for s in SETS_OF_EVERY_VARIANT}
    kinds = {p.kind for s in SETS_OF_EVERY_VARIANT if isinstance(s, PiecewiseCurve)
             for p in s.pieces}
    assert variants == set(SETS) and kinds == set(PIECES)
