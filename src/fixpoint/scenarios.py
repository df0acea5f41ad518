"""Built-in scenario constructors with ground-truth expected values.

Each scenario bundles a pair of sets, a reference common point, a seed
region, and expected values tagged with provenance (literature / trivial /
derived) and a tolerance, so the verification suites can re-derive them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import (
    AffineSubspace,
    Ball,
    Box,
    Epigraph,
    FinitePointSet,
    Halfspace,
    Lambda,
    LinearPiece,
    PiecewiseCurve,
    SetSpec,
    SetUnion,
    Vector,
    WholeSpace,
    _finite_scalar,
    as_vector,
    distance,
    norm,
    set_from_json,
    set_to_json,
)


@dataclass(frozen=True)
class Expected:
    value: object
    provenance: str  # "literature" | "trivial" | "derived"
    tol: float = 0.0


@dataclass
class Scenario:
    name: str
    A: SetSpec
    B: SetSpec
    lam: Lambda | None
    base_point: Vector | None
    seed_region: tuple  # (center, radius)
    expected: dict = field(default_factory=dict)
    intersection: SetSpec | Sequence[Vector] | None = None
    sequence: list | None = None  # explicit sequence scenarios bypass the engine
    convex: bool = False
    #: unit direction along bd A at the base point pointing out of B; seeds
    #: offset this way yield non-terminating, linearly convergent traces
    boundary_ray: Vector | None = None


SAWTOOTH_DEPTH = 20


def sawtooth_graph(depth: int = 40) -> SetUnion:
    """Finite truncation of the sawtooth graph on (0, 1], plus the origin.

    Each tooth n lives on (1/2^{n+1}, 1/2^n], dropping linearly from 0 to
    -1/2^{n+2} at t = 3/2^{n+2} and back to 0.  Teeth below the truncation
    resolution are replaced by the single point (0, 0), which also closes
    the set.
    """
    pieces = []
    for n in range(depth + 1):
        left = 0.5 ** (n + 1)
        mid = 3.0 * 0.25 * 0.5**n  # 3/2^{n+2}
        right = 0.5**n
        dip = -(0.25 * 0.5**n)  # -1/2^{n+2}
        pieces.append(LinearPiece((left, 0.0), (mid, dip)))
        pieces.append(LinearPiece((mid, dip), (right, 0.0)))
    return SetUnion((PiecewiseCurve(tuple(pieces)), FinitePointSet([[0.0, 0.0]])))


def line_through_origin(angle: float) -> AffineSubspace:
    c, s = math.cos(angle), math.sin(angle)
    if abs(c) < 1e-15:  # snap so axis-aligned lines are exact
        c = 0.0
    if abs(s) < 1e-15:
        s = 0.0
    return AffineSubspace([0.0, 0.0], [[c, s]])


def _two_lines(angle: float, name: str) -> Scenario:
    A = line_through_origin(0.0)
    B = line_through_origin(angle)
    s = math.sin(angle)
    c2 = math.cos(angle) ** 2
    expected = {
        "sr_prime": Expected(1.0 / s, "literature" if abs(angle - math.pi / 3) < 1e-12 else "derived", 1e-3),
        "sr": Expected(1.0 / math.sin(angle / 2.0) if angle < math.pi / 2 else math.sqrt(2.0), "literature" if abs(angle - math.pi / 3) < 1e-12 else "derived", 1e-2),
        "q_rate": Expected(c2, "derived", 1e-6),
        "monotonicity_c": Expected(c2, "derived", 1e-6),
        "kappa_on_A": Expected(1.0 / (s * s), "derived", 1e-3),
    }
    return Scenario(
        name=name,
        A=A,
        B=B,
        lam=None,
        base_point=as_vector([0.0, 0.0]),
        seed_region=(as_vector([0.0, 0.0]), 1.0),
        expected=expected,
        intersection=[as_vector([0.0, 0.0])],
        convex=True,
    )


def _monotone_not_fejer() -> Scenario:
    seq = [np.array([0.5**k, 0.5**k]) for k in range(45)]
    omega = Halfspace([0.0, 1.0], 0.0)
    return Scenario(
        name="monotone_not_fejer",
        A=omega,
        B=omega,
        lam=None,
        base_point=None,
        seed_region=(as_vector([1.0, 1.0]), 1.0),
        expected={
            "linear_c": Expected(0.5, "literature", 0.0),
            "fejer_holds": Expected(False, "literature"),
            "fejer_witness": Expected((2.0, 0.0), "literature"),
        },
        intersection=omega,
        sequence=seq,
        convex=True,
    )


def _sawtooth() -> Scenario:
    A = sawtooth_graph(SAWTOOTH_DEPTH)
    B = PiecewiseCurve((LinearPiece((0.0, 0.0), (1.0, 1.0 / 3.0)),))
    stuck = [(0.5**n, 0.0) for n in range(SAWTOOTH_DEPTH + 1)]
    return Scenario(
        name="sawtooth",
        A=A,
        B=B,
        lam=None,
        base_point=as_vector([0.0, 0.0]),
        seed_region=(as_vector([0.1, 0.05]), 0.1),
        expected={
            "stuck_points": Expected(stuck, "literature"),
            "sr_prime": Expected(math.sqrt(10.0), "derived", 5e-2),
            "intersection": Expected((0.0, 0.0), "literature"),
        },
        intersection=[as_vector([0.0, 0.0])],
        convex=False,
    )


def _geometric(n: int) -> Scenario:
    """Finite geometric pair solved after exactly n projection rounds."""
    z0 = np.array([1.0, 0.0])
    zs = [z0 * (1.0 / 3.0) ** k for k in range(2 * n + 1)]
    A = FinitePointSet([zs[2 * k] for k in range(n + 1)])
    B = FinitePointSet([zs[2 * n]] + [zs[2 * k + 1] for k in range(n)])
    sol = zs[2 * n]
    # The joining sequence alternates x_k and b_k = P_B x_k, so it is z_0,
    # z_1, ..., z_2n, z_2n: the last point repeats once the fixed point is
    # reached.  For n >= 2 consecutive steps shrink by 1/3, so a frequency-2
    # block ratio is 1/9.  For n = 1 the sequence z_0, z_1, z_2, z_2 has the
    # single block ratio ||z_3 - z_2|| / ||z_1 - z_0|| = 0.
    extendible_c = 1.0 / 9.0 if n >= 2 else 0.0
    return Scenario(
        name=f"geometric_n{n}",
        A=A,
        B=B,
        lam=None,
        base_point=as_vector(sol),
        seed_region=(as_vector(z0), 0.1),
        expected={
            "iterations_to_solve": Expected(n, "literature"),
            "solution": Expected(tuple(float(t) for t in sol), "literature", 1e-12),
            "extendible_c": Expected(extendible_c, "derived", 1e-9),
        },
        intersection=[as_vector(sol)],
        convex=False,
    )


def _epigraph() -> Scenario:
    # f(t) = -t-1 on (-inf, -1], 0 on [-1, 0], t^2 on [0, inf)
    A = Epigraph([-1.0, 0.0], [[0.0, -1.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], convex=True)
    B = Halfspace([0.0, 1.0], 0.0)
    segment = Box([-1.0, 0.0], [0.0, 0.0])  # A cap B, exactly
    return Scenario(
        name="epigraph",
        A=A,
        B=B,
        lam=None,
        base_point=as_vector([-1.0, 0.0]),
        seed_region=(as_vector([-1.0, 0.5]), 0.5),
        expected={
            "sr_prime_local": Expected(math.sqrt(2.0), "derived", 1e-2),
            "global_ratio_diverges": Expected(True, "literature"),
        },
        intersection=segment,
        convex=True,
    )


_BUILTIN = {
    "two_lines_pi3": lambda: _two_lines(math.pi / 3.0, "two_lines_pi3"),
    "two_lines_pi2": lambda: _two_lines(math.pi / 2.0, "two_lines_pi2"),
    "monotone_not_fejer": _monotone_not_fejer,
    "sawtooth": _sawtooth,
    "geometric_n1": lambda: _geometric(1),
    "geometric_n2": lambda: _geometric(2),
    "geometric_n3": lambda: _geometric(3),
    "epigraph": _epigraph,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTIN)


def build(name: str) -> Scenario:
    """Construct a built-in scenario by name."""
    try:
        factory = _BUILTIN[name]
    except KeyError:
        raise ValueError(f"unknown scenario: {name!r}; known: {builtin_names()}") from None
    return factory()


FAMILIES = ("halfspace_ball", "box_affine", "ball_ball")


def random_convex_pair(seed: int, dim: int, family: str) -> Scenario:
    """Random intersecting convex pair with a certified common point.

    The common point is placed on the boundary of both sets with the
    boundaries crossing at a bounded angle, so the pair is transversal at
    the stored point and iteration rates stay well conditioned.
    """
    if not 2 <= dim <= 8:
        raise ValueError("dim must lie in {2,...,8}")
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    rng = np.random.default_rng([1234, int(seed)])
    for _ in range(16):
        x_bar = rng.uniform(-1.0, 1.0, size=dim)
        nu = _unit(rng.standard_normal(dim))
        w = _unit_orthogonal(rng, nu)
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
            w_face = _unit_orthogonal(rng, e0)  # tangent to the face
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
                convex=True,
                boundary_ray=as_vector(ray),
            )
    raise RuntimeError("could not draw an intersecting pair (exhausted retries)")


def _unit(v: np.ndarray) -> np.ndarray:
    n = norm(v)
    if n == 0.0:
        v = v.copy()
        v[0] = 1.0
        n = 1.0
    return v / n


def _unit_orthogonal(rng, nu: np.ndarray) -> np.ndarray:
    for _ in range(8):
        w = rng.standard_normal(nu.size)
        w = w - (w @ nu) * nu
        if norm(w) > 1e-8:
            return _unit(w)
    w = np.zeros(nu.size)
    w[int(np.argmin(np.abs(nu)))] = 1.0
    w = w - (w @ nu) * nu
    return _unit(w)


# ---------------------------------------------------------------------------
# JSON wire format (same schema for built-in and user-supplied scenarios)


def scenario_to_json(sc: Scenario) -> dict:
    out = {
        "name": sc.name,
        "A": set_to_json(sc.A),
        "B": set_to_json(sc.B),
        "lambda": None if sc.lam is None else set_to_json(sc.lam),
        "base_point": None if sc.base_point is None else [float(t) for t in sc.base_point],
        "seed_region": {
            "center": [float(t) for t in sc.seed_region[0]],
            "radius": float(sc.seed_region[1]),
        },
        "expected": {
            k: {"value": _jsonable(e.value), "provenance": e.provenance, "tol": e.tol}
            for k, e in sc.expected.items()
        },
        "convex": sc.convex,
    }
    if sc.intersection is not None:
        if isinstance(sc.intersection, SetSpec):
            out["intersection"] = set_to_json(sc.intersection)
        else:
            out["intersection"] = [[float(t) for t in p] for p in sc.intersection]
    if sc.sequence is not None:
        out["sequence"] = [[float(t) for t in p] for p in sc.sequence]
    return out


def _jsonable(v):
    if isinstance(v, (list, tuple)):
        return [_jsonable(t) for t in v]
    if isinstance(v, np.ndarray):
        return [float(t) for t in v]
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    return v


_SCENARIO_KEYS = {
    "name", "A", "B", "lambda", "base_point", "seed_region",
    "expected", "convex", "intersection", "sequence",
}

#: expected keys whose value is a number that ``fixpoint run`` compares within tol
NUMBER_KEYS = (
    "sr_prime", "sr_prime_local", "sr", "kappa_on_A",
    "q_rate", "monotonicity_c", "linear_c", "extendible_c",
)
#: every expected key that ``fixpoint run`` checks
EXPECTED_KEYS = NUMBER_KEYS + (
    "fejer_holds", "fejer_witness", "iterations_to_solve", "solution",
    "stuck_points", "intersection", "global_ratio_diverges",
)
#: expected keys whose value is a JSON boolean, and those whose value is a point
BOOLEAN_KEYS = ("fejer_holds", "global_ratio_diverges")
POINT_KEYS = ("fejer_witness", "solution", "intersection")


def scenario_from_json(obj: dict) -> Scenario:
    if not isinstance(obj, dict):
        raise ValueError("a scenario must be a JSON object")
    unknown = set(obj) - _SCENARIO_KEYS
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("name", "A", "B", "seed_region"):
        _at(obj, key)
    exp = obj.get("expected", {})
    if not isinstance(exp, dict):
        raise ValueError("scenario key 'expected' must be an object")

    def parse(key: str, make, value):
        """make(value), None for a JSON null; any error names the key."""
        try:
            return None if value is None else make(value)
        except (TypeError, ValueError) as e:
            raise ValueError(f"scenario key {key!r}: {e}") from None

    inter = obj.get("intersection")
    A = parse("A", set_from_json, obj["A"])
    convex = obj.get("convex", False)
    if not isinstance(convex, bool):
        raise ValueError(f"scenario key 'convex' must be true or false, got {convex!r}")
    sc = Scenario(
        name=obj["name"],
        A=A,
        B=parse("B", set_from_json, obj["B"]),
        lam=parse("lambda", set_from_json, obj.get("lambda")),
        base_point=parse("base_point", as_vector, obj.get("base_point")),
        seed_region=(
            parse("seed_region.center", as_vector, _at(obj, "seed_region", "center")),
            _finite_scalar(_at(obj, "seed_region", "radius"), "scenario key 'seed_region.radius'"),
        ),
        expected={k: _expected(obj, k, A.dim) for k in exp},
        intersection=parse("intersection", set_from_json if isinstance(inter, dict) else _points,
                           inter),
        sequence=parse("sequence", _points, obj.get("sequence")),
        convex=convex,
    )
    if sc.lam is not None and not isinstance(sc.lam, (AffineSubspace, WholeSpace)):
        raise ValueError(f"scenario key 'lambda' must be an affine_subspace or whole_space, "
                         f"got {sc.lam.variant}")
    for key, part in (("A", sc.A), ("B", sc.B)):
        if convex and not part.convex:
            raise ValueError(f"scenario key 'convex' is true, but {key} ({part.variant}) "
                             "is not a convex set")
    _check_dimensions(sc)
    for key in sc.expected:
        need = _unmet_need(sc, key)
        if need:
            raise ValueError(f"scenario key 'expected.{key}' needs {need}")
    return sc


def _points(value) -> list[Vector]:
    if not isinstance(value, list) or not value:
        raise ValueError("must list at least one point")
    return [as_vector(p) for p in value]


def _expected(obj: dict, key: str, dim: int) -> Expected:
    """expected.<key>: a key that ``fixpoint run`` checks, a value of the type
    its check compares (a number, a boolean, an iteration count, a point of
    the scenario's dimension or a non-empty list of them), and a finite
    tol >= 0."""
    path = f"scenario key 'expected.{key}"
    if key not in EXPECTED_KEYS:
        raise ValueError(f"{path}' is not one that run checks: {list(EXPECTED_KEYS)}")
    value = _at(obj, "expected", key, "value")
    if key in NUMBER_KEYS:
        value = _finite_scalar(value, f"{path}.value'")
    elif key in BOOLEAN_KEYS and not isinstance(value, bool):
        raise ValueError(f"{path}.value' must be true or false, got {value!r}")
    elif key == "iterations_to_solve" and (
        isinstance(value, bool) or not isinstance(value, int) or value < 0
    ):
        raise ValueError(f"{path}.value' must be an integer >= 0, got {value!r}")
    elif key in POINT_KEYS:
        _expected_point(value, dim, f"{path}.value'")
    elif key == "stuck_points":
        if not isinstance(value, list) or not value:
            raise ValueError(f"{path}.value' must be a non-empty list of points, got {value!r}")
        for i, p in enumerate(value):
            _expected_point(p, dim, f"{path}.value[{i}]'")
    entry = obj["expected"][key]
    tol = _finite_scalar(entry.get("tol", 0.0), f"{path}.tol'")
    if tol < 0:
        raise ValueError(f"{path}.tol' must be >= 0, got {tol}")
    return Expected(value, entry.get("provenance", "derived"), tol)


def _expected_point(value, dim: int, what: str) -> None:
    try:
        as_vector(value, dim)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{what} must be a point in R^{dim}: {e}") from None


def _unmet_need(sc: Scenario, key: str) -> str | None:
    """What the check of expected.<key> in ``fixpoint run`` needs and the
    scenario does not supply, if anything."""
    estimated = sc.base_point is not None and sc.intersection is not None and sc.sequence is None
    if key in ("sr_prime", "sr_prime_local", "sr", "kappa_on_A") and not estimated:
        return "a base_point, an intersection and no sequence"
    if key == "sr" and not sc.convex:
        return "a convex pair ('convex': true)"
    if key in ("monotonicity_c", "linear_c", "stuck_points") and sc.intersection is None:
        return "an intersection"
    if key == "extendible_c" and sc.sequence is not None:
        return "an iteration run (a shipped sequence has no joining sequence)"
    if key == "fejer_holds" and not ("fejer_witness" in sc.expected
                                     or isinstance(sc.intersection, list)):
        return "a fejer_witness or an intersection probe (a list of points)"
    if key == "global_ratio_diverges" and not (isinstance(sc.intersection, SetSpec)
                                               and sc.A.dim == 2):
        return "an intersection set in the plane"
    return None


def _at(obj, *keys: str):
    """obj[k1][k2]...; a missing or null key, or a value on the way that is
    not an object, is an error that names its JSON path."""
    for i, key in enumerate(keys):
        if not isinstance(obj, dict):
            raise ValueError(f"scenario key {'.'.join(keys[:i])!r} must be an object")
        if key not in obj:
            raise ValueError(f"scenario is missing required key {'.'.join(keys[:i + 1])!r}")
        obj = obj[key]
    if obj is None:
        raise ValueError(f"scenario key {'.'.join(keys)!r} must not be null")
    return obj


def _check_dimensions(sc: Scenario) -> None:
    """Every set and point of a scenario must live in the space of A."""
    probe = sc.intersection if isinstance(sc.intersection, list) else [sc.intersection]
    parts = [
        ("B", sc.B), ("lambda", sc.lam), ("base_point", sc.base_point),
        ("seed_region.center", sc.seed_region[0]),
    ]
    parts += [("intersection", p) for p in probe]
    parts += [("sequence", p) for p in sc.sequence or []]
    for key, part in parts:
        if part is None:
            continue
        dim = part.dim if isinstance(part, SetSpec) else part.size
        if dim != sc.A.dim:
            raise ValueError(
                f"scenario key {key!r} has dimension {dim}, but A has dimension {sc.A.dim}"
            )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_json(json.load(fh))
