"""Built-in scenario constructors with ground-truth expected values.

Each scenario bundles a pair of sets, a reference common point, a seed
region, and expected values tagged with provenance (literature / trivial /
derived) and a tolerance, so the verification suites can re-derive them.

Scenarios cross the JSON boundary by four tables: ``SCENARIO`` gives each
scenario key the kind of its value and whether it may be left out or null,
``SETS`` and ``PIECES`` give each set variant and curve-piece kind its class
and the kind of each key, and ``EXPECTED`` gives each expected key the kind
of its value and the needs of its check in ``fixpoint run``.  One reader and
one writer serve every kind, sets included.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

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
    ParabolicPiece,
    PiecewiseCurve,
    SetSpec,
    SetUnion,
    Sphere,
    Target,
    Vector,
    WholeSpace,
    _scalar,
    as_vector,
    distance,
    norm,
)


@dataclass(frozen=True)
class Expected:
    value: object
    provenance: str  # one of PROVENANCES
    tol: float = 0.0


@dataclass
class Scenario:
    name: str
    A: SetSpec
    B: SetSpec
    base_point: Vector | None
    seed_region: tuple  # (center, radius)
    lam: Lambda | None = None
    expected: dict = field(default_factory=dict)
    intersection: Target | None = None
    sequence: list | None = None  # explicit sequence scenarios bypass the engine
    #: unit direction along bd A at the base point pointing out of B; seeds
    #: offset this way yield non-terminating, linearly convergent traces
    boundary_ray: Vector | None = None

    @property
    def convex(self) -> bool:
        """Whether both sets are convex, read off the sets."""
        return self.A.convex and self.B.convex


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
        base_point=as_vector([0.0, 0.0]),
        seed_region=(as_vector([0.0, 0.0]), 1.0),
        expected=expected,
        intersection=[as_vector([0.0, 0.0])],
    )


def _monotone_not_fejer() -> Scenario:
    seq = [np.array([0.5**k, 0.5**k]) for k in range(45)]
    omega = Halfspace([0.0, 1.0], 0.0)
    return Scenario(
        name="monotone_not_fejer",
        A=omega,
        B=omega,
        base_point=None,
        seed_region=(as_vector([1.0, 1.0]), 1.0),
        expected={
            "linear_c": Expected(0.5, "literature", 0.0),
            "fejer_holds": Expected(False, "literature"),
            "fejer_witness": Expected((2.0, 0.0), "literature"),
        },
        intersection=omega,
        sequence=seq,
    )


def _sawtooth() -> Scenario:
    A = sawtooth_graph(SAWTOOTH_DEPTH)
    B = PiecewiseCurve((LinearPiece((0.0, 0.0), (1.0, 1.0 / 3.0)),))
    stuck = [(0.5**n, 0.0) for n in range(SAWTOOTH_DEPTH + 1)]
    return Scenario(
        name="sawtooth",
        A=A,
        B=B,
        base_point=as_vector([0.0, 0.0]),
        seed_region=(as_vector([0.1, 0.05]), 0.1),
        expected={
            "stuck_points": Expected(stuck, "literature"),
            "sr_prime": Expected(math.sqrt(10.0), "derived", 5e-2),
            "intersection": Expected((0.0, 0.0), "literature"),
        },
        intersection=[as_vector([0.0, 0.0])],
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
        base_point=as_vector(sol),
        seed_region=(as_vector(z0), 0.1),
        expected={
            "iterations_to_solve": Expected(n, "literature"),
            "solution": Expected(tuple(float(t) for t in sol), "literature", 1e-12),
            "extendible_c": Expected(extendible_c, "derived", 1e-9),
        },
        intersection=[as_vector(sol)],
    )


def _epigraph() -> Scenario:
    # f(t) = -t-1 on (-inf, -1], 0 on [-1, 0], t^2 on [0, inf)
    A = Epigraph([-1.0, 0.0], [[0.0, -1.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    B = Halfspace([0.0, 1.0], 0.0)
    segment = Box([-1.0, 0.0], [0.0, 0.0])  # A cap B, exactly
    return Scenario(
        name="epigraph",
        A=A,
        B=B,
        base_point=as_vector([-1.0, 0.0]),
        seed_region=(as_vector([-1.0, 0.5]), 0.5),
        expected={
            "sr_prime_local": Expected(math.sqrt(2.0), "derived", 1e-2),
            "global_ratio_diverges": Expected(True, "literature"),
        },
        intersection=segment,
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


def _halfspace_ball(rng, x_bar, nu, w, theta):
    r = rng.uniform(0.7, 1.5)
    n = math.cos(theta) * nu + math.sin(theta) * w
    # the ray is the tangent of bd A at x_bar exiting the ball
    return Halfspace(n, float(n @ x_bar)), Ball(x_bar - r * nu, r), _unit(nu - math.cos(theta) * n)


def _box_affine(rng, x_bar, nu, w, theta):
    half = rng.uniform(0.5, 1.2, size=x_bar.size)
    center = x_bar.copy()
    center[0] -= half[0]  # x_bar sits at the middle of the +e0 face
    e0 = np.eye(x_bar.size)[0]
    w_face = _unit_orthogonal(rng, e0)  # tangent to the face
    u = _unit(-math.sin(theta) * w_face - math.cos(theta) * e0)
    # the ray runs along the face, away from the line's shadow
    return Box(center - half, center + half), AffineSubspace(x_bar, [u]), w_face


def _ball_ball(rng, x_bar, nu, w, theta):
    r1 = rng.uniform(0.7, 1.5)
    r2 = rng.uniform(0.7, 1.5)
    nu2 = math.cos(theta) * nu + math.sin(theta) * w
    return Ball(x_bar - r1 * nu, r1), Ball(x_bar - r2 * nu2, r2), _unit(nu2 - math.cos(theta) * nu)


#: random pair family -> its builder (rng, x_bar, nu, w, theta) -> (A, B, boundary ray);
#: each row gets the generator's first draws, read or not, and puts x_bar on both sets
FAMILIES = {"halfspace_ball": _halfspace_ball, "box_affine": _box_affine, "ball_ball": _ball_ball}


def random_convex_pair(seed: int, dim: int, family: str) -> Scenario:
    """Random intersecting convex pair with a certified common point.

    The common point is placed on the boundary of both sets with the
    boundaries crossing at a bounded angle, so the pair is transversal at
    the stored point and iteration rates stay well conditioned.
    """
    if not 2 <= dim <= 8:
        raise ValueError("dim must lie in {2,...,8}")
    if (builder := FAMILIES.get(family)) is None:
        raise ValueError(f"family must be one of {tuple(FAMILIES)}")
    rng = np.random.default_rng([1234, int(seed)])
    x_bar = rng.uniform(-1.0, 1.0, size=dim)
    nu = _unit(rng.standard_normal(dim))
    w = _unit_orthogonal(rng, nu)
    theta = rng.uniform(math.radians(25.0), math.radians(65.0))
    A, B, ray = builder(rng, x_bar, nu, w, theta)
    if distance(A, x_bar) > 1e-9 or distance(B, x_bar) > 1e-9:
        raise RuntimeError(f"the {family} builder put the common point off its sets")
    return Scenario(
        name=f"random_{family}_{seed}_d{dim}",
        A=A,
        B=B,
        base_point=as_vector(x_bar),
        seed_region=(as_vector(x_bar), 0.5),
        intersection=[as_vector(x_bar)],
        boundary_ray=as_vector(ray),
    )


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

#: where an expected value comes from
PROVENANCES = ("literature", "trivial", "derived")

#: a key must be present and not null, may be left out, or may be left out or null
REQUIRED, OPTIONAL, NULLABLE = "required", "optional", "nullable"

#: scenario key -> (kind of its value, presence), in the order keys are written
SCENARIO = {
    "name": ("string", REQUIRED),
    "A": ("set", REQUIRED),
    "B": ("set", REQUIRED),
    "lambda": ("constraint", NULLABLE),
    "base_point": ("point", NULLABLE),
    "seed_region": ("region", REQUIRED),
    "expected": ("expected", OPTIONAL),
    "convex": ("bool", OPTIONAL),
    "intersection": ("set-or-points", NULLABLE),
    "sequence": ("points", NULLABLE),
}
#: the keys of seed_region and of an expected entry (whose value has the kind
#: EXPECTED gives its key)
_REGION = {"center": ("point", REQUIRED), "radius": ("nonnegative", REQUIRED)}
_ENTRY = {"value": (None, REQUIRED), "provenance": ("provenance", OPTIONAL),
          "tol": ("nonnegative", OPTIONAL)}

#: set variant -> (its class, {key: kind of its value}), every key required after "variant";
#: the keys follow the class's fields in order, so a set is its class called on their values
SETS = {
    "halfspace": (Halfspace, {"normal": "vector", "offset": "number"}),
    "affine_subspace": (AffineSubspace, {"point": "vector", "basis": "numbers"}),
    "ball": (Ball, {"center": "vector", "radius": "nonnegative"}),
    "box": (Box, {"lo": "vector", "hi": "vector"}),
    "sphere": (Sphere, {"center": "vector", "radius": "number"}),
    "finite_point_set": (FinitePointSet, {"points": "numbers"}),
    "piecewise_curve": (PiecewiseCurve, {"pieces": "pieces"}),
    "epigraph": (Epigraph, {"breakpoints": "numbers", "pieces": "numbers"}),
    "union": (SetUnion, {"members": "sets"}),
    "whole_space": (WholeSpace, {"dim": "dimension"}),
}
#: curve-piece kind -> (its class, {key: kind of its value}), as in SETS, after "kind"
PIECES = {
    "linear": (LinearPiece, {"start": "vector", "end": "vector"}),
    "parabolic": (ParabolicPiece, {"a": "number", "b": "number", "c": "number",
                                   "t0": "float", "t1": "float"}),
}


def estimable(sc: Scenario) -> bool:
    """Whether ``fixpoint run`` estimates sr', sr and kappa on the scenario."""
    return sc.base_point is not None and sc.intersection is not None and sc.sequence is None


#: needs of a check in ``fixpoint run``: what the scenario must supply, as an
#: error names it, and whether it does
_ESTIMATE = ("a base_point, an intersection and no sequence", estimable)
_CONVEX = ("a convex pair (A and B convex sets)", lambda sc: sc.convex)
_INTERSECTION = ("an intersection", lambda sc: sc.intersection is not None)
_TWO_POINTS = ("a trace of at least two points (a shipped sequence of one has no ratio)",
               lambda sc: sc.sequence is None or len(sc.sequence) > 1)
_RUN = ("an iteration run (a shipped sequence has no joining sequence)",
        lambda sc: sc.sequence is None)
_FEJER_PROBE = ("a fejer_witness or an intersection probe (a list of points)",
                lambda sc: "fejer_witness" in sc.expected or isinstance(sc.intersection, list))
_PLANE_SET = ("an intersection set in the plane",
              lambda sc: isinstance(sc.intersection, SetSpec) and sc.A.dim == 2)

#: every expected key that ``fixpoint run`` checks -> (kind of its value, needs of its check)
EXPECTED = {
    "sr_prime": ("number", (_ESTIMATE,)),
    "sr_prime_local": ("number", (_ESTIMATE,)),
    "sr": ("number", (_ESTIMATE, _CONVEX)),
    "kappa_on_A": ("number", (_ESTIMATE,)),
    "q_rate": ("number", (_TWO_POINTS,)),
    "monotonicity_c": ("number", (_INTERSECTION, _TWO_POINTS)),
    "linear_c": ("number", (_INTERSECTION, _TWO_POINTS)),
    "extendible_c": ("number", (_RUN,)),
    "fejer_holds": ("bool", (_FEJER_PROBE,)),
    "fejer_witness": ("point", ()),
    "iterations_to_solve": ("count", ()),
    "solution": ("point", ()),
    "stuck_points": ("points", (_INTERSECTION,)),
    "intersection": ("point", ()),
    "global_ratio_diverges": ("bool", (_PLANE_SET,)),
}


def scenario_to_json(sc: Scenario) -> dict:
    """The JSON object of a scenario, its keys in SCENARIO's order."""
    out = {key: _write(kind, getattr(sc, "lam" if key == "lambda" else key))
           for key, (kind, _) in SCENARIO.items()}
    # lambda and base_point are written as null, a missing probe or sequence is left out
    return {key: v for key, v in out.items() if v is not None or key in ("lambda", "base_point")}


def scenario_from_json(obj: dict) -> Scenario:
    """Read a scenario by the SCENARIO and EXPECTED tables; an error names the
    JSON path of the value at fault."""
    _object(obj, "", SCENARIO)
    A = _read("set", obj["A"], "A", None)
    got = {key: None if obj.get(key) is None else _read(kind, obj[key], key, A.dim)
           for key, (kind, _) in SCENARIO.items() if key != "A"}
    sc = Scenario(name=got["name"], A=A, B=got["B"], lam=got["lambda"],
                  base_point=got["base_point"], seed_region=got["seed_region"],
                  expected=got["expected"] or {}, intersection=got["intersection"],
                  sequence=got["sequence"])
    # the optional key 'convex' states what the sets say
    convex = sc.convex if got["convex"] is None else got["convex"]
    for key, part in (("A", sc.A), ("B", sc.B)):
        if convex and not part.convex:
            raise ValueError(f"scenario key 'convex' is true, but {key} ({part.variant}) "
                             "is not a convex set")
    if sc.convex and not convex:
        raise ValueError(f"scenario key 'convex' is false, but A ({sc.A.variant}) and "
                         f"B ({sc.B.variant}) are convex sets")
    for key in sc.expected:
        for need, met in EXPECTED[key][1]:
            if not met(sc):
                raise ValueError(f"scenario key 'expected.{key}' needs {need}")
    return sc


def _object(obj, path: str, rows: dict) -> None:
    """The value at the JSON path must be an object of the rows' keys, each
    present and not null as its presence allows."""
    if isinstance(obj, dict) and obj.keys() == rows.keys() and None not in obj.values():
        return  # every key present and not null
    where = f"scenario key {path!r}" if path else "a scenario"
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object")
    for key, (_, presence) in rows.items():
        if obj.get(key) is not None or presence == NULLABLE or key not in obj and presence == OPTIONAL:
            continue
        at = f"{path}.{key}" if path else key
        raise ValueError(f"scenario key {at!r} must not be null" if key in obj
                         else f"scenario is missing required key {at!r}")
    for key in sorted(obj.keys() - rows.keys()):
        at = f"{path}.{key}" if path else key
        raise ValueError(f"scenario key {at!r} is unknown; {where} takes {', '.join(rows)}")


#: what a value of a kind must be, as an error says it; a "number" is finite, a "float" any
#: JSON number (Infinity too) and a "point" a vector in R^dim.  Every number must fit a float
_WHAT = {"count": "an integer >= 0", "dimension": "an integer >= 1",
         "vector": "a non-empty list of numbers",
         "numbers": "a list of numbers or of non-empty lists of numbers of one length",
         "points": "a non-empty list of points", "sets": "a list of set objects",
         "pieces": "a list of curve-piece objects"}


def _numbers(value, path: str, kind: str, dim: int | None) -> None:
    """Check the JSON list at the path: finite numbers, or for "numbers" also
    non-empty lists of numbers of one length."""
    items = value if isinstance(value, list) else None
    if kind == "numbers" and items and all(isinstance(r, list) and len(r) == len(items[0]) > 0
                                           for r in items):
        items = [t for r in items for t in r]  # rows of one length
    # a JSON true or "2" is no number
    numbers = {int, float}.issuperset(map(type, items or ())) or all(
        type(t) is not bool and isinstance(t, (int, float)) for t in items)
    if items is None or not numbers or not items and kind != "numbers":
        what = _WHAT.get(kind, f"a point in R^{dim}")
        raise ValueError(f"scenario key {path!r} must be {what}, got {value!r}")
    try:
        finite = all(map(math.isfinite, items))
    except OverflowError:
        raise ValueError(f"scenario key {path!r} holds an integer too large for a float") from None
    if not finite:
        raise ValueError(f"scenario key {path!r} must hold finite numbers, got {value!r}")


def _read(kind: str, value, path: str, dim: int | None):
    """A JSON value of the kind, parsed; a point, or a set not inside
    another, must have dimension dim, A's.  An error names the value's JSON
    path, and a set's own checks are prefixed with its path."""
    if value is None:  # where null is allowed, the caller does not read the key
        raise ValueError(f"scenario key {path!r} must not be null")
    if kind in ("vector", "numbers", "point"):
        _numbers(value, path, kind, dim)
        if kind != "point":
            return value  # a set's class converts its lists
        value = as_vector(value)
    where = f"scenario key {path!r}"
    if kind == "string" and not isinstance(value, str):
        raise ValueError(f"{where} must be a string, got {value!r}")
    if kind == "bool" and not isinstance(value, bool):
        raise ValueError(f"{where} must be true or false, got {value!r}")
    if kind == "provenance" and value not in PROVENANCES:
        raise ValueError(f"{where} must be one of {', '.join(PROVENANCES)}, got {value!r}")
    if kind in ("count", "dimension") and (isinstance(value, bool) or not isinstance(value, int)
                                           or value < (1 if kind == "dimension" else 0)):
        raise ValueError(f"{where} must be {_WHAT[kind]}, got {value!r}")
    if kind in ("count", "dimension", "number", "nonnegative", "float"):
        x = _scalar(value, where, finite=kind != "float")
        if kind == "nonnegative" and x < 0:
            raise ValueError(f"{where} must be >= 0, got {x}")
        return value if kind in ("count", "dimension") else x
    if kind == "set-or-points":
        kind = "set" if isinstance(value, dict) else "points"
    if kind in ("points", "sets", "pieces"):
        if not isinstance(value, list) or kind == "points" and not value:
            raise ValueError(f"{where} must be {_WHAT[kind]}, got {value!r}")
        got = [_read(kind[:-1], v, f"{path}[{i}]", dim) for i, v in enumerate(value)]
        return got if kind == "points" else tuple(got)
    if kind == "region":
        _object(value, path, _REGION)
        return tuple(_read(k, value[key], f"{path}.{key}", dim) for key, (k, _) in _REGION.items())
    if kind == "expected":
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be an object")
        return {key: _entry(key, entry, f"{path}.{key}", dim) for key, entry in value.items()}
    if kind in ("set", "constraint", "piece"):
        tag, table = ("kind", PIECES) if kind == "piece" else ("variant", SETS)
        name = value.get(tag) if isinstance(value, dict) else None
        if name is not None and not (isinstance(name, str) and name in table):
            raise ValueError(f"scenario key '{path}.{tag}' must be one of {', '.join(table)}, "
                             f"got {name!r}")
        cls, keys = table.get(name, (None, {}))
        _object(value, path, dict.fromkeys([tag, *keys], (None, REQUIRED)))
        args = [_read(k, value[key], f"{path}.{key}", None) for key, k in keys.items()]
        try:
            value = cls(*args)
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
        if kind == "constraint" and not isinstance(value, (AffineSubspace, WholeSpace)):
            raise ValueError(f"{where} must be an affine_subspace or whole_space, got {name}")
    if kind in ("point", "set", "constraint") and dim is not None:
        n = value.size if kind == "point" else value.dim
        if n != dim:
            raise ValueError(f"{where} has dimension {n}, but A has dimension {dim}")
    return value


def _entry(key: str, entry, path: str, dim: int) -> Expected:
    """The entry expected.<key>, its value held in its JSON form."""
    if key not in EXPECTED:
        raise ValueError(f"scenario key {path!r} is not one that run checks: {list(EXPECTED)}")
    _object(entry, path, _ENTRY)
    kind = EXPECTED[key][0]
    got = {field: _read(k or kind, entry[field], f"{path}.{field}", dim)
           for field, (k, _) in _ENTRY.items() if field in entry}
    return Expected(_write(kind, got["value"]), got.get("provenance", "derived"), got.get("tol", 0.0))


def _write(kind: str, value):
    """The JSON form of a value of the kind: the inverse of :func:`_read`."""
    if value is None or kind in ("string", "bool", "count", "dimension", "number", "nonnegative",
                                 "float"):
        return value
    if isinstance(value, SetSpec) or kind == "piece":
        tag, table = ("kind", PIECES) if kind == "piece" else ("variant", SETS)
        name = getattr(value, tag)
        return {tag: name, **{key: _write(k, getattr(value, f.name)) for (key, k), f
                              in zip(table[name][1].items(), fields(value), strict=True)}}
    if kind in ("vector", "numbers", "point"):
        return np.asarray(value, dtype=float).tolist()
    if kind in ("sets", "pieces"):
        return [_write(kind[:-1], v) for v in value]
    if kind == "region":
        return {"center": _write("point", value[0]), "radius": float(value[1])}
    if kind == "expected":
        return {key: {"value": _write(EXPECTED[key][0], e.value), "provenance": e.provenance,
                      "tol": e.tol} for key, e in value.items()}
    return [_write("point", p) for p in value]  # points, or a probe for set-or-points


def set_to_json(s: SetSpec) -> dict:
    """The JSON object of a set: its variant, then its keys in the order of SETS."""
    return _write("set", s)


def set_from_json(obj) -> SetSpec:
    """The set a JSON object describes, read as a scenario's sets are; an
    error names the path of the value at fault below 'set'."""
    return _read("set", obj, "set", None)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_json(json.load(fh))
