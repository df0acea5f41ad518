"""Closed sets with exact distances and (possibly multivalued) projectors.

Every set variant enumerates a finite list of projection candidates, so
distances are exact up to floating point and projectors return *all*
minimizers (ties resolved deterministically).  Nonconvex variants (sphere,
finite point sets, general piecewise curves, unions) may return several
candidates; convex variants always return exactly one.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Sequence, Union

import numpy as np

Vector = np.ndarray

#: absolute tolerance for membership tests and projection ties
MEMBERSHIP_TOL = 1e-9
TIE_TOL = 1e-9
#: points closer than this are one point in projection and image lists
DEDUP_TOL = 1e-12


class DimensionMismatch(ValueError):
    """Query dimension does not match the set's ambient dimension."""


def as_vector(x, dim: int | None = None) -> Vector:
    """Coerce to a finite float64 vector, optionally checking the dimension."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d point, got shape {v.shape}")
    # a finite v.v proves every coordinate finite; a non-finite one may be an
    # overflow, so only then are the coordinates tested one by one
    if not math.isfinite(v.dot(v)) and not np.isfinite(v).all():
        raise ValueError(f"point has non-finite coordinates: {v}")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def norm(v) -> float:
    """Euclidean norm of a 1-d array: sqrt(v.v), which np.linalg.norm computes."""
    return math.sqrt(v.dot(v))


def as_points(X, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite float64 (m, d) array of points: :func:`as_vector`
    for a batch, checked once for the whole array."""
    P = np.asarray(X, dtype=float)
    if P.ndim != 2:
        raise ValueError(f"expected an (m, d) array of points, got shape {P.shape}")
    if not np.isfinite(P).all():
        raise ValueError("points have non-finite coordinates")
    if dim is not None and P.shape[1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {P.shape[1]}")
    return P


# Row-wise kernels sum each row on its own (a reduction over the last axis),
# never through a matrix product: BLAS rounds a row differently depending on
# how many rows share the call, and a polished start must not depend on the
# other starts.  They agree with the scalar kernels (which round their dot
# products with FMA) to a few ulps, not bit for bit.


def _row_dots(Y: np.ndarray, v: Vector) -> np.ndarray:
    return np.add.reduce(Y * v, axis=1)


def row_norms(U: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (m, d) array."""
    return np.sqrt(np.add.reduce(U * U, axis=1))


class ProjectionList(list):
    """Projection candidates; ``infinite_fiber`` marks a non-enumerable fiber.

    The only variant with an infinite fiber is the sphere queried at its
    center, where the canonical representative ``center + r*e1`` is returned.
    """

    infinite_fiber: bool = False


class SetSpec:
    """Base class for set descriptions.  Subclasses are immutable values.

    A variant, named by ``variant`` in the JSON form, lists its projection
    candidates in ``_candidates``; the generic ``_distance`` and ``_project``
    choose among them on a checked vector, and closed forms override them.
    ``_distance_many`` and ``_project_many`` do the same for each row of a
    checked (m, dim) array (see :func:`as_points`): a row loop over the
    scalar kernels, which keeps the nonconvex tie-break exact, unless the
    variant has a closed form.
    """

    dim: int
    #: True when the projector is single-valued everywhere
    convex = False
    #: True when the candidate list is always the one closed-form projection,
    #: so ``project_all`` is ``[project_one]`` and ``_project_many`` is vectorized
    closed_form = False

    def _candidates(self, x: Vector) -> list[Vector]:
        raise NotImplementedError

    def _infinite_fiber(self, x: Vector) -> bool:
        return False

    def _distance(self, x: Vector) -> float:
        return float(np.min(np.linalg.norm(np.asarray(self._candidates(x)) - x, axis=1)))

    def _project(self, x: Vector) -> Vector:
        cands = self._candidates(x)
        if len(cands) == 1:
            return cands[0]
        return min(_nearest(cands, x), key=np.ndarray.tolist)

    def _distance_many(self, Y: np.ndarray) -> np.ndarray:
        return np.array([self._distance(y) for y in Y], dtype=float)

    def _project_many(self, Y: np.ndarray) -> np.ndarray:
        return np.array([self._project(y) for y in Y], dtype=float).reshape(Y.shape)


def _nearest(cands: list[Vector], x: Vector) -> list[Vector]:
    """The candidates within TIE_TOL of the least distance to x, in order."""
    dists = np.linalg.norm(np.asarray(cands) - x, axis=1)
    dmin = float(np.min(dists))
    return [p for p, d in zip(cands, dists) if d <= dmin + TIE_TOL]


def sorted_unique(points: list[Vector], tol: float) -> list[Vector]:
    """Points in lexicographic order, dropping each within tol of the last kept."""
    out: list[Vector] = []
    for p in sorted(points, key=np.ndarray.tolist):
        if not out or norm(p - out[-1]) > tol:
            out.append(p)
    return out


def as_target(target) -> SetSpec | list[Vector]:
    """A target for :func:`target_distance`: a set as is, a finite list of
    probe points converted once to float vectors."""
    if isinstance(target, SetSpec):
        return target
    return list(np.asarray(target, dtype=float).reshape(len(target), -1))


def target_distance(x: Vector, target: SetSpec | list[Vector]) -> float:
    """Distance from x to a target made by :func:`as_target`."""
    if isinstance(target, SetSpec):
        return distance(target, x)
    return min(norm(x - p) for p in target)


def target_distance_many(Y: np.ndarray, target: SetSpec | list[Vector]) -> np.ndarray:
    """:func:`target_distance` of each row of a checked (m, d) array."""
    if isinstance(target, SetSpec):
        return target._distance_many(Y)
    D = Y[:, None, :] - np.array(target)
    return np.sqrt(np.add.reduce(D * D, axis=2)).min(axis=1)


# ---------------------------------------------------------------------------
# convex variants


class _ConvexSet(SetSpec):
    """A convex variant: ``_project`` is its closed-form projector."""

    convex = True
    closed_form = True

    def _candidates(self, x):
        return [self._project(x)]


def _finite_scalar(value, what: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"{what} must be finite, got {v}")
    return v


@dataclass(frozen=True, eq=False)
class Halfspace(_ConvexSet):
    """{x : <normal, x> <= offset}."""

    variant = "halfspace"

    normal: Vector
    offset: float

    def __post_init__(self):
        n = as_vector(self.normal)
        nn = norm(n)
        if nn == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", _finite_scalar(self.offset, "halfspace offset"))
        object.__setattr__(self, "_norm", nn)

    @property
    def dim(self) -> int:
        return self.normal.size

    def _project(self, x):
        excess = float(self.normal @ x) - self.offset
        if excess <= 0.0:
            return x.copy()
        return x - (excess / float(self.normal @ self.normal)) * self.normal

    def _distance(self, x):
        return max(0.0, (float(self.normal @ x) - self.offset) / self._norm)

    def _project_many(self, Y):
        excess = _row_dots(Y, self.normal) - self.offset
        moved = Y - (excess / float(self.normal @ self.normal))[:, None] * self.normal
        return np.where(excess[:, None] > 0.0, moved, Y)

    def _distance_many(self, Y):
        d = (_row_dots(Y, self.normal) - self.offset) / self._norm
        return np.where(d > 0.0, d, 0.0)


@dataclass(frozen=True, eq=False)
class AffineSubspace(_ConvexSet):
    """point + span(basis) with an orthonormal basis (possibly empty)."""

    variant = "affine_subspace"

    point: Vector
    basis: np.ndarray  # shape (k, dim), rows orthonormal

    def __post_init__(self):
        p = as_vector(self.point)
        b = np.asarray(self.basis, dtype=float).reshape(-1, p.size)
        if b.size and not np.allclose(b @ b.T, np.eye(b.shape[0]), atol=1e-9):
            raise ValueError("affine basis must be orthonormal")
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.point.size

    def _project(self, x):
        if self.basis.size == 0:
            return self.point.copy()
        return self.point + self.basis.T.dot(self.basis.dot(x - self.point))

    def _distance(self, x):
        # summed as an axis-1 norm, not with dot, so that distances (and the
        # traces that record them) keep their last bits
        q = self._project(x) - x
        return math.sqrt(np.add.reduce(q * q))

    def _project_many(self, Y):
        if self.basis.size == 0:
            return np.broadcast_to(self.point, Y.shape).copy()
        coef = np.add.reduce((Y - self.point)[:, None, :] * self.basis, axis=2)
        return self.point + np.add.reduce(coef[:, :, None] * self.basis, axis=1)

    def _distance_many(self, Y):
        return row_norms(self._project_many(Y) - Y)


@dataclass(frozen=True, eq=False)
class Ball(_ConvexSet):
    variant = "ball"

    center: Vector
    radius: float

    def __post_init__(self):
        c = as_vector(self.center)
        r = _finite_scalar(self.radius, "ball radius")
        if r < 0:
            raise ValueError("ball radius must be >= 0")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.size

    def _project(self, x):
        u = x - self.center
        nu = norm(u)
        if nu <= self.radius:
            return x.copy()
        return self.center + (self.radius / nu) * u

    def _distance(self, x):
        return max(0.0, norm(x - self.center) - self.radius)

    def _project_many(self, Y):
        U = Y - self.center
        nu = row_norms(U)
        outside = nu > self.radius
        scale = np.divide(self.radius, nu, out=np.ones_like(nu), where=outside)
        return np.where(outside[:, None], self.center + scale[:, None] * U, Y)

    def _distance_many(self, Y):
        d = row_norms(Y - self.center) - self.radius
        return np.where(d > 0.0, d, 0.0)


@dataclass(frozen=True, eq=False)
class Box(_ConvexSet):
    variant = "box"

    lo: Vector
    hi: Vector

    def __post_init__(self):
        lo = as_vector(self.lo)
        hi = as_vector(self.hi, lo.size)
        if np.any(lo > hi):
            raise ValueError("box needs lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def _project(self, x):
        return np.minimum(np.maximum(x, self.lo), self.hi)

    def _distance(self, x):
        return norm(x - self._project(x))

    def _project_many(self, Y):
        return np.minimum(np.maximum(Y, self.lo), self.hi)

    def _distance_many(self, Y):
        return row_norms(Y - self._project_many(Y))


@dataclass(frozen=True, eq=False)
class WholeSpace(_ConvexSet):
    variant = "whole_space"

    space_dim: int

    def __post_init__(self):
        object.__setattr__(self, "space_dim", int(self.space_dim))

    @property
    def dim(self) -> int:
        return self.space_dim

    def _project(self, x):
        return x.copy()

    def _distance(self, x):
        return 0.0

    def _project_many(self, Y):
        return Y.copy()

    def _distance_many(self, Y):
        return np.zeros(len(Y))


# ---------------------------------------------------------------------------
# nonconvex variants


@dataclass(frozen=True, eq=False)
class Sphere(SetSpec):
    """{x : ||x - center|| = radius}, radius > 0.  Nonconvex."""

    variant = "sphere"

    center: Vector
    radius: float

    def __post_init__(self):
        c = as_vector(self.center)
        r = _finite_scalar(self.radius, "sphere radius")
        if r <= 0:
            raise ValueError("sphere radius must be > 0")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.size

    def _candidates(self, x):
        u = x - self.center
        nu = norm(u)
        if nu < 1e-15 * max(1.0, self.radius):
            # entire fiber projects; canonical representative along e1
            e1 = np.zeros(self.dim)
            e1[0] = self.radius
            return [self.center + e1]
        return [self.center + (self.radius / nu) * u]

    def _infinite_fiber(self, x):
        return norm(x - self.center) < 1e-15 * max(1.0, self.radius)

    def _distance(self, x):
        return abs(norm(x - self.center) - self.radius)


@dataclass(frozen=True, eq=False)
class FinitePointSet(SetSpec):
    variant = "finite_point_set"

    points: np.ndarray  # shape (n, dim)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[0] == 0:
            raise ValueError("finite point set must be nonempty")
        if not np.all(np.isfinite(pts)):
            raise ValueError("finite point set has non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def _candidates(self, x):
        return [p.copy() for p in self.points]

    def _distance(self, x):
        return float(np.min(np.linalg.norm(self.points - x, axis=1)))

    def _distance_many(self, Y):
        return np.linalg.norm(Y[:, None, :] - self.points, axis=2).min(axis=1)


@dataclass(frozen=True, eq=False)
class LinearPiece:
    """Segment from start to end in R^2."""

    kind = "linear"

    start: Vector
    end: Vector

    def __post_init__(self):
        object.__setattr__(self, "start", as_vector(self.start, 2))
        object.__setattr__(self, "end", as_vector(self.end, 2))

    def candidates(self, q: Vector) -> list[Vector]:
        d = self.end - self.start
        dd = float(d @ d)
        if dd < 1e-30:
            return [self.start.copy()]
        t = float((q - self.start) @ d) / dd
        t = min(1.0, max(0.0, t))
        return [self.start + t * d]


@dataclass(frozen=True, eq=False)
class ParabolicPiece:
    """Graph arc {(t, a t^2 + b t + c) : t in [t0, t1]} in R^2."""

    kind = "parabolic"

    a: float
    b: float
    c: float
    t0: float
    t1: float

    def __post_init__(self):
        for f in ("a", "b", "c", "t0", "t1"):
            object.__setattr__(self, f, float(getattr(self, f)))
        if not self.t0 <= self.t1:
            raise ValueError("parabolic piece needs t0 <= t1")

    def value(self, t: float) -> float:
        return (self.a * t + self.b) * t + self.c

    def candidates(self, q: Vector) -> list[Vector]:
        ts = _parabola_stationary_points(
            self.a, self.b, self.c, self.t0, self.t1, q
        )
        for t in (self.t0, self.t1):
            if math.isfinite(t):
                ts.append(t)
        return [np.array([t, self.value(t)]) for t in ts]


def _parabola_stationary_points(a, b, c, t0, t1, q) -> list[float]:
    """Interior roots of d/dt |(t, at^2+bt+c) - q|^2 = 0, Newton-polished.

    The stationarity condition is the cubic
        2a^2 t^3 + 3ab t^2 + (b^2 + 2a(c-y) + 1) t + (b(c-y) - x) = 0.
    Roots come from the companion matrix; each real root inside (t0, t1)
    is polished by a few safeguarded Newton steps.
    """
    x, y = float(q[0]), float(q[1])
    if a == 0.0:
        # degenerate piece: foot of the perpendicular on the line y = bt + c
        t = (x + b * (y - c)) / (1.0 + b * b)
        return [t] if t0 < t < t1 else []
    coeffs = [2 * a * a, 3 * a * b, b * b + 2 * a * (c - y) + 1.0, b * (c - y) - x]
    roots = np.roots(coeffs)
    out: list[float] = []
    for r in roots:
        if abs(r.imag) > 1e-8 * max(1.0, abs(r.real)):
            continue
        t = float(r.real)
        if not (t0 - 1e-12 < t < t1 + 1e-12):
            continue
        for _ in range(3):  # polish; derivative of the cubic
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


CurvePiece = Union[LinearPiece, ParabolicPiece]


@dataclass(frozen=True, eq=False)
class PiecewiseCurve(SetSpec):
    """A curve in R^2 given as a list of linear or parabolic pieces."""

    variant = "piecewise_curve"

    pieces: tuple

    def __post_init__(self):
        ps = tuple(self.pieces)
        if not ps:
            raise ValueError("piecewise curve needs at least one piece")
        object.__setattr__(self, "pieces", ps)
        # vectorized segment data for the linear pieces (hot path)
        lin = [p for p in ps if isinstance(p, LinearPiece)]
        starts = np.array([p.start for p in lin]).reshape(-1, 2)
        ends = np.array([p.end for p in lin]).reshape(-1, 2)
        d = ends - starts
        dd = np.maximum(np.einsum("ij,ij->i", d, d), 1e-300)
        object.__setattr__(self, "_lin_starts", starts)
        object.__setattr__(self, "_lin_d", d)
        object.__setattr__(self, "_lin_dd", dd)
        object.__setattr__(
            self, "_par", [p for p in ps if isinstance(p, ParabolicPiece)]
        )
        object.__setattr__(self, "convex", len(ps) == 1 and len(lin) == 1)

    @property
    def dim(self) -> int:
        return 2

    def _linear_feet(self, x) -> np.ndarray:
        t = np.einsum("ij,ij->i", x - self._lin_starts, self._lin_d) / self._lin_dd
        np.clip(t, 0.0, 1.0, out=t)
        return self._lin_starts + t[:, None] * self._lin_d

    def _candidates(self, x):
        out = list(self._linear_feet(x)) if len(self._lin_starts) else []
        for p in self._par:
            out.extend(p.candidates(x))
        return out


@dataclass(frozen=True, eq=False)
class Epigraph(SetSpec):
    """Epigraph {(t, y) : y >= f(t)} of a piecewise linear/quadratic f.

    ``breakpoints`` splits the real line into len(breakpoints)+1 intervals;
    ``pieces[i]`` holds quadratic coefficients (a, b, c) with
    f(t) = a t^2 + b t + c on the i-th interval.
    """

    variant = "epigraph"

    breakpoints: Vector
    pieces: np.ndarray  # shape (len(breakpoints)+1, 3)
    convex: bool = True

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        pc = np.asarray(self.pieces, dtype=float).reshape(-1, 3)
        if pc.shape[0] != bp.size + 1:
            raise ValueError("need len(breakpoints)+1 coefficient triples")
        if bp.size > 1 and np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pieces", pc)
        object.__setattr__(self, "convex", bool(self.convex))
        # boundary: an arc per interval, then vertical segments where f jumps
        arcs: list[CurvePiece] = []
        for i, (a, b, c) in enumerate(pc):
            lo = -math.inf if i == 0 else float(bp[i - 1])
            hi = math.inf if i == bp.size else float(bp[i])
            arcs.append(ParabolicPiece(a, b, c, lo, hi))
        for i, t in enumerate(bp):
            v0, v1 = arcs[i].value(t), arcs[i + 1].value(t)
            if abs(v0 - v1) > 1e-15:
                arcs.append(LinearPiece((t, min(v0, v1)), (t, max(v0, v1))))
        object.__setattr__(self, "_boundary", tuple(arcs))

    @property
    def dim(self) -> int:
        return 2

    def value(self, t: float) -> float:
        i = int(np.searchsorted(self.breakpoints, t, side="right"))
        a, b, c = self.pieces[i]
        return (a * t + b) * t + c

    def _candidates(self, x):
        if float(x[1]) >= self.value(float(x[0])):
            return [x.copy()]
        return [p for piece in self._boundary for p in piece.candidates(x)]


@dataclass(frozen=True, eq=False)
class SetUnion(SetSpec):
    """Union of member sets; multivalued projector on ties."""

    variant = "union"

    members: tuple

    def __post_init__(self):
        ms = tuple(self.members)
        if not ms:
            raise ValueError("union needs at least one member")
        dims = {m.dim for m in ms}
        if len(dims) != 1:
            raise ValueError("union members must share a dimension")
        object.__setattr__(self, "members", ms)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def _nearest_members(self, x) -> list[SetSpec]:
        dists = [distance(m, x) for m in self.members]
        dmin = min(dists)
        return [m for m, d in zip(self.members, dists) if d <= dmin + TIE_TOL]

    def _candidates(self, x):
        return [p for m in self._nearest_members(x) for p in m._candidates(x)]

    def _infinite_fiber(self, x):
        return any(m._infinite_fiber(x) for m in self._nearest_members(x))

    def _distance(self, x):
        return min(distance(m, x) for m in self.members)

    def _distance_many(self, Y):
        return np.min([m._distance_many(Y) for m in self.members], axis=0)


Lambda = Union[WholeSpace, AffineSubspace]


# ---------------------------------------------------------------------------
# core operations


def _check_dim(s: SetSpec, x) -> Vector:
    return as_vector(x, s.dim)


def distance(s: SetSpec, x) -> float:
    """Euclidean distance from x to s (exact; 0 iff x lies in s)."""
    return s._distance(_check_dim(s, x))


def project_all(s: SetSpec, x) -> ProjectionList:
    """All nearest points of s to x, deduplicated, in lexicographic order.

    Candidates within TIE_TOL of the minimal distance are all returned.
    """
    x = _check_dim(s, x)
    cands = s._candidates(x)
    if len(cands) > 1:
        cands = sorted_unique(_nearest(cands, x), max(DEDUP_TOL, TIE_TOL * 1e-2))
    out = ProjectionList(cands)
    out.infinite_fiber = s._infinite_fiber(x)
    return out


def project_one(s: SetSpec, x) -> Vector:
    """Deterministic selection: the lexicographically smallest projection."""
    return s._project(_check_dim(s, x))


@dataclass(frozen=True, eq=False)
class NormalPair:
    """A base point of the set together with a proximal normal direction."""

    base: Vector
    direction: Vector


def proximal_normal(s: SetSpec, w, tol: float = MEMBERSHIP_TOL) -> NormalPair:
    """Proximal normal at the projection of an outside query w.

    Returns (a, v) with a the deterministic projection of w and v = w - a,
    so a + v projects back onto a.  Raises for queries already in the set,
    where no canonical nonzero proximal normal exists.
    """
    w = _check_dim(s, w)
    if distance(s, w) <= tol:
        raise ValueError("query lies in the set; no canonical proximal normal")
    a = project_one(s, w)
    return NormalPair(a, w - a)


def elemental_subreg_estimate(
    s: SetSpec,
    sample: Sequence[Vector],
    pair: NormalPair,
    center,
    delta: float,
    polish: bool = True,
) -> float:
    """Sampled constant of the one-sided normal-angle condition.

    Over set points x in the ball B_delta(center), estimates
        max(0, sup <v, x - a> / (||v|| ||x - a||))
    for the normal pair (a, v).  The result is a lower bound on the true
    constant for that neighborhood; refinement never decreases it.
    """
    center = _check_dim(s, center)
    a, v = pair.base, pair.direction
    nv = norm(v)
    if nv <= 0:
        raise ValueError("normal direction must be nonzero")
    # rounding in <v, x-a> scales with the coordinate magnitudes; dividing by
    # ||x-a|| amplifies it near the base point.  Subtracting this first-order
    # bound keeps the estimate a lower bound instead of reporting noise.
    scale = 8.0 * a.size * np.finfo(float).eps * max(1.0, norm(a) + abs(nv))

    def ratio(x: Vector) -> float:
        dx = x - a
        nd = norm(dx)
        if nd <= 1e-14:
            return -math.inf
        return float(v @ dx) / (nv * nd) - scale * max(1.0, norm(x)) / nd

    pts = [p for p in sample if norm(p - center) <= delta + 1e-12]
    vals = [ratio(p) for p in pts]
    vals = [t for t in vals if t > -math.inf]
    if not vals:
        raise ValueError("empty sample after filtering the base point")
    best = max(vals)
    if polish:
        def feasible(y: Vector) -> Vector | None:
            p = project_one(s, y)
            if norm(p - center) > delta:
                return None
            return p

        for p in pts[:32]:  # fixed index prefix: refinement stays monotone
            best = max(best, pattern_polish(p, ratio, feasible, step=delta / 4)[0])
    return max(0.0, best)


# ---------------------------------------------------------------------------
# seeded sampling and deterministic polish


def ball_point(center, radius: float, seed: int, index: int) -> Vector:
    """The index-th point of the seeded uniform stream on a closed ball.

    Each index owns its own generator, so the first n points of a stream are
    a prefix of the first 2n: supremum estimates can only grow on refinement.
    """
    center = as_vector(center)
    rng = np.random.default_rng([int(seed), int(index)])
    u = rng.standard_normal(center.size)
    nu = norm(u)
    if nu == 0.0:
        u[0] = 1.0
        nu = 1.0
    r = radius * rng.random() ** (1.0 / center.size)
    return center + (r / nu) * u


def sample_ball(center, radius: float, count: int, seed: int) -> list[Vector]:
    return [ball_point(center, radius, seed, i) for i in range(count)]


def sample_on_set(
    s: SetSpec,
    center,
    radius: float,
    count: int,
    seed: int,
    lam: Lambda | None = None,
) -> list[Vector]:
    """Points of s (optionally of s ∩ lam) inside the ball B_radius(center).

    Ambient ball samples are projected onto the set; with an affine
    constraint a few alternating projections land the point in both sets.
    Samples whose projection escapes the ball are dropped.
    """
    center = _check_dim(s, center)
    out = []
    for i in range(count):
        p = project_one(s, ball_point(center, radius, seed, i))
        if lam is not None and not isinstance(lam, WholeSpace):
            for _ in range(40):
                q = project_one(lam, p)
                p = project_one(s, q)
                if norm(p - q) <= 1e-12:
                    break
            if distance(lam, p) > 1e-9:
                continue
        if norm(p - center) <= radius + 1e-12:
            out.append(p)
    return out


_POLISH_DIRS: dict[int, np.ndarray] = {}


def _polish_directions(d: int) -> np.ndarray:
    if d not in _POLISH_DIRS:
        dirs = list(np.eye(d)) + list(-np.eye(d))
        if d <= 3:  # diagonal moves cross kinks of max-type objectives
            for i in range(d):
                for j in range(i + 1, d):
                    for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                        v = np.zeros(d)
                        v[i], v[j] = si, sj
                        dirs.append(v / math.sqrt(2.0))
        _POLISH_DIRS[d] = np.array(dirs)
    return _POLISH_DIRS[d]


def ascend(
    X0: np.ndarray,
    score,
    feasible,
    step: float,
    max_rounds: int = 48,
    floor: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic pattern ascent of score from every row of X0 in lockstep.

    ``feasible(Y)`` maps each row of an (m, d) array of trial points into the
    admissible region and returns ``(Y', ok)``, with ``ok`` marking the rows
    it admits; ``score(Y)`` scores each row.  One call covers every active
    start, but rows never interact: each keeps its own best point and step,
    polls the directions in a fixed order from its current point (moving on
    the first trial that beats its best by 1e-15), halves its step after a
    round without a move and stops below ``floor`` or after ``max_rounds``.
    A start therefore ends where it would alone, so per-sample polishing
    keeps nested-sample estimates monotone under refinement.  Returns the
    best score of each row and the point attaining it (-inf and the start
    for an inadmissible start).
    """
    X0 = as_points(X0)
    m = len(X0)
    X, ok = feasible(X0)
    X = np.where(ok[:, None], X, X0)
    best = np.full(m, -math.inf)
    if ok.any():
        best[ok] = score(X[ok])
    steps = np.full(m, float(step))
    active = ok.copy()
    dirs = _polish_directions(X0.shape[1])
    for _ in range(max_rounds):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        improved = np.zeros(m, dtype=bool)
        moves = steps[rows, None, None] * dirs
        for j in range(len(dirs)):
            Y, ok = feasible(X[rows] + moves[:, j])
            at = rows
            if not ok.all():
                at, Y = rows[ok], Y[ok]
                if at.size == 0:
                    continue
            s = score(Y)
            up = s > best[at] + 1e-15
            if up.any():
                at = at[up]
                X[at] = Y[up]
                best[at] = s[up]
                improved[at] = True
        halved = rows[~improved[rows]]
        steps[halved] *= 0.5
        active[halved[steps[halved] < floor]] = False
    return best, X


def pattern_polish(
    x0: Vector,
    score,
    feasible,
    step: float,
    max_rounds: int = 48,
    floor: float = 1e-9,
) -> tuple[float, Vector]:
    """:func:`ascend` from one start with scalar maps: ``feasible(y)`` returns
    the admitted point or None, ``score(y)`` a float.  Returns the best score
    and the point attaining it.
    """

    def feasible_row(Y):
        y = feasible(Y[0])
        return (Y if y is None else y[None, :]), np.array([y is not None])

    best, X = ascend(np.asarray(x0, dtype=float)[None, :],
                     lambda Y: np.array([score(Y[0])]), feasible_row, step, max_rounds, floor)
    return float(best[0]), X[0]


# ---------------------------------------------------------------------------
# JSON wire format


#: JSON keys that differ from the dataclass field name
_JSON_KEYS = {"space_dim": "dim"}


def set_to_json(s: SetSpec | CurvePiece) -> dict:
    """Serialize a set description (or a curve piece) to its JSON object form:
    its variant (or kind), then its fields in declaration order."""
    out = {"variant": s.variant} if isinstance(s, SetSpec) else {"kind": s.kind}
    for f in fields(s):
        v = getattr(s, f.name)
        if isinstance(v, tuple):  # union members or curve pieces
            v = [set_to_json(t) for t in v]
        elif isinstance(v, np.ndarray):
            v = v.tolist()
        out[_JSON_KEYS.get(f.name, f.name)] = v
    return out


def _from_json(obj, tag: str, registry: dict, what: str):
    """Build the class that ``obj[tag]`` names from the other keys of obj,
    which must be its fields (those with a default may be left out)."""
    name = obj.get(tag) if isinstance(obj, dict) else None
    if not isinstance(name, str) or name not in registry:
        raise ValueError(f"unknown {what}: {name}")
    cls = registry[name]
    keys = {_JSON_KEYS.get(f.name, f.name): f for f in fields(cls)}
    rest = {k: v for k, v in obj.items() if k != tag}
    unknown = set(rest) - set(keys)
    if unknown:
        raise ValueError(f"unknown keys for {name}: {sorted(unknown)}")
    missing = [k for k, f in keys.items() if k not in rest and f.default is MISSING]
    if missing:
        raise ValueError(f"missing keys for {name}: {missing}")
    args = {keys[k].name: v for k, v in rest.items()}
    if cls is PiecewiseCurve:
        args["pieces"] = tuple(
            _from_json(p, "kind", _PIECES, "curve piece kind") for p in args["pieces"]
        )
    elif cls is SetUnion:
        args["members"] = tuple(set_from_json(m) for m in args["members"])
    return cls(**args)


_VARIANTS = {c.variant: c for c in (
    Halfspace, AffineSubspace, Ball, Box, Sphere, FinitePointSet,
    PiecewiseCurve, Epigraph, SetUnion, WholeSpace,
)}
_PIECES = {c.kind: c for c in (LinearPiece, ParabolicPiece)}


def set_from_json(obj: dict) -> SetSpec:
    """Inverse of :func:`set_to_json`; rejects unknown variants and keys."""
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ValueError("set description must be an object with a 'variant' key")
    return _from_json(obj, "variant", _VARIANTS, "set variant")
