"""Closed sets with exact distances and (possibly multivalued) projectors.

Every set variant enumerates a finite list of projection candidates, so
distances are exact up to floating point and projectors return *all*
minimizers (ties resolved deterministically).  Nonconvex variants (sphere,
finite point sets, general piecewise curves, unions) may return several
candidates; convex variants always return exactly one.  Every dot product
is rounded one way, as ``ndarray.dot`` rounds it (see :func:`dot_norms`), so
a batched kernel's row is bit for bit its one-point closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .seeding import pcg64_states

Vector = np.ndarray

#: absolute tolerance for projection ties
TIE_TOL = 1e-9
#: points closer than this are one point in an operator's image list; a
#: projection list (project_all) merges within max(DEDUP_TOL, TIE_TOL * 1e-2) = 1e-11
DEDUP_TOL = 1e-12


class DimensionMismatch(ValueError):
    """Query dimension does not match the set's ambient dimension."""


def as_vector(x, dim: int | None = None, name: str = "point") -> Vector:
    """Coerce to a finite float64 vector, optionally checking the dimension;
    ``name`` names the vector in the non-finite error."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d point, got shape {v.shape}")
    # a finite v.v proves every coordinate finite; a non-finite one may be an
    # overflow, so only then are the coordinates tested one by one
    if not math.isfinite(v.dot(v)) and not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite coordinates: {v}")
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


# The one rounding rule: a row's dot products are rounded as the one-point
# ``ndarray.dot`` rounds them, through np.vecdot (which rounds each row as
# the scalar dot does) or np.matmul on a C-contiguous matrix (as its .dot),
# never through a product of many rows (BLAS rounds a row by how many share
# the call).  So a row does not depend on the other rows of its batch.


def dot_norms(U: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, each rounded as :func:`norm` rounds it (vecdot):
    the norm of every batched kernel, so a row's norm is its one-point norm."""
    return np.sqrt(np.vecdot(U, U))


def _near(N: np.ndarray) -> np.ndarray:
    """The one tie rule: which norms of each row lie within TIE_TOL of the row's least."""
    return N <= (N.min(axis=1) + TIE_TOL)[:, None]


class SetSpec:
    """Base class for set descriptions.  Subclasses are immutable values.

    A variant, named by its ``variant``, enumerates the projection
    candidates of every row of a checked (m, dim) array (see
    :func:`as_points`) in one batched call, ``_candidates_many``: an (m, k,
    dim) array whose slots come in a fixed order, an empty slot filled with
    +inf.  One selection serves every variant: a row's distance is the least
    norm of its slots, and its projection the lexicographically least slot
    within TIE_TOL of that least norm (the first such slot on an exact tie).
    ``_distance_many`` and ``_project_many`` apply it in blocks of rows, and
    closed forms override both; :func:`distance` is the one-row case of the
    first.  ``_row_kernel()`` is the one way to project one checked vector,
    with the bits of the second's one-row case.
    """

    dim: int
    #: True when the projector is single-valued everywhere
    convex = False
    _slots = 1  #: k of the (m, k, dim) ``_candidates_many`` array (or a bound), as by_blocks reads it

    def _candidates_many(self, Y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _row_kernel(self):
        """The projector of one checked vector; the loop fetches it once per run."""
        return lambda x: self._project_many(x[None, :])[0]

    def _distance_many(self, Y: np.ndarray) -> np.ndarray:
        return by_blocks(len(Y), lambda r: dot_norms(self._candidates_many(Y[r]) - Y[r, None, :]).min(axis=1),
                         self._slots)

    def _project_many(self, Y: np.ndarray) -> np.ndarray:
        return by_blocks(len(Y), lambda r: _select(self._candidates_many(Y[r]), Y[r]), self._slots)


#: candidate slots per call of an enumeration: bounds its (rows, slots, dim) temporaries
#: while a kernel pays its fixed cost once a block; rows never interact, so no bit changes
_BLOCK_SLOTS = 2**14


def by_blocks(m: int, kernel, slots: int) -> np.ndarray:
    """kernel(r) over slices r of m rows, max(1, _BLOCK_SLOTS // slots) rows each,
    concatenated; one block's array is returned as the kernel made it."""
    n = max(1, _BLOCK_SLOTS // slots)
    if m <= n:
        return kernel(slice(0, n))
    return np.concatenate([kernel(slice(i, i + n)) for i in range(0, m, n)])


def _select(C: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Each row's projection among its slots: the lexicographically least slot
    within TIE_TOL of the least norm, compared coordinate by coordinate (so
    -0.0 ties 0.0), and the first of those on a full tie, as ``min`` with
    key ``tolist`` picks it from the near slots in order."""
    near = _near(dot_norms(C - Y[:, None, :]))
    if np.count_nonzero(near) > len(C):  # some row has a tie to break
        for j in range(C.shape[2]):
            v = np.where(near, C[:, :, j], np.inf)
            near &= v == v.min(axis=1)[:, None]
    return C[np.arange(len(C)), near.argmax(axis=1)]


def sorted_unique(points: list[Vector], tol: float) -> list[Vector]:
    """Points in lexicographic order, dropping each within tol of the last kept."""
    out: list[Vector] = []
    for p in sorted(points, key=np.ndarray.tolist):
        if not out or norm(p - out[-1]) > tol:
            out.append(p)
    return out


#: what a distance is measured to: a set, or a list of probe points
Target = Union[SetSpec, Sequence[Vector]]


def as_target(target: Target | None, dim: int, what: str) -> SetSpec:
    """The set that distances to a target are measured to: a set as is, a
    list of probe points (a finite subset of the set meant) as the
    :class:`FinitePointSet` of those points.  Checked once: the target must
    be supplied, a probe non-empty, and the set of dimension dim; ``what``
    names the target in the error."""
    if target is None:
        raise ValueError(f"{what} must be supplied")
    if not isinstance(target, SetSpec):
        if len(target) == 0:
            raise ValueError(f"{what} is empty")
        target = FinitePointSet(np.asarray(target, dtype=float).reshape(len(target), -1))
    if target.dim != dim:
        raise DimensionMismatch(f"{what} has dimension {target.dim}, expected {dim}")
    return target


# ---------------------------------------------------------------------------
# convex variants


class _ConvexSet(SetSpec):
    """A convex variant: ``_project_many`` is its closed-form projector, and,
    as it takes a 1-d row too, its row kernel.  AffineSubspace has a scalar
    closed form as its row kernel instead, with the batched row's bits, as
    the benchmark's one-row calls pay for it (README, "Set kernels")."""

    convex = True

    def _row_kernel(self):
        return self._project_many

    def _candidates_many(self, Y):
        return self._project_many(Y)[:, None, :]

    def _distance_many(self, Y):
        return dot_norms(Y - self._project_many(Y))


def _scalar(value, what: str, finite: bool = True) -> float:
    try:
        if isinstance(value, (bool, str)):  # True or "2" is not a number
            raise TypeError
        v = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{what} holds an integer too large for a float") from None
    if finite and not math.isfinite(v):
        raise ValueError(f"{what} must be finite, got {v}")
    return v


@dataclass(frozen=True, eq=False)
class Halfspace(_ConvexSet):
    """{x : <normal, x> <= offset}."""

    variant = "halfspace"

    normal: Vector
    offset: float

    def __post_init__(self):
        n = as_vector(self.normal, name="halfspace normal")
        nn = norm(n)
        if nn == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", _scalar(self.offset, "halfspace offset"))
        object.__setattr__(self, "_norm", nn)
        object.__setattr__(self, "_sq_norm", float(n @ n))

    @property
    def dim(self) -> int:
        return self.normal.shape[-1]

    def _project_many(self, Y):
        excess = np.vecdot(Y, self.normal) - self.offset
        moved = Y - (excess / self._sq_norm)[..., None] * self.normal
        return np.where(excess[..., None] > 0.0, moved, Y)

    def _distance_many(self, Y):
        d = (np.vecdot(Y, self.normal) - self.offset) / self._norm
        return np.where(d > 0.0, d, 0.0)


@dataclass(frozen=True, eq=False)
class AffineSubspace(_ConvexSet):
    """point + span(basis) with an orthonormal basis (possibly empty)."""

    variant = "affine_subspace"

    point: Vector
    basis: np.ndarray  # shape (k, dim), rows orthonormal

    def __post_init__(self):
        p = as_vector(self.point, name="affine_subspace point")
        if (b := np.asarray(self.basis, dtype=float)).size and b.shape[-1:] != p.shape or b.ndim > 2:
            raise ValueError(f"affine_subspace basis needs rows of length {p.size}, got {b.tolist()}")
        b = np.ascontiguousarray(b.reshape(-1, p.size))  # its products round as .dot's
        if not np.isfinite(b).all():
            raise ValueError(f"affine_subspace basis has non-finite coordinates: {b.tolist()}")
        if b.size and not np.allclose(b @ b.T, np.eye(b.shape[0]), atol=1e-9):
            raise ValueError("affine basis must be orthonormal")
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.point.shape[-1]

    def _row_kernel(self):
        p, coef, span = self.point, self.basis.dot, self.basis.T.dot
        return (lambda x: p + span(coef(x - p))) if self.basis.size else (lambda x: p.copy())

    def _project_many(self, Y):
        if self.basis.size == 0:
            return np.broadcast_to(self.point, Y.shape).copy()
        coef = np.matmul(self.basis, (Y - self.point)[:, :, None])
        return self.point + np.matmul(self.basis.mT, coef)[:, :, 0]


@dataclass(frozen=True, eq=False)
class Ball(_ConvexSet):
    variant = "ball"

    center: Vector
    radius: float

    def __post_init__(self):
        c = as_vector(self.center, name="ball center")
        r = _scalar(self.radius, "ball radius")
        if r < 0:
            raise ValueError("ball radius must be >= 0")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.shape[-1]

    def _project_many(self, Y):
        U = Y - self.center
        nu = dot_norms(U)
        outside = nu > self.radius
        scale = np.divide(self.radius, nu, out=np.ones_like(nu), where=outside)
        return np.where(outside[..., None], self.center + scale[..., None] * U, Y)

    def _distance_many(self, Y):
        d = dot_norms(Y - self.center) - self.radius
        return np.where(d > 0.0, d, 0.0)


@dataclass(frozen=True, eq=False)
class Box(_ConvexSet):
    variant = "box"

    lo: Vector
    hi: Vector

    def __post_init__(self):
        lo = as_vector(self.lo, name="box lo")
        hi = as_vector(self.hi, lo.size, "box hi")
        if np.any(lo > hi):
            raise ValueError("box needs lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[-1]

    def _project_many(self, Y):
        return np.minimum(np.maximum(Y, self.lo), self.hi)


@dataclass(frozen=True, eq=False)
class WholeSpace(_ConvexSet):
    variant = "whole_space"

    space_dim: int

    def __post_init__(self):
        d = self.space_dim
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
            raise ValueError(f"whole_space dim must be an integer >= 1, got {d!r}")
        object.__setattr__(self, "space_dim", int(d))

    @property
    def dim(self) -> int:
        return self.space_dim

    def _project_many(self, Y):
        return Y.copy()


# ---------------------------------------------------------------------------
# nonconvex variants


@dataclass(frozen=True, eq=False)
class Sphere(SetSpec):
    """{x : ||x - center|| = radius}, radius > 0.  Nonconvex.  Its one candidate
    is in closed form, with norms from vecdot, which rounds as a dot product."""

    variant = "sphere"

    center: Vector
    radius: float

    def __post_init__(self):
        c = as_vector(self.center, name="sphere center")
        r = _scalar(self.radius, "sphere radius")
        if r <= 0:
            raise ValueError("sphere radius must be > 0")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.size

    def _project_many(self, Y):
        U = Y - self.center
        nu = dot_norms(U)
        fiber = nu < 1e-15 * max(1.0, self.radius)
        with np.errstate(divide="ignore", invalid="ignore"):
            P = self.center + (self.radius / nu)[:, None] * U
        # at the center the entire fiber projects; canonical representative along e1
        P[fiber] = self.center + self.radius * np.eye(1, self.dim)[0]
        return P

    _candidates_many = _ConvexSet._candidates_many

    def _distance_many(self, Y):
        U = Y - self.center
        return np.abs(dot_norms(U) - self.radius)


@dataclass(frozen=True, eq=False)
class FinitePointSet(SetSpec):
    """Finitely many points, and the form of every probe (see :func:`as_target`).
    Its points are its candidates; its distance takes one dot product (vecdot)
    per point, which rounds as the scalar dot product does."""

    variant = "finite_point_set"
    _slots = property(lambda self: self.points.shape[-2])

    points: np.ndarray  # shape (n, dim)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.size == 0:
            raise ValueError("finite_point_set points must be one point or a nonempty list "
                             f"of points of one dimension, got {self.points!r}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("finite_point_set points have non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[-1]

    def _points(self, r):  # the points of rows r: a gathered stack's lead with a row axis
        return self.points[r] if self.points.ndim == 3 else self.points

    def _candidates_many(self, Y, r=slice(None)):
        return np.broadcast_to(self._points(r), (len(Y),) + self.points.shape[-2:])

    def _distance_many(self, Y):
        return by_blocks(len(Y), lambda r: dot_norms(Y[r, None, :] - self._points(r)).min(axis=1), self._slots)

    def _project_many(self, Y):
        return by_blocks(len(Y), lambda r: _select(self._candidates_many(Y[r], r), Y[r]), self._slots)


@dataclass(frozen=True, eq=False)
class LinearPiece:
    """Segment from start to end in R^2."""

    kind = "linear"

    start: Vector
    end: Vector

    def __post_init__(self):
        object.__setattr__(self, "start", as_vector(self.start, 2, "linear piece start"))
        object.__setattr__(self, "end", as_vector(self.end, 2, "linear piece end"))


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
        for f in ("a", "b", "c", "t0", "t1"):  # t0, t1 may be -inf/inf: a half-line or the line
            v = _scalar(getattr(self, f), f"parabolic piece {f}", finite=f in ("a", "b", "c"))
            object.__setattr__(self, f, v)
        if not (self.t0 <= self.t1 and self.t0 < math.inf and self.t1 > -math.inf):
            raise ValueError(f"parabolic piece needs t0 <= t1, t0 < inf and t1 > -inf: {self.t0}, {self.t1}")

    def value(self, t: float) -> float:
        return (self.a * t + self.b) * t + self.c


class _ArcTable:
    """A curve's parabolic arcs (a, b, c, t0, t1) and what their stationary
    points need of the arcs alone, computed once as the per-row formulas do.

    For a row (x, y), d/dt |(t, at^2+bt+c) - (x, y)|^2 = 0 is the cubic
        2a^2 t^3 + 3ab t^2 + (b^2 + 2a(c-y) + 1) t + (b(c-y) - x) = 0.
    Its roots are the eigenvalues of companion matrices built as np.roots
    builds them, all solved in one call (the same LAPACK routine on each
    matrix, so np.roots' bits); a cubic with a zero leading or constant
    coefficient goes through np.roots, which strips those zeros.  Each real
    root inside (t0, t1) is polished by up to three safeguarded Newton steps
    and stops at its first failed safeguard.  An arc with a = 0 is a segment
    of the line y = bt + c; its slot 0 is the foot of the perpendicular.
    """

    def __init__(self, arcs: np.ndarray):
        self.arcs, self.flat = arcs, arcs[:, 0] == 0.0
        b, c, t0, t1 = arcs[self.flat, 1:].T
        self.line = b, c, t0, t1, 1.0 + b * b
        self.curved = np.flatnonzero(~self.flat)
        self.a, self.b, self.c, self.t0, self.t1 = arcs[self.curved].T
        a, b = self.a, self.b
        self.a2, self.bb, self.p0, self.p1 = 2 * a, b * b, 2 * a * a, 3 * a * b
        self.lead, self.finite = self.p0 != 0.0, np.isfinite(self.t0)
        self.m00 = -self.p1 / np.where(self.lead, self.p0, 1.0)

    def stationary_points(self, Y: np.ndarray) -> np.ndarray:
        """Each row's polished stationary points on each arc: (m, arcs, 3), NaN if empty."""
        x, y = Y[:, 0, None], Y[:, 1, None]
        out = np.full((len(Y), len(self.arcs), 3), np.nan)
        b, c, t0, t1, bb1 = self.line
        t = (x + b * (y - c)) / bb1
        out[:, self.flat, 0] = np.where((t0 < t) & (t < t1), t, np.nan)
        if not len(self.curved) or not len(Y):
            return out
        cy = self.c - y
        p2, p3 = self.bb + self.a2 * cy + 1.0, self.b * cy - x
        whole = self.lead & (p3 != 0.0)
        i, j = np.nonzero(whole)
        M = np.zeros((len(i), 3, 3))
        M[:, 0, 0], M[:, 0, 1], M[:, 0, 2] = self.m00[j], -p2[i, j] / self.p0[j], -p3[i, j] / self.p0[j]
        M[:, 1, 0] = M[:, 2, 1] = 1.0
        roots = np.full(whole.shape + (3,), np.nan, dtype=complex)
        if len(M):
            roots[i, j] = np.linalg.eigvals(M)
        for i, j in zip(*np.nonzero(~whole)):
            r = np.roots(np.array([self.p0[j], self.p1[j], p2[i, j], p3[i, j]]))
            roots[i, j, :r.size] = r
        T = roots.real
        keep = ~(np.isnan(T) | (np.abs(roots.imag) > 1e-8 * np.maximum(1.0, np.abs(T))))
        keep &= (self.t0[:, None] - 1e-12 < T) & (T < self.t1[:, None] + 1e-12)
        i, j, k = np.nonzero(keep)  # the admitted roots, polished on one axis
        T, x, y = T[i, j, k], Y[i, 0], Y[i, 1]
        a, a2, b, c, t0, t1 = (v[j] for v in (self.a, self.a2, self.b, self.c, self.t0, self.t1))
        step = np.ones(len(T), dtype=bool)
        with np.errstate(all="ignore"):
            for _ in range(3):  # Newton on the derivative of the cubic
                u, v = a2 * T + b, a * T * T + b * T + c - y
                dg = 1.0 + np.float_power(u, 2.0) + a2 * v  # ** 2 rounds as pow does
                t_new = T - ((T - x) + v * u) / dg
                step &= (dg != 0.0) & (t0 - 1e-9 <= t_new) & (t_new <= t1 + 1e-9)
                T = np.where(step, t_new, T)
        # min(max(T, t0), t1) as Python's min and max pick, for a finite t0
        lo = np.where(t0 > T, t0, T)
        out[i, self.curved[j], k] = np.where(self.finite[j], np.where(t1 < lo, t1, lo), T)
        return out


@dataclass(frozen=True, eq=False)
class PiecewiseCurve(SetSpec):
    """A curve in R^2 given as a list of linear or parabolic pieces.

    A row's candidates are the feet on the linear pieces, then, arc by arc,
    the stationary points and the finite ends of the parabolic pieces."""

    variant = "piecewise_curve"
    _slots = property(lambda self: len(self._lin_starts) + 5 * len(self._arcs.arcs))

    pieces: tuple

    def __post_init__(self):
        ps = tuple(self.pieces)
        if not ps:
            raise ValueError("piecewise curve needs at least one piece")
        object.__setattr__(self, "pieces", ps)
        lin = [p for p in ps if isinstance(p, LinearPiece)]
        starts = np.array([p.start for p in lin]).reshape(-1, 2)
        ends = np.array([p.end for p in lin]).reshape(-1, 2)
        d = ends - starts
        dd = np.maximum(np.einsum("ij,ij->i", d, d), 1e-300)
        object.__setattr__(self, "_lin_starts", starts)
        object.__setattr__(self, "_lin_d", d)
        object.__setattr__(self, "_lin_dd", dd)
        object.__setattr__(self, "_arcs", _ArcTable(np.array(
            [[p.a, p.b, p.c, p.t0, p.t1] for p in ps if isinstance(p, ParabolicPiece)]).reshape(-1, 5)))
        object.__setattr__(self, "convex", len(ps) == 1 and len(lin) == 1)

    @property
    def dim(self) -> int:
        return 2

    def _candidates_many(self, Y):
        C = []
        if len(starts := self._lin_starts):  # the feet on the segments
            t = np.einsum("mij,ij->mi", Y[:, None, :] - starts, self._lin_d) / self._lin_dd
            C.append(starts + np.clip(t, 0.0, 1.0)[:, :, None] * self._lin_d)
        if len(arcs := self._arcs.arcs[:, None, :]):
            # each arc's stationary points, then its ends; an infinite end leaves its slot empty
            ends = np.broadcast_to(arcs[:, 0, 3:], (len(Y), len(arcs), 2))
            T = np.concatenate([self._arcs.stationary_points(Y), ends], axis=2)
            with np.errstate(invalid="ignore"):
                pts = np.stack([T, (arcs[..., 0] * T + arcs[..., 1]) * T + arcs[..., 2]], axis=-1)
            pts[~np.isfinite(T)] = np.inf
            C.append(pts.reshape(len(Y), 5 * len(arcs), 2))
        return C[0] if len(C) == 1 else np.concatenate(C, axis=1)


@dataclass(frozen=True, eq=False)
class Epigraph(SetSpec):
    """Epigraph {(t, y) : y >= f(t)} of a piecewise linear/quadratic f.

    ``breakpoints`` splits the real line into len(breakpoints)+1 intervals;
    ``pieces[i]`` holds quadratic coefficients (a, b, c) with
    f(t) = a t^2 + b t + c on the i-th interval.  The set is convex exactly
    when f is: every ``a >= 0``, no jump, and one-sided slopes that do not
    decrease at any breakpoint.  A row on or above the graph is its own only
    candidate; a row below it has its boundary's candidates.
    """

    variant = "epigraph"
    _slots = property(lambda self: self._boundary._slots)  # a row on or above the graph has 1

    breakpoints: Vector
    pieces: np.ndarray  # shape (len(breakpoints)+1, 3)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        pc = np.asarray(self.pieces, dtype=float).reshape(-1, 3)
        if pc.shape[0] != bp.size + 1:
            raise ValueError("need len(breakpoints)+1 coefficient triples")
        for name, v in (("breakpoints", bp), ("pieces", pc)):
            if not np.isfinite(v).all():
                raise ValueError(f"epigraph {name} must be finite, got {v.tolist()}")
        if bp.size > 1 and np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pieces", pc)
        # boundary: an arc per interval, then vertical segments where f jumps
        arcs: list = []
        for i, (a, b, c) in enumerate(pc):
            lo = -math.inf if i == 0 else float(bp[i - 1])
            hi = math.inf if i == bp.size else float(bp[i])
            arcs.append(ParabolicPiece(a, b, c, lo, hi))
        for i, t in enumerate(bp):
            v0, v1 = arcs[i].value(t), arcs[i + 1].value(t)
            if abs(v0 - v1) > 1e-15:
                arcs.append(LinearPiece((t, min(v0, v1)), (t, max(v0, v1))))
        object.__setattr__(self, "_boundary", PiecewiseCurve(tuple(arcs)))
        # f's slopes at each breakpoint from the left and from the right
        left, right = (2.0 * pc[s, 0] * bp + pc[s, 1] for s in (slice(-1), slice(1, None)))
        object.__setattr__(self, "convex", bool(
            np.all(pc[:, 0] >= 0) and len(arcs) == len(pc) and np.all(left <= right)))

    @property
    def dim(self) -> int:
        return 2

    def _candidates_many(self, Y):
        t = Y[:, 0]
        a, b, c = self.pieces[np.searchsorted(self.breakpoints, t, side="right")].T
        below = Y[:, 1] < (a * t + b) * t + c
        if not below.any():
            return Y[:, None, :].copy()
        Cb = self._boundary._candidates_many(Y[below])
        C = np.full((len(Y),) + Cb.shape[1:], np.inf)
        C[below] = Cb
        C[~below, 0] = Y[~below]
        return C


@dataclass(frozen=True, eq=False)
class SetUnion(SetSpec):
    """Union of member sets; multivalued projector on ties.  A row's candidates
    are its members', in member order: the tie rule, :func:`_near`, is applied by
    the selection and by :func:`nearest_candidates`, not by the union."""

    variant = "union"
    _slots = property(lambda self: sum(m._slots for m in self.members))

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

    def _candidates_many(self, Y):
        return np.concatenate([m._candidates_many(Y) for m in self.members], axis=1)

    def _distance_many(self, Y):
        return np.min([m._distance_many(Y) for m in self.members], axis=0)


Lambda = Union[WholeSpace, AffineSubspace]


def stack(sets: Sequence[SetSpec]) -> SetSpec:
    """K sets of one variant and shape as one set whose every field has a
    leading K axis; gathered by :func:`take`, its ``_project_many`` and
    ``_distance_many`` broadcast over per-row parameters.  One set is itself."""
    if len(sets) == 1:
        return sets[0]
    kinds = {type(s) for s in sets}
    if len(kinds) > 1 or not kinds <= {Halfspace, AffineSubspace, Ball, Box, FinitePointSet}:
        raise ValueError("a stack takes sets of one variant among halfspace, affine_subspace, "
                         f"ball, box and finite_point_set, got {[s.variant for s in sets]}")
    s = object.__new__(type(sets[0]))
    vars(s).update({k: np.stack([vars(t)[k] for t in sets]) for k in vars(sets[0])},
                   _members=np.arange(len(sets)))
    return s


def take(s: SetSpec, owner: np.ndarray | None) -> SetSpec:
    """Member owner[i]'s fields in row i, for one kernel call (no stack); another set is itself."""
    if owner is None or "_members" not in vars(s):
        return s
    t = object.__new__(type(s))
    vars(t).update({k: v[owner] for k, v in vars(s).items() if k != "_members"})
    return t


# ---------------------------------------------------------------------------
# core operations


def distance(s: SetSpec, x) -> float:
    """Euclidean distance from x to s (exact; 0 iff x lies in s): its kernel's one row."""
    return float(s._distance_many(as_vector(x, s.dim)[None, :])[0])


def project_all(s: SetSpec, x) -> list[Vector]:
    """All nearest points of s to x, deduplicated, in lexicographic order.

    Candidates within TIE_TOL of the minimal distance are all returned.  A
    fiber that is not finite (the sphere queried at its center) is
    represented by one canonical point.
    """
    C = nearest_candidates(s, as_vector(x, s.dim)[None, :])[0]
    return sorted_unique(list(C[np.isfinite(C[:, 0])]), max(DEDUP_TOL, TIE_TOL * 1e-2))


def nearest_candidates(s: SetSpec, Y: np.ndarray) -> np.ndarray:
    """The candidates of each row of a checked (m, dim) array within TIE_TOL
    of its nearest, its other slots +inf: the points :func:`project_all` lists."""
    C = s._candidates_many(Y)
    return np.where(_near(dot_norms(C - Y[:, None, :]))[:, :, None], C, np.inf)


def project_one(s: SetSpec, x) -> Vector:
    """Deterministic selection: the lexicographically smallest projection, the row kernel's."""
    return s._row_kernel()(as_vector(x, s.dim))


# ---------------------------------------------------------------------------
# seeded sampling and deterministic polish


def ball_points(centers, radii, seeds, indices) -> np.ndarray:
    """Row i is point indices[i] of seed seeds[i]'s uniform stream on the ball of radius radii[i]
    about centers[i], the first draws of ``default_rng([seed, index])``: n points of a seed are a
    prefix of 2n.  Each row's state is loaded into one generator, so every draw keeps its bits."""
    C = as_points(centers)
    U, R = np.empty(C.shape), np.empty(len(C))
    gen = np.random.Generator(np.random.PCG64(0))  # numpy loads numpy.random on first use
    state = {"bit_generator": "PCG64", "state": None, "has_uint32": 0, "uinteger": 0}
    for k, (st, inc) in zip(range(len(C)), pcg64_states(seeds, indices), strict=True):
        state["state"] = {"state": st, "inc": inc}
        gen.bit_generator.state = state
        U[k], R[k] = gen.standard_normal(C.shape[1]), gen.random() ** (1.0 / C.shape[1])
    nu = dot_norms(U)
    U[nu == 0.0, 0] = 1.0  # a zero draw, as unlikely as it is, points along the first axis
    nu[nu == 0.0] = 1.0
    scale = np.asarray(radii, float).reshape(len(C)) * R / nu
    return C + scale[:, None] * U


def ball_point(center, radius: float, seed: int, index: int) -> Vector:
    """The index-th point of a seed's stream on a ball: the one-row case of :func:`ball_points`."""
    return ball_points(as_vector(center)[None, :], [radius], [seed], [index])[0]


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

    ``feasible(Y, at)`` maps each row i of an (m, d) array of trials, row i
    a trial of start ``at[i]`` (a row of X0), into that start's region and
    returns ``(Y', ok)``, with ``ok`` marking the rows it admits;
    ``score(Y, at)`` scores each row.  Rows never interact: each keeps its
    own best point and step, polls the directions in a fixed order from its
    current point (moving on the first trial that beats its best by 1e-15,
    then polling the remaining directions from there), halves its step
    after a round without a move and stops below ``floor`` or after
    ``max_rounds``.  A start therefore ends where it would alone, so
    per-sample polishing keeps nested-sample estimates monotone under
    refinement.

    The poll is evaluated speculatively (the opportunistic coordinate poll
    of pattern search, Torczon, SIAM J. Optim. 1997): each pass of a round
    makes one ``feasible`` and one ``score`` call on every untried direction
    of every row still polling, all from the row's current point.  A row
    takes its first improving trial, which is the one the sequential poll
    takes, since the trials before it start from the same point and fail;
    it polls its remaining directions from the new point in the next pass,
    and a row without an improving trial ends its round.  A round thus costs
    1 + (moves) calls instead of one per direction, with the same steps.
    Returns the best score of each row and the point attaining it (-inf and
    the start for an inadmissible start).
    """

    def poll(Y, at):  # the mapped rows, their scores (-inf where not admitted), the admitted
        Y, ok = feasible(Y, at)
        if ok.all() and ok.size:
            return Y, score(Y, at), ok
        s = np.full(at.size, -math.inf)
        if ok.any():
            s[ok] = score(Y[ok], at[ok])
        return Y, s, ok

    X0 = as_points(X0)
    m = len(X0)
    X, s, ok = poll(X0, np.arange(m))
    X, best = np.where(ok[:, None], X, X0), np.where(ok, s, -math.inf)
    steps, active = np.full(m, float(step)), ok.copy()
    dirs = _polish_directions(X0.shape[1])
    n_dirs = len(dirs)
    cycle, lead = np.tile(np.arange(n_dirs), m), np.ones(m * n_dirs, dtype=bool)  # first-pass k, hit flags
    for _ in range(max_rounds):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        first = np.zeros(m, dtype=int)  # each row's first untried direction
        # the round's first pass: every row polls every direction from its point
        at, k = np.repeat(rows, n_dirs), cycle[:rows.size * n_dirs]
        Y, s, _ = poll((X[rows, None, :] + steps[rows, None, None] * dirs).reshape(at.size, -1), at)
        while True:
            hits = np.flatnonzero(s > best[at] + 1e-15)
            lead[1:hits.size] = at[hits[1:]] != at[hits[:-1]]
            hits = hits[lead[:hits.size]]  # each row's first improving trial
            moved = at[hits]
            X[moved] = Y[hits]
            best[moved] = s[hits]
            first[moved] = k[hits] + 1
            pending = moved[first[moved] < n_dirs]
            if pending.size == 0:
                break
            # a later pass: each row's untried directions in order, from its new point
            r, k = np.nonzero(np.arange(n_dirs) >= first[pending, None])
            at = pending[r]
            Y, s, _ = poll(X[at] + steps[at, None] * dirs[k], at)
        halved = rows[first[rows] == 0]  # no move this round
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

    def feasible_rows(Y, at):
        ys = [feasible(y) for y in Y]
        ok = np.array([y is not None for y in ys], dtype=bool)
        return np.array([t if y is None else y for y, t in zip(ys, Y)]).reshape(Y.shape), ok

    def score_rows(Y, at):
        return np.array([score(y) for y in Y], dtype=float)

    best, X = ascend(np.asarray(x0, dtype=float)[None, :],
                     score_rows, feasible_rows, step, max_rounds, floor)
    return float(best[0]), X[0]
