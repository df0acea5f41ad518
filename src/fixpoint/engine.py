"""Fixed-point operators assembled from projectors, and trace recording.

Operators are evaluated two ways: :func:`apply` uses the deterministic
projection selection at every stage (what the iteration follows), while
:func:`candidates` enumerates the full multivalued image so that
:func:`residual_map` can take the infimum over it.  Each operator class
implements both as methods on a float vector, and ``sets()`` gives the set
pair of its first stage (iterates start on the first set).
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .geometry import (
    DEDUP_TOL,
    Lambda,
    SetSpec,
    Vector,
    as_target,
    as_vector,
    distance,
    norm,
    project_all,
    project_one,
    row_norms,
    sample_ball,
    sorted_unique,
    target_distance,
)


@dataclass(frozen=True, eq=False)
class _SetPair:
    """An operator built from two sets; iterates start on A."""

    A: SetSpec
    B: SetSpec

    def sets(self):
        return self.A, self.B


class AlternatingProjections(_SetPair):
    """T = P_A o P_B."""

    def apply(self, x):
        return project_one(self.A, project_one(self.B, x))

    def _image_many(self, X):
        return self.A._project_many(self.B._project_many(X))

    def candidates(self, x):
        out = []
        for b in project_all(self.B, x):
            out.extend(project_all(self.A, b))
        return sorted_unique(out, DEDUP_TOL)


class DouglasRachford(_SetPair):
    """T = (Id + R_A R_B) / 2 with reflectors R_C = 2 P_C - Id."""

    def apply(self, x):
        rb = 2.0 * project_one(self.B, x) - x
        ra = 2.0 * project_one(self.A, rb) - rb
        return 0.5 * (x + ra)

    def candidates(self, x):
        out = []
        for pb in project_all(self.B, x):
            rb = 2.0 * pb - x
            for pa in project_all(self.A, rb):
                out.append(0.5 * (x + 2.0 * pa - rb))
        return sorted_unique(out, DEDUP_TOL)

    def _image_many(self, X):
        # the candidates' formula, which rounds differently from apply's
        rb = 2.0 * self.B._project_many(X) - X
        return 0.5 * (X + 2.0 * self.A._project_many(rb) - rb)


@dataclass(frozen=True, eq=False)
class Projector:
    """T = P_S."""

    S: SetSpec

    def apply(self, x):
        return project_one(self.S, x)

    def candidates(self, x):
        return list(project_all(self.S, x))

    def sets(self):
        return self.S, None


@dataclass(frozen=True, eq=False)
class Relaxation:
    """T = (1 - alpha) Id + alpha * inner, alpha in (0, 1)."""

    inner: "OperatorSpec"
    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not 0.0 < a < 1.0:
            raise ValueError("relaxation parameter must lie in (0, 1)")
        object.__setattr__(self, "alpha", a)

    def apply(self, x):
        return (1.0 - self.alpha) * x + self.alpha * apply(self.inner, x)

    def candidates(self, x):
        a = self.alpha
        return sorted_unique([(1.0 - a) * x + a * y for y in candidates(self.inner, x)], DEDUP_TOL)

    def sets(self):
        return self.inner.sets()


@dataclass(frozen=True, eq=False)
class Composition:
    """Stages applied left to right: T = stages[-1] o ... o stages[0]."""

    stages: tuple

    def __post_init__(self):
        st = tuple(self.stages)
        if not st:
            raise ValueError("composition needs at least one stage")
        object.__setattr__(self, "stages", st)

    def apply(self, x):
        for stage in self.stages:
            x = apply(stage, x)
        return x

    def candidates(self, x):
        pts = [x]
        for stage in self.stages:
            pts = sorted_unique([y for p in pts for y in candidates(stage, p)], DEDUP_TOL)
        return pts

    def sets(self):
        return self.stages[0].sets()


OperatorSpec = Union[
    AlternatingProjections, DouglasRachford, Projector, Relaxation, Composition
]


def apply(op: OperatorSpec, x) -> Vector:
    """Single-valued evaluation via the deterministic selection at each stage."""
    return op.apply(np.asarray(x, dtype=float))


def candidates(op: OperatorSpec, x) -> list[Vector]:
    """Full multivalued image Tx as a finite candidate list."""
    return op.candidates(np.asarray(x, dtype=float))


def residual_map(op: OperatorSpec, x) -> float:
    """dist(0, Tx - x): the infimum of ||x+ - x|| over the candidate image."""
    x = np.asarray(x, dtype=float)
    return min(norm(y - x) for y in candidates(op, x))


def residual_map_many(op: OperatorSpec, X: np.ndarray) -> np.ndarray:
    """:func:`residual_map` of each row of a checked (m, d) array.  A
    projection pair of closed-form sets has one candidate per row, computed
    for all rows at once; other operators go row by row."""
    if isinstance(op, _SetPair) and op.A.closed_form and op.B.closed_form:
        return row_norms(op._image_many(X) - X)
    return np.array([residual_map(op, x) for x in X], dtype=float)


def iterates(step, x: Vector, tol: float, max_iter: int):
    """The one loop that applies an operator repeatedly: yields
    (x_{k+1}, ||x_{k+1} - x_k||) for x_{k+1} = step(x_k), at most max_iter
    times, and stops after the first step of length <= tol."""
    for _ in range(max_iter):
        x_next = step(x)
        r = norm(x_next - x)
        yield x_next, r
        if r <= tol:
            return
        x = x_next


def settle(op: OperatorSpec, x: Vector, tol: float, max_iter: int) -> Vector:
    """The iterate of T from x at which a step is first <= tol (or the last)."""
    for x, _ in iterates(lambda y: apply(op, y), x, tol, max_iter):
        pass
    return x


@dataclass
class IterationConfig:
    seed_point: Vector
    max_iter: int = 100_000
    residual_tol: float = 1e-12
    lam: Lambda | None = None
    target: SetSpec | Sequence[Vector] | None = None

    def __post_init__(self):
        self.seed_point = as_vector(self.seed_point)
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be > 0")


#: per-iterate scalar columns, in CSV order
COLUMNS = ("dist_A", "dist_B", "dist_target", "step_norm", "residual")


@dataclass
class Trace:
    """Full iteration record of a fixed-point run."""

    x: list
    b: list
    dist_A: list
    dist_B: list
    dist_target: list
    residual: list
    step_norm: list
    stop_reason: str
    metadata: dict = field(default_factory=dict)

    @classmethod
    def record(cls, xs, A, B, target, residual, stop_reason, metadata, b=()) -> "Trace":
        """The one trace builder: iterates xs (with b_k = P_B x_k, if any) and
        their distances to A, B and the target (the last iterate if None)."""
        target = as_target(target if target is not None else [xs[-1]])
        return cls(
            x=xs,
            b=list(b),
            dist_A=[distance(A, p) if A is not None else math.nan for p in xs],
            dist_B=[distance(B, p) if B is not None else math.nan for p in xs],
            dist_target=[target_distance(p, target) for p in xs],
            residual=residual,
            step_norm=[norm(xs[k + 1] - xs[k]) for k in range(len(xs) - 1)] + [0.0],
            stop_reason=stop_reason,
            metadata=metadata,
        )

    @property
    def limit(self) -> Vector:
        return self.x[-1]

    @property
    def solved_at(self) -> int | None:
        """The first k at which x_k lies in A and in B (to 1e-12), if any."""
        return next((k for k, (da, db) in enumerate(zip(self.dist_A, self.dist_B))
                     if da <= 1e-12 and db <= 1e-12), None)

    @property
    def z(self) -> list:
        """The joining sequence x_0, b_0, x_1, b_1, ... (empty without b)."""
        return [p for pair in zip(self.x, self.b) for p in pair]

    def to_json_dict(self) -> dict:
        out = {name: [[float(t) for t in p] for p in getattr(self, name)]
               for name in ("x", "b", "z")}
        for name in COLUMNS:
            out[name] = [float(t) for t in getattr(self, name)]
        out["stop_reason"] = self.stop_reason
        out["metadata"] = self.metadata
        return out

    def to_csv_text(self) -> str:
        """CSV with one row per iterate; floats in shortest round-trip form."""
        dim = self.x[0].size
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["k", *(f"x_{i}" for i in range(dim)), *(f"b_{i}" for i in range(dim)),
                    *COLUMNS])
        columns = [getattr(self, name) for name in COLUMNS]
        for k, xk in enumerate(self.x):
            bk = [repr(float(t)) for t in self.b[k]] if k < len(self.b) else [""] * dim
            w.writerow([str(k), *(repr(float(t)) for t in xk), *bk,
                        *(repr(float(col[k])) for col in columns)])
        return buf.getvalue()


def run(op: OperatorSpec, cfg: IterationConfig) -> Trace:
    """Iterate x_{k+1} = T x_k until the residual drops below tolerance.

    The raw seed is projected onto the constraint set (if any) and then onto
    the operator's first set, so recorded iterates start on it; the raw seed
    is kept in the metadata.  For projection pairs the intermediate
    B-projections b_k are recorded as well, and with them the joining
    sequence ``Trace.z``.  residual[k] is the step length from x_k.
    """
    A, B = op.sets()
    x0 = cfg.seed_point
    raw_seed = x0.copy()
    if cfg.lam is not None:
        x0 = project_one(cfg.lam, x0)
    if A is not None:
        x0 = project_one(A, x0)

    record_b = isinstance(op, AlternatingProjections)
    bs: list[Vector] = []

    def step(x: Vector) -> Vector:
        if not record_b:
            return apply(op, x)
        bs.append(project_one(B, x))  # b_k, reused for x_{k+1} = P_A b_k
        return project_one(A, bs[-1])

    xs, residuals = [x0], []
    for x_next, r in iterates(step, x0, cfg.residual_tol, cfg.max_iter):
        xs.append(x_next)
        residuals.append(r)
    if residuals[-1] <= cfg.residual_tol:
        stop_reason = "fixed_point"
        xs.pop()  # x_k is the limit: its step is below tolerance
    else:
        stop_reason = "max_iter"
        residuals.append(norm(step(xs[-1]) - xs[-1]))

    metadata = {
        "raw_seed": [float(t) for t in raw_seed],
        "seed_point": [float(t) for t in x0],
        "operator": type(op).__name__,
    }
    return Trace.record(xs, A, B, cfg.target, residuals, stop_reason, metadata, bs)


def approximate_fix_set(
    op: OperatorSpec,
    center,
    radius: float,
    budget: int,
    lam: Lambda | None = None,
    seed: int = 0,
    residual_tol: float = 1e-9,
    cluster_tol: float = 1e-6,
    max_iter: int = 5000,
) -> list[Vector]:
    """Multi-start approximation of the fixed point set inside a ball.

    Runs the iteration from ``budget`` seeded starts and returns the
    deduplicated limit points whose residual (infimum over the multivalued
    image) is below tolerance.  This is a sampling certificate for the fixed
    point set, not the exact set; an empty result triggers a warning.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    center = as_vector(center)
    limits: list[Vector] = []
    for start in sample_ball(center, radius, budget, seed):
        if lam is not None:
            start = project_one(lam, start)
        x = settle(op, start, residual_tol * 1e-2, max_iter)
        if residual_map(op, x) <= residual_tol:
            limits.append(x)
    limits.sort(key=lambda p: tuple(p))
    out: list[Vector] = []
    for p in limits:
        if any(norm(p - q) <= cluster_tol for q in out):
            continue
        out.append(p)
    if not out:
        warnings.warn("no start converged within budget; fixed-point sample empty")
    return out


def trace_to_json_text(trace: Trace) -> str:
    return json.dumps(trace.to_json_dict(), sort_keys=True, indent=1)
