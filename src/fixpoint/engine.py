"""Fixed-point operators of a pair of sets A, B, and trace recording.

Operators are evaluated two ways: :func:`apply` uses the deterministic
projection selection at every stage (what the iteration follows), while
:func:`candidates` enumerates the full multivalued image so that
:func:`residual_map` can take the infimum over it.  Each operator class
implements both as methods on a checked float vector.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .floatrepr import repr_rows
from .geometry import (
    DEDUP_TOL,
    Lambda,
    SetSpec,
    Target,
    Vector,
    as_target,
    as_vector,
    norm,
    project_all,
    project_one,
    row_norms,
    sorted_unique,
)


@dataclass(frozen=True, eq=False)
class _SetPair:
    """An operator built from two sets; iterates start on A."""

    A: SetSpec
    B: SetSpec


class AlternatingProjections(_SetPair):
    """T = P_A o P_B."""

    def apply(self, x):
        return self.A._project(self.B._project(x))

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
        rb = 2.0 * self.B._project(x) - x
        ra = 2.0 * self.A._project(rb) - rb
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


OperatorSpec = Union[AlternatingProjections, DouglasRachford]


def apply(op: OperatorSpec, x) -> Vector:
    """Single-valued evaluation via the deterministic selection at each stage.
    x is checked here once; ``op.apply`` takes a checked vector."""
    return op.apply(as_vector(x, op.A.dim))


def candidates(op: OperatorSpec, x) -> list[Vector]:
    """Full multivalued image Tx as a finite candidate list."""
    return op.candidates(np.asarray(x, dtype=float))


def residual_map(op: OperatorSpec, x) -> float:
    """dist(0, Tx - x): the infimum of ||x+ - x|| over the candidate image."""
    x = np.asarray(x, dtype=float)
    return min(norm(y - x) for y in candidates(op, x))


def residual_map_many(op: OperatorSpec, X: np.ndarray) -> np.ndarray:
    """:func:`residual_map` of each row of a checked (m, d) array.  A pair of
    closed-form sets has one candidate per row, computed for all rows at
    once; other pairs go row by row."""
    if op.A.closed_form and op.B.closed_form:
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


def settle_many(op: OperatorSpec, X: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """:func:`iterates` of T from every row of a checked (m, d) array in
    lockstep: each row's iterate at which its step is first <= tol, or its
    max_iter-th (the row itself for max_iter = 0).  The rows still moving
    step together through ``op._image_many``; rows never interact, so a
    row's limit does not depend on the others."""
    X = X.copy()
    rows = np.arange(len(X))
    for _ in range(max_iter):
        if rows.size == 0:
            break
        Y = op._image_many(X[rows])
        r = row_norms(Y - X[rows])
        X[rows] = Y
        rows = rows[r > tol]
    return X


def check_stop_rule(max_iter: int, residual_tol: float) -> None:
    """:func:`run` stops after max_iter >= 1 steps or one <= residual_tol, a finite number > 0."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not (math.isfinite(residual_tol) and residual_tol > 0):
        raise ValueError(f"residual_tol must be a finite number > 0, got {residual_tol}")


@dataclass
class IterationConfig:
    seed_point: Vector
    max_iter: int = 100_000
    residual_tol: float = 1e-12
    lam: Lambda | None = None
    target: Target | None = None  # None: the limit

    def __post_init__(self):
        self.seed_point = as_vector(self.seed_point)
        check_stop_rule(self.max_iter, self.residual_tol)
        if self.target is not None:
            self.target = as_target(self.target, self.seed_point.size, "target")


#: per-iterate scalar columns, in CSV order
COLUMNS = ("dist_A", "dist_B", "dist_target", "step_norm", "residual")


#: values per block of a column when a trace is written
WRITE_BLOCK = 2048


def _json_list(rows: list[str], depth: int):
    """Chunks of a top-level list as ``json.dumps(indent=1)`` lays it out:
    of points (depth 2, a row string each) or numbers (depth 1, row strings
    of consecutive values), non-finite floats as the json module writes them."""
    if not rows:
        yield "[]"
        return
    head, sep, tail = (("\n  [\n   ", "\n  ],\n  [\n   ", "\n  ]") if depth == 2
                       else ("\n  ", ", ", ""))
    pad = ",\n" + " " * (depth + 1)
    yield "["
    for i in range(0, len(rows), WRITE_BLOCK):
        text = (head + sep.join(rows[i:i + WRITE_BLOCK]) + tail).replace(", ", pad)
        yield ("," if i else "") + text.replace("nan", "NaN").replace("inf", "Infinity")
    yield "\n ]"


@dataclass
class Trace:
    """Full iteration record of a fixed-point run: x and b as (n, d) arrays
    (b has no rows where none is recorded), one list of floats per column."""

    x: np.ndarray
    b: np.ndarray
    dist_A: list
    dist_B: list
    dist_target: list
    residual: list
    step_norm: list
    stop_reason: str
    metadata: dict = field(default_factory=dict)

    @classmethod
    def record(cls, xs, A, B, target, residual, stop_reason, metadata, b=(), steps=None) -> "Trace":
        """The one trace builder: checked iterates xs (with b_k = P_B x_k, if
        any) and their distances to A, B and the target (the last iterate if
        None), one batched kernel call per column; with b and a convex B,
        dist_B is ||x_k - b_k||.  steps[k] = ||x_{k+1} - x_k|| is computed
        unless given."""
        X = np.array(xs, dtype=float)
        Bk = np.array(b, dtype=float).reshape(-1, X.shape[1])
        target = as_target(target if target is not None else X[-1:], X.shape[1], "target")
        if steps is None:
            D = np.diff(X, axis=0)
            steps = np.sqrt(np.vecdot(D, D)).tolist()  # rounded as norm() rounds each
        # a nonconvex B's selected b_k may lie up to TIE_TOL beyond its nearest point
        from_b = len(Bk) > 0 and B.convex
        return cls(
            x=X,
            b=Bk,
            dist_A=A._distance_many(X).tolist(),
            dist_B=(row_norms(Bk - X) if from_b else B._distance_many(X)).tolist(),
            dist_target=target._distance_many(X).tolist(),
            residual=residual,
            step_norm=[*steps, 0.0],
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
    def z(self) -> np.ndarray:
        """The joining sequence x_0, b_0, x_1, b_1, ... (no rows without b)."""
        n = len(self.b)
        return np.stack((self.x[:n], self.b), axis=1).reshape(2 * n, self.x.shape[1])

    def write(self, csv_file=None, json_file=None) -> None:
        """Stream trace.csv and trace.json into open text files.

        trace.csv has a header and one row per iterate (b_k blank where none
        is recorded).  trace.json is what ``json.dumps(..., sort_keys=True,
        indent=1)`` writes for x, b, the columns, stop_reason and metadata (not
        ``z``, which x and b determine).  Each float is formatted once, to its
        shortest round-trip repr (:func:`floatrepr.repr_rows`): one string
        per row of x and of b and per block of a column.
        """
        dim = self.x.shape[1]
        columns = np.array([getattr(self, name) for name in COLUMNS], dtype=float)
        x_rows, b_rows, *blocks = repr_rows(self.x, self.b, *(
            columns[:, i:i + WRITE_BLOCK] for i in range(0, len(self.x), WRITE_BLOCK)))
        if csv_file is not None:
            csv_file.write(",".join(["k", *(f"x_{i}" for i in range(dim)),
                                     *(f"b_{i}" for i in range(dim)), *COLUMNS]) + "\n")
            bs = b_rows + [", " * (dim - 1)] * (len(x_rows) - len(b_rows))
            for i, block in zip(range(0, len(x_rows), WRITE_BLOCK), blocks):
                rows = zip(map(str, range(i, len(x_rows))), x_rows[i:i + WRITE_BLOCK],
                           bs[i:i + WRITE_BLOCK], *(t.split(", ") for t in block))
                csv_file.write("\n".join(map(", ".join, rows)).replace(", ", ",") + "\n")
        if json_file is not None:
            items = {
                "x": _json_list(x_rows, 2),
                "b": _json_list(b_rows, 2),
                **{name: _json_list([block[c] for block in blocks], 1)
                   for c, name in enumerate(COLUMNS)},
                "stop_reason": [json.dumps(self.stop_reason)],
                "metadata": [json.dumps(self.metadata, sort_keys=True, indent=1)
                             .replace("\n", "\n ")],
            }
            for n, key in enumerate(sorted(items)):
                json_file.write(f'{"," if n else "{"}\n "{key}": ')
                json_file.writelines(items[key])
            json_file.write("\n}")

    def to_csv_text(self) -> str:
        """trace.csv as a string."""
        buf = io.StringIO()
        self.write(csv_file=buf)
        return buf.getvalue()


def run(op: OperatorSpec, cfg: IterationConfig) -> Trace:
    """Iterate x_{k+1} = T x_k until the residual drops below tolerance.

    The raw seed is projected onto the constraint set (if any) and then onto
    A, so recorded iterates start on A; the raw seed is kept in the
    metadata.  For alternating projections the intermediate B-projections
    b_k are recorded as well, and with them the joining sequence
    ``Trace.z``.  residual[k] is the step length from x_k.
    """
    A, B = op.A, op.B
    x0 = cfg.seed_point
    raw_seed = x0.copy()
    if cfg.lam is not None:
        x0 = project_one(cfg.lam, x0)
    x0 = project_one(A, x0)

    record_b = isinstance(op, AlternatingProjections)
    bs: list[Vector] = []

    def step(x: Vector) -> Vector:
        # x0 is checked above, and every iterate is a kernel's output
        if not record_b:
            return op.apply(x)
        bs.append(B._project(x))  # b_k, reused for x_{k+1} = P_A b_k
        return A._project(bs[-1])

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
    return Trace.record(xs, A, B, cfg.target, residuals, stop_reason, metadata, bs,
                        steps=residuals[:len(xs) - 1])


def trace_to_json_text(trace: Trace) -> str:
    """trace.json as a string."""
    buf = io.StringIO()
    trace.write(json_file=buf)
    return buf.getvalue()
