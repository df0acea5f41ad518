"""Fixed-point operators of a pair of sets A, B, and trace recording.

An operator is one class, which states its two stage formulas once and in
``records_b`` whether its trace has b_k = P_B x_k, and one row of
:data:`OPERATORS`.  ``_image_many`` evaluates the formulas with each stage's
batched deterministic selection (:func:`settle_many` steps it, :func:`apply`
is its one row), ``_candidates_many`` over every candidate of both stages, the
multivalued image, whose infimum :func:`residual_map_many` takes in blocks of
rows; :func:`run`'s loop follows them with each set's scalar kernel and
records only the iterates, from which :meth:`Trace.record` computes the rest.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .floatrepr import CHUNK, JSON, layout, templates
from .geometry import (
    DEDUP_TOL,
    Lambda,
    SetSpec,
    Target,
    Vector,
    as_target,
    as_vector,
    by_blocks,
    dot_norms,
    nearest_candidates,
    project_one,
    sorted_unique,
    take,
)


@dataclass(frozen=True, eq=False)
class _SetPair:
    """An operator built from two sets; iterates start on A.  Its stages: the
    y that A's stage projects is ``_enter(x, P_B x)``, and T x is ``_leave(x, y, P_A y)``."""

    A: SetSpec
    B: SetSpec
    records_b = False  #: whether a run's trace has b_k, and with it the joining sequence
    dim = property(lambda self: self.A.dim, doc="the dimension of the points it maps: A's")
    #: the block budget of every reduction over candidate images
    _slots = property(lambda self: self.A._slots * self.B._slots)

    def _image_many(self, X, owner=None):
        Y = self._enter(X, take(self.B, owner)._project_many(X))
        return self._leave(X, Y, take(self.A, owner)._project_many(Y))

    def _candidates_many(self, X, owner=None):
        """(m, kB, kA, d): row i's image via B's j-th and A's l-th nearest candidates, or +inf."""
        PB = nearest_candidates(take(self.B, owner), X)
        i, j = np.nonzero(np.isfinite(PB[..., 0]))
        Y = self._enter(X[i], PB[i, j])
        PA = nearest_candidates(take(self.A, None if owner is None else owner[i]), Y)
        k, l = np.nonzero(np.isfinite(PA[..., 0]))
        C = np.full(PB.shape[:2] + PA.shape[1:], np.inf)
        C[i[k], j[k], l] = self._leave(X[i[k]], Y[k], PA[k, l])
        return C


class AlternatingProjections(_SetPair):
    """T = P_A o P_B."""

    records_b = True
    _enter = staticmethod(lambda x, pb: pb)
    _leave = staticmethod(lambda x, y, pa: pa)


class DouglasRachford(_SetPair):
    """T = (Id + R_A R_B) / 2 with reflectors R_C = 2 P_C - Id: A's stage projects R_B x."""

    # p + p is 2.0 * p bit for bit (doubling is exact), without converting 2.0 on each call
    _enter = staticmethod(lambda x, pb: pb + pb - x)
    _leave = staticmethod(lambda x, y, pa: 0.5 * (x + ((pa + pa) - y)))


#: each operator by the name the CLI gives it
OPERATORS = {"ap": AlternatingProjections, "dr": DouglasRachford}
OperatorSpec = _SetPair


def apply(op: OperatorSpec, x) -> Vector:
    """T x via the deterministic selection at each stage: ``op._image_many``'s one row."""
    return op._image_many(as_vector(x, op.dim)[None, :])[0]


def candidates(op: OperatorSpec, x) -> list[Vector]:
    """The image Tx, deduplicated, in lexicographic order: ``op._candidates_many``'s one row."""
    C = op._candidates_many(as_vector(x, op.dim)[None, :]).reshape(-1, op.dim)
    return sorted_unique(list(C[np.isfinite(C[:, 0])]), DEDUP_TOL)


def residual_map(op: OperatorSpec, x) -> float:
    """dist(0, Tx - x), the least ||x+ - x|| over Tx: :func:`residual_map_many`'s one row."""
    return float(residual_map_many(op, as_vector(x, op.dim)[None, :])[0])


def residual_map_many(op: OperatorSpec, X: np.ndarray,
                      owner: np.ndarray | None = None) -> np.ndarray:
    """:func:`residual_map` of each row i of a checked (m, d) array (under
    pair owner[i] of stacked sets): a pair of one-candidate sets' one image of
    every row at once, another pair's least dot_norms over its image, by blocks."""
    if op._slots == 1:
        return dot_norms(op._image_many(X, owner) - X)
    return by_blocks(len(X), lambda r: dot_norms(op._candidates_many(
        X[r], None if owner is None else owner[r]) - X[r, None, None, :]).min(axis=(1, 2)),
        op._slots)


def settle_many(op: OperatorSpec, X: np.ndarray, tol: float, max_iter: int,
                owner: np.ndarray | None = None) -> np.ndarray:
    """:func:`run`'s iteration of T from every row i of a checked (m, d) array
    in lockstep, under pair owner[i] of stacked sets: each row's iterate at
    which its step is first <= tol, or its max_iter-th (the row itself for
    max_iter = 0).  The rows still moving step together through
    ``op._image_many``; rows never interact."""
    X = X.copy()
    rows = np.arange(len(X))
    for _ in range(max_iter):
        if rows.size == 0:
            break
        Y = op._image_many(X[rows], None if owner is None else owner[rows])
        r = dot_norms(Y - X[rows])
        X[rows] = Y
        rows = rows[r > tol]
    return X


def check_stop_rule(max_iter: int, residual_tol: float) -> None:
    """:func:`run` stops after max_iter >= 1 steps or one <= residual_tol, a finite number > 0."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not (math.isfinite(residual_tol) and residual_tol > 0):
        raise ValueError(f"residual_tol must be a finite number > 0, got {residual_tol}")


#: per-iterate scalar columns, in CSV order
COLUMNS = ("dist_A", "dist_B", "dist_target", "step_norm", "residual")


#: floats per block when a trace is written: a block is one call of the float
#: kernel, so that its work arrays stay bounded, and is laid out for each file
WRITE_BLOCK = CHUNK
#: characters of a trace.json list held in memory before its spill moves to a
#: temporary file, so that a short trace's lists never touch the disk
SPILL_CHARS = 2**13


@dataclass
class Trace:
    """Full iteration record of a fixed-point run: x as an (n, d) array, b
    as one too or with no rows (an operator that records no b_k), and each
    column a float64 array with one entry per iterate."""

    x: np.ndarray
    b: np.ndarray
    dist_A: np.ndarray
    dist_B: np.ndarray
    dist_target: np.ndarray
    residual: np.ndarray
    step_norm: np.ndarray
    stop_reason: str
    metadata: dict = field(default_factory=dict)

    @classmethod
    def record(cls, xs, A, B, target, last_step, stop_reason, metadata,
               records_b=False) -> "Trace":
        """The one trace builder: checked iterates xs (a float64 array is kept,
        not copied) and every other column, each one batched call over them:
        b_k = P_B x_k if records_b; the distances to A, B and the target (the
        last iterate if None), which :func:`geometry.distance` equals bit for
        bit; step_norm[k] = ||x_{k+1} - x_k||, 0.0 at the end; and residual[k],
        the step from x_k: step_norm[k], but the loop's last_step at the end
        (all NaN if None, as for a shipped sequence)."""
        X = np.asarray(xs, dtype=float)
        target = as_target(target if target is not None else X[-1:], X.shape[1], "target")
        steps = dot_norms(np.diff(X, axis=0))
        residual = np.full(len(X), math.nan) if last_step is None else np.append(steps, last_step)
        return cls(
            x=X,
            b=B._project_many(X) if records_b else np.empty((0, X.shape[1])),
            dist_A=A._distance_many(X),
            dist_B=B._distance_many(X),
            dist_target=target._distance_many(X),
            residual=residual,
            step_norm=np.append(steps, 0.0),
            stop_reason=stop_reason,
            metadata=metadata,
        )

    @property
    def limit(self) -> Vector:
        return self.x[-1]

    @property
    def solved_at(self) -> int | None:
        """The first k at which x_k lies in A and in B (to 1e-12), if any."""
        solved = np.flatnonzero((self.dist_A <= 1e-12) & (self.dist_B <= 1e-12))
        return int(solved[0]) if solved.size else None

    @property
    def z(self) -> np.ndarray:
        """The joining sequence x_0, b_0, x_1, b_1, ... (no rows without b)."""
        return np.stack((self.x[:len(self.b)], self.b), axis=1).reshape(-1, self.x.shape[1])

    def _blocks(self):
        """Each block of the rows WRITE_BLOCK floats fill as (its first row,
        its fields (rows, width + 5, FIELD)), formatted in one templates call;
        width is x_k's and, where b has rows, b_k's.  step_norm's fields are
        residual's where the two hold the same bits, so only the others are
        formatted: a loop's last row, or a shipped sequence's every row."""
        n, dim = self.x.shape
        points = (self.x, self.b) if len(self.b) else (self.x,)
        width = dim * len(points)
        # step_norm's index, where residual sits in a row without step_norm
        # (it is the column after it); its fields are a copy of residual's
        at = width + COLUMNS.index("step_norm")
        cols = width + len(COLUMNS) - 1  # x_k, b_k and the columns but step_norm
        rows = max(1, WRITE_BLOCK // (cols + 1))
        for i in range(0, n, rows):
            step, res = self.step_norm[i:i + rows], self.residual[i:i + rows]
            moved = np.flatnonzero(step.view(np.uint64) != res.view(np.uint64))
            m = step.size * cols
            grid = np.zeros(m + moved.size)  # the block's rows, then its moved step_norms
            G = grid[:m].reshape(step.size, cols)
            for j, p in enumerate(points):
                G[:, j * dim:(j + 1) * dim] = p[i:i + rows]
            G[:, width:] = np.transpose([getattr(self, name)[i:i + rows]
                                         for name in COLUMNS if name != "step_norm"])
            grid[m:] = step[moved]
            T = templates(grid)
            F = T[:m].reshape(step.size, cols, -1)
            F = np.insert(F, at, F[:, at], axis=1)
            F[moved, at] = T[m:]
            yield i, F
            del grid, G, T, F  # before the next block's are made

    def write(self, csv_file, json_file) -> None:
        """Stream trace.csv and trace.json into open text files; b must have a
        row per iterate or none, else ValueError and nothing is written.

        trace.csv has a header and one row per iterate (b_k blank without b).
        trace.json is what ``json.dumps(..., sort_keys=True, indent=1)`` writes
        for x, b, the columns, stop_reason and metadata (not ``z``, which x and
        b determine).  Each float the files hold is formatted once, to its
        shortest round-trip repr (:func:`floatrepr.templates`), a block of rows
        at a time (:meth:`_blocks`), and laid out for each file with its
        separators and spelling of nan and inf (:func:`floatrepr.layout`).
        trace.json's keys are sorted, so x comes last: each list's blocks go to
        a spill of its own, copied into json_file when the pass ends and closed
        on every way out.  So the writer holds one block, never a file's text."""
        (n, dim), nb = self.x.shape, len(self.b)
        if nb not in (0, n):
            raise ValueError(f"b has {nb} rows for {n} iterates: it needs one per iterate or none")
        point = {"sep": ",\n   ", "end": "\n  ]", "prefix": ",\n  [\n   ", "spelling": JSON}
        value = {"sep": ",\n  ", "prefix": ",\n  ", "spelling": JSON, "each_row": True}
        csv_file.write(",".join(["k", *(f"x_{i}" for i in range(dim)),
                                 *(f"b_{i}" for i in range(dim)), *COLUMNS]) + "\n")
        with contextlib.ExitStack() as stack:
            spills = {name: stack.enter_context(
                tempfile.SpooledTemporaryFile(SPILL_CHARS, "w+", encoding="utf-8"))
                for name in ("x", "b", *COLUMNS) if (nb if name == "b" else n)}
            for i, F in self._blocks():
                texts = {"x": layout(F[:, :dim], **point)}
                if nb:
                    texts["b"] = layout(F[:, dim:-len(COLUMNS)], **point)
                texts.update(zip(COLUMNS, layout(F[:, -len(COLUMNS):].transpose(1, 0, 2), **value)))
                for name, text in texts.items():
                    # each block's items are led by a comma, which the list's first drops
                    spills[name].write(text[1:] if i == 0 else text)
                F = F if nb else np.insert(F, [dim] * dim, 0, axis=1)  # blank b_k fields
                csv_file.write(layout(F, sep=",", end="\n", prefix=",", index=i))
                del F
            # the metadata laid out as the value of a top-level key
            metadata = json.dumps({"metadata": self.metadata}, sort_keys=True, indent=1)
            values = {"stop_reason": json.dumps(self.stop_reason),
                      "metadata": metadata[len('{\n "metadata": '):-len("\n}")]}
            for k, key in enumerate(sorted(["x", "b", *COLUMNS, *values])):
                json_file.write(f'{"," if k else "{"}\n "{key}": ')
                if key in spills:
                    json_file.write("[")
                    spills[key].seek(0)
                    shutil.copyfileobj(spills[key], json_file)
                    json_file.write("\n ]")
                else:
                    json_file.write(values.get(key, "[]"))  # an empty list
            json_file.write("\n}")

    def to_csv_text(self) -> str:
        """trace.csv as a string."""
        self.write(buf := io.StringIO(), io.StringIO())  # the JSON is discarded
        return buf.getvalue()


#: rows :func:`run` allots before its first doubling
_FIRST_ROWS = 64


def run(op: OperatorSpec, seed_point, max_iter: int = 100_000, residual_tol: float = 1e-12,
        lam: Lambda | None = None, target: Target | None = None) -> Trace:
    """Iterate x_{k+1} = T x_k from seed_point until a step is at most
    residual_tol, or for max_iter steps; distances are taken to target (the
    limit if None).

    The raw seed is projected onto the constraint set lam (if any) and then
    onto A, so recorded iterates start on A; the raw seed is kept in the
    metadata.  An operator with ``records_b`` (alternating projections) has
    the intermediate B-projections b_k in its trace as well, and with them the
    joining sequence ``Trace.z``.  residual[k] is the step length from x_k.
    The seed, the stop rule and the target are checked before the first step.

    The loop writes x_k alone into the rows of one float64 array, which
    starts with _FIRST_ROWS rows, doubles in place when full and is trimmed
    in place to the iterates at the end (a run that never doubled keeps a
    copy of its rows); :meth:`Trace.record` takes it without a copy and
    computes b_k, the steps and the distances from it after the loop, so no
    list of one array per iterate is ever built.
    """
    A, B = op.A, op.B
    seed_point = as_vector(seed_point)
    check_stop_rule(max_iter, residual_tol)
    if target is not None:
        target = as_target(target, seed_point.size, "target")
    x0 = project_one(A, seed_point if lam is None else project_one(lam, seed_point))

    # the one loop: x0 is checked above, and every iterate is a kernel's
    # output; after max_iter steps one more is taken, for the last residual.
    # No view of X exists while the loop runs, so its resizes skip numpy's
    # reference check, and the allocator may grow or trim it without a copy
    PA, PB, enter, leave = A._row_kernel(), B._row_kernel(), op._enter, op._leave
    rows = min(max_iter + 1, _FIRST_ROWS)
    X, x = np.empty((rows, x0.size)), x0
    for k in range(max_iter + 1):
        if k == rows:
            rows = min(2 * rows, max_iter + 1)
            X.resize((rows, x0.size), refcheck=False)
        y = enter(x, PB(x))
        x_next = leave(x, y, PA(y))
        d = x_next - x
        r = math.sqrt(d.dot(d))  # norm(d), without its frame
        X[k] = x
        if r <= residual_tol or k == max_iter:
            break
        x = x_next
    stop_reason = "max_iter" if k == max_iter else "fixed_point"
    if rows <= _FIRST_ROWS:
        # a run that never outgrew its first rows keeps a copy of them: a
        # small block trimmed in place leaves a hole in the heap, and a
        # process that keeps many short traces grows with the holes
        X = X[:k + 1].copy()
    else:
        X.resize((k + 1, x0.size), refcheck=False)

    metadata = {"raw_seed": seed_point.tolist(), "seed_point": x0.tolist(),
                "operator": type(op).__name__}
    return Trace.record(X, A, B, target, r, stop_reason, metadata, op.records_b)


def trace_to_json_text(trace: Trace) -> str:
    """trace.json as a string."""
    trace.write(io.StringIO(), buf := io.StringIO())  # the CSV is discarded
    return buf.getvalue()
