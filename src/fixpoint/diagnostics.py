"""Classification of finished iterate sequences.

All checks work on plain point sequences (an (n, d) array or a list of
points) so explicitly constructed sequences can be analyzed the same way as
recorded traces.  Empirical constants are suprema over the recorded indices
only; ratios below the floating-point floor are excluded from the statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Target, Vector, as_target, dot_norms, norm

#: distances below this are treated as numerical noise in rate windows
RATE_FLOOR = 1e-11
RATIO_FLOOR = 1e-12
DEFAULT_TOL = 1e-9


def errors(points, limit) -> np.ndarray:
    """||x_k - limit|| for each point x_k, in one batch: each is rounded as
    :func:`norm` rounds it (one dot product), so the two agree bit for bit.
    ``errors(z[1:], z[:-1])`` are the step lengths of a sequence z."""
    return dot_norms(np.asarray(points, dtype=float) - np.asarray(limit, dtype=float))


@dataclass
class FejerReport:
    holds: bool
    witness_index: int | None = None
    witness_point: Vector | None = None


def check_fejer(points, probe: Sequence[Vector], tol: float = DEFAULT_TOL) -> FejerReport:
    """Distances to every probe point must never increase along the sequence."""
    if len(probe) == 0:
        raise ValueError("probe must be nonempty")
    for w in np.asarray(probe, dtype=float):
        d = errors(points, w)
        rises = np.flatnonzero(d[1:] > d[:-1] + tol)
        if rises.size:
            return FejerReport(False, int(rises[0]), w)
    return FejerReport(True)


@dataclass
class MonotonicityReport:
    c: float
    monotone: bool
    degenerate: bool


def check_linear_monotone(
    points, omega: Target, floor: float = RATIO_FLOOR, dists=None
) -> MonotonicityReport:
    """Smallest empirical c with dist(x_{k+1}, Omega) <= c dist(x_k, Omega).

    Ratios whose denominator falls below ``floor`` are skipped; if every
    distance is already below the floor the report is degenerate with c = 0.
    ``dists``, if given, are the distances dist(x_k, Omega) already computed
    (a trace's ``dist_target`` for its own target).
    """
    if len(points) < 2:
        raise ValueError("need at least two points")
    if dists is None:
        X = np.asarray(points, dtype=float)
        dists = as_target(omega, X.shape[1], "omega")._distance_many(X)
    ratios = _ratios(np.asarray(dists, dtype=float), floor, np.greater_equal)
    if not ratios.size:
        return MonotonicityReport(0.0, True, True)
    c = float(ratios.max())
    return MonotonicityReport(c, c <= 1.0, False)


def _ratios(d: np.ndarray, floor: float, above=np.greater) -> np.ndarray:
    """d[k+1] / d[k] at every k whose d[k] is above the floor."""
    keep = above(d[:-1], floor)
    return d[1:][keep] / d[:-1][keep]


@dataclass
class RateEstimate:
    kind: str  # "Q" or "R"
    c: float
    gamma: float | None
    limit: Vector


def estimate_q_rate(points, limit=None, floor: float = RATE_FLOOR) -> RateEstimate:
    """Worst consecutive error ratio before the floating-point floor."""
    if len(points) < 2:
        raise ValueError("trace too short for a Q-rate")
    x_tilde = np.asarray(limit if limit is not None else points[-1], float)
    ratios = _ratios(errors(points, x_tilde), floor)
    if not ratios.size:
        raise ValueError("no usable ratios above the floor")
    return RateEstimate("Q", float(ratios.max()), None, x_tilde)


def estimate_r_rate(points, limit=None, floor: float = RATE_FLOOR) -> RateEstimate:
    """Geometric envelope fit: c from a log-linear least squares slope.

    gamma is then the smallest constant making ||x_k - limit|| <= gamma c^k
    hold at every recorded index.
    """
    x_tilde = np.asarray(limit if limit is not None else points[-1], float)
    errs = errors(points, x_tilde)
    window = np.nonzero(errs > floor)[0]
    if window.size < 3:
        raise ValueError("fewer than 3 usable points above the floor")
    ks = window.astype(float)
    logs = np.log(errs[window])
    slope = np.polyfit(ks, logs, 1)[0]
    c = float(np.exp(slope))
    if c <= 0.0:
        c = 1e-300
    log_c = math.log(c)
    log_gamma = max(
        math.log(e) - k * log_c for k, e in enumerate(errs.tolist()) if e > 0.0
    )
    return RateEstimate("R", c, float(math.exp(log_gamma)), x_tilde)


def verify_r_certificate(points, limit, c: float, gamma: float, tol: float = DEFAULT_TOL) -> bool:
    """Check ||x_k - limit|| <= gamma c^k + tol for every recorded k."""
    return all(e <= gamma * c**k + tol for k, e in enumerate(errors(points, limit).tolist()))


def extend_r_certificate(points, limit, c: float, gamma_tail: float, p: int) -> float:
    """Turn an eventual envelope (valid for k >= p) into one valid for all k."""
    head = errors(points[: p + 1], limit).tolist()
    return max([gamma_tail / c**p] + [e / c**k for k, e in enumerate(head)])


@dataclass
class ExtendibilityReport:
    m: int
    c: float
    holds: bool
    failing_index: int | None
    gamma: float | None
    d0: float


def check_linear_extendible(
    z, m: int, tol: float = DEFAULT_TOL, floor: float = RATIO_FLOOR
) -> ExtendibilityReport:
    """Verify the sequence z has nonincreasing steps whose frequency-m
    block ratios contract.

    Two conditions are checked: ||z_{k+2} - z_{k+1}|| <= ||z_{k+1} - z_k||
    for every k, and ||z_{m(k+1)+1} - z_{m(k+1)}|| <= c ||z_{mk+1} - z_{mk}||
    with c the worst observed block ratio.  On success it also reports
    gamma = m d0 / (1 - c), the envelope constant for the subsampled
    sequence x_k = z_{mk}.
    """
    if m < 1:
        raise ValueError("frequency m must be >= 1")
    zs = np.asarray(z, dtype=float)
    if len(zs) < m + 2:
        raise ValueError("joining sequence too short for this frequency")
    steps = errors(zs[1:], zs[:-1])
    rises = np.flatnonzero(steps[1:] > steps[:-1] + tol)
    failing = int(rises[0]) if rises.size else None
    # block k compares steps[m (k + 1)] with steps[m k]
    blocks = steps[: m * ((len(steps) - 1) // m) + 1 : m]
    ratios = _ratios(blocks, floor, np.greater_equal)
    c = float(ratios.max()) if ratios.size else 0.0
    holds = failing is None and c < 1.0
    if not holds and failing is None and ratios.size:
        failing = int(np.flatnonzero(blocks[:-1] >= floor)[ratios.argmax()])
    d0 = float(steps[0])
    gamma = m * d0 / (1.0 - c) if c < 1.0 else None
    return ExtendibilityReport(m, c, holds, failing, gamma, d0)


@dataclass
class SubsequenceReport:
    indices: list[int]
    k1: int | None


def extract_monotone_subsequence(
    points,
    s_probe: Target,
    c: float,
    gamma: float,
    limit=None,
    tol: float = DEFAULT_TOL,
    floor: float = RATIO_FLOOR,
) -> SubsequenceReport:
    """Greedy extraction of a linearly monotone subsequence.

    Requires a valid R-linear certificate (gamma, c) for the sequence.  From
    the current index k_n with d = dist(x_{k_n}, S) > 0, the next index is
    the first k with gamma c^k <= c d, which forces
    dist(x_k, S) <= ||x_k - limit|| <= gamma c^k <= c d.
    """
    pts = np.asarray(points, dtype=float)
    x_tilde = np.asarray(limit, float) if limit is not None else pts[-1]
    if not verify_r_certificate(pts, x_tilde, c, gamma, tol):
        raise ValueError("R-linear certificate (gamma, c) is invalid for this sequence")
    indices = [0]
    dists = as_target(s_probe, pts.shape[1], "s_probe")._distance_many(pts).tolist()
    d = dists[0]
    k = 1
    while d > floor and k < len(pts):
        while k < len(pts) and gamma * c**k > c * d:
            k += 1
        if k >= len(pts):
            break
        indices.append(k)
        d = dists[k]
        k += 1
    return SubsequenceReport(indices, indices[1] if len(indices) > 1 else None)


def check_subsequence_monotone(
    points, omega: Target, n: int, floor: float = RATIO_FLOOR
) -> tuple[int, float]:
    """Best offset j in {0..n-1} minimizing the constant of (x_{j+nk})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = np.asarray(points, dtype=float)
    best = (0, math.inf)
    for j in range(n):
        sub = pts[j::n]
        if len(sub) < 2:
            continue
        rep = check_linear_monotone(sub, omega, floor)
        if rep.c < best[1]:
            best = (j, rep.c)
    if math.isinf(best[1]):
        raise ValueError("sequence too short for this frequency")
    return best


@dataclass
class DichotomyReport:
    outcome: str  # "already_solved" | "solved_in_one" | "never_reaches"
    c: float | None
    bound_holds: bool | None
    first_violation: int | None


def check_convex_dichotomy(trace, tol: float = DEFAULT_TOL) -> DichotomyReport:
    """Classify a convex projection-pair trace: one-step solve vs never.

    With x_0 on A, either dist(x_1, B) <= tol (solved after one iteration)
    or the distances to B obey dist(x_k, B) >= c^k dist(x_0, B) at every
    recorded index, where sqrt(c) = ||x_1 - b_0|| / ||b_0 - x_0||.
    """
    if len(trace.b) == 0:
        raise ValueError("dichotomy check needs a projection-pair trace")
    if trace.dist_A[0] <= tol and trace.dist_B[0] <= tol:
        return DichotomyReport("already_solved", None, None, None)
    x0, b0 = trace.x[0], trace.b[0]
    den = norm(b0 - x0)
    if den <= tol:
        return DichotomyReport("already_solved", None, None, None)
    if len(trace.x) < 2 or trace.dist_B[1] <= tol:
        return DichotomyReport("solved_in_one", None, None, None)
    sqrt_c = norm(trace.x[1] - b0) / den
    c = sqrt_c * sqrt_c
    d0 = trace.dist_B[0]
    first_violation = None
    for k, dk in enumerate(trace.dist_B):
        if dk < c**k * d0 - tol:
            first_violation = k
            break
    return DichotomyReport("never_reaches", c, first_violation is None, first_violation)
