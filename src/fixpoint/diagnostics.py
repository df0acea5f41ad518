"""Classification of finished iterate sequences.

All checks work on plain point sequences so explicitly constructed sequences
can be analyzed the same way as recorded traces.  Empirical constants are
suprema over the recorded indices only; ratios below the floating-point
floor are excluded from the statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Target, Vector, as_target, norm

#: distances below this are treated as numerical noise in rate windows
RATE_FLOOR = 1e-11
RATIO_FLOOR = 1e-12
DEFAULT_TOL = 1e-9


def _points(seq) -> list[Vector]:
    return [np.asarray(p, dtype=float) for p in seq]


@dataclass
class FejerReport:
    holds: bool
    witness_index: int | None = None
    witness_point: Vector | None = None


def check_fejer(points, probe: Sequence[Vector], tol: float = DEFAULT_TOL) -> FejerReport:
    """Distances to every probe point must never increase along the sequence."""
    pts = _points(points)
    ws = _points(probe)
    if not ws:
        raise ValueError("probe must be nonempty")
    for w in ws:
        d_prev = norm(pts[0] - w)
        for k in range(1, len(pts)):
            d = norm(pts[k] - w)
            if d > d_prev + tol:
                return FejerReport(False, k - 1, w)
            d_prev = d
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
        pts = _points(points)
        target = as_target(omega, pts[0].size, "omega")
        dists = [target._distance(p) for p in pts]
    ratios = [
        dists[k + 1] / dists[k] for k in range(len(dists) - 1) if dists[k] >= floor
    ]
    if not ratios:
        return MonotonicityReport(0.0, True, True)
    c = max(ratios)
    return MonotonicityReport(c, c <= 1.0, False)


@dataclass
class RateEstimate:
    kind: str  # "Q" or "R"
    c: float
    gamma: float | None
    limit: Vector


def estimate_q_rate(points, limit=None, floor: float = RATE_FLOOR, errs=None) -> RateEstimate:
    """Worst consecutive error ratio before the floating-point floor.
    ``errs``, if given, are the errors ||x_k - limit|| already computed."""
    if len(points) < 2:
        raise ValueError("trace too short for a Q-rate")
    x_tilde = np.asarray(limit if limit is not None else points[-1], float)
    if errs is None:
        errs = [norm(p - x_tilde) for p in _points(points)]
    ratios = [
        errs[k + 1] / errs[k]
        for k in range(len(errs) - 1)
        if errs[k] > floor
    ]
    if not ratios:
        raise ValueError("no usable ratios above the floor")
    return RateEstimate("Q", max(ratios), None, x_tilde)


def estimate_r_rate(points, limit=None, floor: float = RATE_FLOOR, errs=None) -> RateEstimate:
    """Geometric envelope fit: c from a log-linear least squares slope.

    gamma is then the smallest constant making ||x_k - limit|| <= gamma c^k
    hold at every recorded index.  ``errs``, if given, are the errors
    ||x_k - limit|| already computed.
    """
    x_tilde = np.asarray(limit if limit is not None else points[-1], float)
    errs = np.array(errs if errs is not None else [norm(p - x_tilde) for p in _points(points)])
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
        math.log(e) - k * log_c for k, e in enumerate(errs) if e > 0.0
    )
    return RateEstimate("R", c, float(math.exp(log_gamma)), x_tilde)


def verify_r_certificate(points, limit, c: float, gamma: float, tol: float = DEFAULT_TOL) -> bool:
    """Check ||x_k - limit|| <= gamma c^k + tol for every recorded k."""
    x_tilde = np.asarray(limit, float)
    return all(
        norm(np.asarray(p, float) - x_tilde) <= gamma * c**k + tol
        for k, p in enumerate(points)
    )


def extend_r_certificate(points, limit, c: float, gamma_tail: float, p: int) -> float:
    """Turn an eventual envelope (valid for k >= p) into one valid for all k."""
    x_tilde = np.asarray(limit, float)
    cands = [gamma_tail / c**p]
    cands += [norm(np.asarray(points[k], float) - x_tilde) / c**k for k in range(min(p + 1, len(points)))]
    return max(cands)


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
    zs = _points(z)
    if len(zs) < m + 2:
        raise ValueError("joining sequence too short for this frequency")
    steps = [norm(zs[k + 1] - zs[k]) for k in range(len(zs) - 1)]
    failing = None
    for k in range(len(steps) - 1):
        if steps[k + 1] > steps[k] + tol:
            failing = k
            break
    ratios = []
    k = 0
    while m * (k + 1) < len(steps):
        den = steps[m * k]
        if den >= floor:
            ratios.append((k, steps[m * (k + 1)] / den))
        k += 1
    c = max((r for _, r in ratios), default=0.0)
    holds = failing is None and c < 1.0
    if not holds and failing is None and ratios:
        failing = max(ratios, key=lambda t: t[1])[0]
    gamma = m * steps[0] / (1.0 - c) if c < 1.0 else None
    return ExtendibilityReport(m, c, holds, failing, gamma, steps[0])


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
    pts = _points(points)
    x_tilde = np.asarray(limit, float) if limit is not None else pts[-1]
    if not verify_r_certificate(pts, x_tilde, c, gamma, tol):
        raise ValueError("R-linear certificate (gamma, c) is invalid for this sequence")
    indices = [0]
    target = as_target(s_probe, pts[0].size, "s_probe")
    d = target._distance(pts[0])
    k = 1
    while d > floor and k < len(pts):
        while k < len(pts) and gamma * c**k > c * d:
            k += 1
        if k >= len(pts):
            break
        indices.append(k)
        d = target._distance(pts[k])
        k += 1
    return SubsequenceReport(indices, indices[1] if len(indices) > 1 else None)


def check_subsequence_monotone(
    points, omega: Target, n: int, floor: float = RATIO_FLOOR
) -> tuple[int, float]:
    """Best offset j in {0..n-1} minimizing the constant of (x_{j+nk})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = _points(points)
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
    if not trace.b:
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
