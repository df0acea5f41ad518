"""Sampled estimation of regularity constants and closed-form rate bounds.

Every estimator reports a supremum over a seeded, certified sample; the
polish can push it above the true constant, so it is no lower bound.
Doubling the sample count never decreases a value because samples are
drawn from per-index streams and polished independently.

The sampled estimators share one skeleton, :func:`_sup_estimate`: it scores
a ratio of each point's distance to a target, plain during the pattern
ascent and, with ``refine_numerator``, refined on every sample and endpoint.
A :class:`_Region` (points of a set and of a constraint lam within delta of
a center) has one batched map that puts points into it, projections onto
the set and lam, alternated when both are given; the seeded sample, the
ascent's trials and kappa's anchor (the center's image) all go through it.
Each estimator is only its ratio and its region.  A whole-space lam of the
pair's dimension constrains nothing: it is read, and reported, as None.

The skeleton runs K regions in one lockstep, each row of points owned by
one: :func:`estimate_sr_prime_stack` estimates sr' of K pairs whose A's,
B's and probes each form a :func:`geometry.stack`.  Rows never interact,
so each estimate is its pair's own, bit for bit, and
:func:`estimate_sr_prime` is the one-pair case.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import engine
from .geometry import (
    DimensionMismatch,
    FinitePointSet,
    Lambda,
    SetSpec,
    Target,
    Vector,
    WholeSpace,
    as_target,
    as_vector,
    ascend,
    ball_points,
    by_blocks,
    distance,
    dot_norms,
    row_norms,
    stack,
    take,
)
from .scenarios import set_to_json

RES_FLOOR = 1e-12
SKIP_FLOOR = 1e-12
#: residual below RES_FLOOR at a point this far from the fixed-point probe
#: forces the +inf sentinel (the map is stuck off the target set)
STUCK_DIST_TOL = 1e-6


@dataclass(frozen=True)
class SampleCertificate:
    seed: int
    count: int
    grid_spacing: float


@dataclass(frozen=True, eq=False)
class RegularityEstimate:
    kind: str
    value: float
    base_point: Vector
    delta: float
    lam: Lambda | None
    certificate: SampleCertificate
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "base_point": [float(t) for t in np.asarray(self.base_point)],
            "delta": self.delta,
            "lam": None if self.lam is None else type(self.lam).__name__,
            "certificate": asdict(self.certificate),
            "degenerate": self.degenerate,
        }


def _nominal_spacing(delta: float, count: int, dim: int) -> float:
    return 2.0 * delta / max(1.0, count ** (1.0 / max(1, dim)))


def _intersection_distance(X: np.ndarray, target: SetSpec, owner: np.ndarray,
                           refine_op: engine.OperatorSpec | None = None) -> np.ndarray:
    """Distance of each row i of X to a target made by ``as_target`` (to
    owner[i]'s of a stack).  With refine_op, a probe (never an exact set) is
    sharpened by running the iteration from every row to high precision, all
    rows in lockstep: a row's limit lies in the set the probe samples, so
    its distance is a valid upper bound."""
    d = take(target, owner)._distance_many(X)
    if refine_op is not None and isinstance(target, FinitePointSet):
        Y = engine.settle_many(refine_op, X, 1e-13, 400, owner)
        at = engine.residual_map_many(refine_op, Y, owner) <= 1e-10
        d[at] = np.minimum(d[at], row_norms(X[at] - Y[at]))
    return d


def _divide(num: np.ndarray, den: np.ndarray, where: np.ndarray, fill: np.ndarray | float):
    """num / den per row where ``where`` holds, ``fill`` elsewhere; the
    division runs only where it is taken, so a zero den raises no warning."""
    out = np.empty_like(num)
    out[...] = fill
    return np.divide(num, den, out=out, where=where)


def _feasibility_ratio(dn: np.ndarray, den: np.ndarray) -> np.ndarray:
    """dn / den per row: 0 where both are below SKIP_FLOOR (the point is
    skipped), +inf where den alone vanishes."""
    q = _divide(dn, den, den != 0.0, math.inf)
    q[(den < SKIP_FLOOR) & (dn < SKIP_FLOOR)] = 0.0
    return q


#: number of leading samples given a local pattern-ascent polish; a fixed
#: index prefix keeps doubled samples a superset of the original work
POLISH_STARTS = 32


def check_sampling(delta: float, samples: int) -> None:
    """A seeded sample has samples >= 1 points within a radius delta, a finite number > 0."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be a finite number > 0, got {delta}")


class _Region:
    """Points of ``on_set`` and of ``lam`` within ``delta`` of a center, one
    region per row of ``centers`` (either set may be a :func:`geometry.stack`
    of as many); a set left None, or a whole-space lam, constrains nothing.
    One map, :meth:`feasible`, puts points into the regions: the seeded
    sample, the ascent's trials and kappa's anchor."""

    def __init__(self, centers, delta: float, on_set: SetSpec | None = None,
                 lam: Lambda | None = None):
        centers = np.atleast_2d(centers)
        for name, s in (("on_set", on_set), ("lam", lam)):
            if s is not None and s.dim != centers.shape[1]:
                raise DimensionMismatch(f"{name} has dimension {s.dim}, expected {centers.shape[1]}")
        self.centers, self.delta, self.on_set = centers, delta, on_set
        self.lam = None if isinstance(lam, WholeSpace) else lam

    def sample(self, samples: int, seeds) -> tuple[np.ndarray, np.ndarray]:
        """The admitted map of each center's ball stream (seed seeds[k]), and the rows' owners."""
        check_sampling(self.delta, samples)
        seeds = [seed for _, seed in zip(self.centers, seeds, strict=True)]  # one per center
        owner = np.repeat(np.arange(len(seeds)), samples)
        X = ball_points(self.centers[owner], np.full(len(owner), self.delta),
                        np.repeat(seeds, samples), np.tile(np.arange(samples), len(seeds)))
        Y, ok = self.feasible(X, owner)
        return Y[ok], owner[ok]

    def feasible(self, Y: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The map of row i into region owner[i]: (mapped rows, which rows it
        admits).  Each row is projected onto on_set, or onto lam without one;
        with both, it then alternates projections onto lam and on_set, all
        rows in lockstep, until its two projections are 1e-12 apart (at most
        40 rounds).  A row is admitted within delta of its center and within
        1e-9 of lam, and only once its rounds have converged."""
        on_set, lam = self.on_set, self.lam
        onto = lam if on_set is None else on_set
        if onto is not None:
            Y = take(onto, owner)._project_many(Y)
        live = np.arange(0)
        if on_set is not None and lam is not None:
            live = np.arange(len(Y))
            for _ in range(40):
                Q = take(lam, owner[live])._project_many(Y[live])
                Y[live] = take(on_set, owner[live])._project_many(Q)
                live = live[row_norms(Y[live] - Q) > 1e-12]
                if live.size == 0:
                    break
        ok = row_norms(Y - self.centers[owner]) <= self.delta
        ok[live] = False
        if lam is not None:
            ok &= take(lam, owner)._distance_many(Y) <= 1e-9
        return Y, ok


def _sup_estimate(
    kind: str, region: _Region, sample: tuple[np.ndarray, np.ndarray], ratio: Callable,
    target: SetSpec, op: engine.OperatorSpec, samples: int, seeds,
    refine_numerator: bool = False, polish_starts: int = POLISH_STARTS,
) -> list[RegularityEstimate]:
    """Per region, the max of ``ratio(X, dist(X, target), owner)`` over its
    points of the sample (P, owner: row i in region owner[i], regions in
    turn) and over polished pattern-ascent endpoints, with its certificate.
    A region's samples among its first ``polish_starts`` with a finite value
    are polished, all in one :func:`ascend`, each depending only on its own
    start.  The ascent climbs the plain ratio; with ``refine_numerator``,
    ``op`` refines the distance to the target of every sample and polished
    endpoint, once per point instead of once per step.  A +inf sample
    decides its region's supremum and none of its starts is polished.  sr
    and sr' clamp at 0 and flag a supremum <= 0; kappa flags only an
    all-fixed-point sample (reported as 0); sigma raises on no usable one."""

    def scored(refine_op):
        return lambda X, owner: ratio(X, _intersection_distance(X, target, owner, refine_op), owner)

    plain = scored(None)
    final = scored(op) if refine_numerator else plain
    P, owner = sample
    centers, delta = region.centers, region.delta
    vals = final(P, owner)
    best = np.full(len(centers), -math.inf)
    np.maximum.at(best, owner, vals)
    rank = np.arange(len(P)) - np.searchsorted(owner, owner)  # within its region
    starts = np.flatnonzero((rank < polish_starts) & np.isfinite(vals) & (best[owner] < math.inf))
    if starts.size:
        of = owner[starts]
        cheap, Q = ascend(P[starts], lambda Y, at: plain(Y, of[at]),
                          lambda Y, at: region.feasible(Y, of[at]), step=delta / 4)
        done = np.isfinite(cheap)
        np.maximum.at(best, of[done], final(Q[done], of[done]))
    if kind == "sigma" and not all(0.0 <= b < math.inf for b in best.tolist()):
        raise ValueError("no usable samples (all residuals below the floor)")
    spacing = _nominal_spacing(delta, samples, centers.shape[1])
    out = []
    for center, seed, b in zip(centers, seeds, best.tolist()):
        # a degenerate supremum is reported as 0: sr's and sr''s <= 0, kappa's over no point
        degenerate = kind != "sigma" and (b == -math.inf if kind == "kappa_msr" else b <= 0.0)
        out.append(RegularityEstimate(kind, 0.0 if degenerate else b, center, delta, region.lam,
                                      SampleCertificate(seed, samples, spacing), degenerate))
    return out


def _common_point(A: SetSpec, B: SetSpec, base_point, intersection: Target | None):
    """sr's and sr''s base point, checked to lie in both sets, and their target."""
    x_bar = as_vector(base_point, A.dim)
    if distance(A, x_bar) > 1e-6 or distance(B, x_bar) > 1e-6:
        raise ValueError("base point must lie in both sets")
    return x_bar, as_target(intersection, A.dim, "intersection probe")


def estimate_sr_prime(
    A: SetSpec,
    B: SetSpec,
    base_point,
    delta: float,
    lam: Lambda | None = None,
    intersection: Target | None = None,
    samples: int = 256,
    seed: int = 0,
    refine_numerator: bool = False,
    polish_starts: int = POLISH_STARTS,
) -> RegularityEstimate:
    """One-sided feasibility modulus at a common point.

    Supremum over sampled x in A within delta of the base point of
        dist(x, A cap B) / dist(x, B),
    skipping points where both distances vanish (those contribute 0).
    """
    return estimate_sr_prime_stack([A], [B], [base_point], [intersection], [seed], delta, lam,
                                   samples, refine_numerator, polish_starts)[0]


def estimate_sr_prime_stack(
    As, Bs, base_points, intersections, seeds, delta: float, lam: Lambda | None = None,
    samples: int = 256, refine_numerator: bool = False, polish_starts: int = POLISH_STARTS,
) -> list[RegularityEstimate]:
    """:func:`estimate_sr_prime` of pairs As[k], Bs[k] at base_points[k] with
    probes intersections[k] and seeds[k], all in one lockstep: A's, B's and
    probes each :func:`geometry.stack`.  Each estimate is its pair's own."""
    xs, targets = zip(*[_common_point(*pair) for pair in
                        zip(As, Bs, base_points, intersections, strict=True)])
    A, B = stack(As), stack(Bs)
    region = _Region(np.array(xs), delta, on_set=A, lam=lam)

    def ratio(X: np.ndarray, dn: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return _feasibility_ratio(dn, take(B, owner)._distance_many(X))

    return _sup_estimate("sr_prime", region, region.sample(samples, seeds), ratio, stack(targets),
                         engine.AlternatingProjections(A, B), samples, seeds,
                         refine_numerator, polish_starts)


def estimate_sr(
    A: SetSpec,
    B: SetSpec,
    base_point,
    delta: float,
    lam: Lambda | None = None,
    intersection: Target | None = None,
    samples: int = 256,
    seed: int = 0,
    refine_numerator: bool = False,
    polish_starts: int = POLISH_STARTS,
) -> RegularityEstimate:
    """Two-sided feasibility modulus: ambient samples, max of both distances
    in the denominator."""
    x_bar, intersection = _common_point(A, B, base_point, intersection)
    region = _Region(x_bar, delta, lam=lam)

    def ratio(X: np.ndarray, dn: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return _feasibility_ratio(dn, np.maximum(A._distance_many(X), B._distance_many(X)))

    return _sup_estimate("sr", region, region.sample(samples, [seed]), ratio, intersection,
                         engine.AlternatingProjections(A, B), samples, [seed],
                         refine_numerator, polish_starts)[0]


def estimate_sigma(
    A: SetSpec,
    B: SetSpec,
    base_point,
    delta: float,
    samples: int = 256,
    seed: int = 0,
) -> RegularityEstimate:
    """Coupling constant between the two set distances and the step length
    of the projection pair, sampled on a ball around a common point."""
    region = _Region(as_vector(base_point, A.dim), delta)
    op = engine.AlternatingProjections(A, B)

    def ratio(X: np.ndarray, d_A: np.ndarray, owner: np.ndarray) -> np.ndarray:  # A is the target
        r = engine.residual_map_many(op, X)
        return _divide(np.hypot(d_A, B._distance_many(X)), r, r > RES_FLOOR, -math.inf)

    return _sup_estimate("sigma", region, region.sample(samples, [seed]), ratio, A, op,
                         samples, [seed])[0]


def estimate_kappa(
    op: engine.OperatorSpec,
    fix_probe: Target,
    center,
    delta: float,
    lam: Lambda | None = None,
    on_set: SetSpec | None = None,
    samples: int = 256,
    seed: int = 0,
    refine_numerator: bool = False,
    polish_starts: int = POLISH_STARTS,
) -> RegularityEstimate:
    """Error-bound modulus of the displacement map T - Id on a region.

    kappa_hat = sup dist(x, fix_probe) / dist(0, Tx - x) over samples with
    residual above the floor.  A vanishing residual at a sample far from the
    probe means the map is stuck off its target: the +inf sentinel is
    reported.  If every sample is a fixed point the report is degenerate
    with kappa_hat = 0.
    """
    center = as_vector(center, op.A.dim)
    fix_probe = as_target(fix_probe, op.A.dim, "fixed-point probe")
    region = _Region(center, delta, on_set=on_set, lam=lam)

    def ratio(X: np.ndarray, dn: np.ndarray, owner: np.ndarray) -> np.ndarray:
        r = engine.residual_map_many(op, X)
        stuck = np.where(dn > STUCK_DIST_TOL, math.inf, -math.inf)
        return _divide(dn, r, r > RES_FLOOR, stuck)

    # the map of the center is evaluated when the region admits it, so a grid
    # shrunk onto a stuck point reports the sentinel rather than a large
    # finite ratio
    anchor, ok = region.feasible(center[None, :], np.zeros(1, int))
    P = np.concatenate([anchor[ok], region.sample(samples, [seed])[0]])
    return _sup_estimate("kappa_msr", region, (P, np.zeros(len(P), int)), ratio, fix_probe, op,
                         samples, [seed], refine_numerator, polish_starts)[0]


def estimate_violation(
    op: engine.OperatorSpec,
    y,
    alpha: float,
    center,
    delta: float,
    samples: int = 256,
    seed: int = 0,
) -> RegularityEstimate:
    """Averaging violation of T at a fixed point y with constant alpha.

    Largest deficit of
        ||x+ - y||^2 <= (1 + eps) ||x - y||^2
                        - (1-alpha)/alpha ||x - x+||^2
    over sampled x and all candidate evaluations x+, clamped at 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    y = as_vector(y, op.A.dim)
    if engine.residual_map(op, y) > 1e-9:
        raise ValueError("y must be a fixed point of the operator")
    center = as_vector(center, op.A.dim)
    coef = (1.0 - alpha) / alpha
    X = _Region(center, delta).sample(samples, [seed])[0]
    X = X[dot_norms(X - y) > 1e-12]
    if len(X) == 0:
        raise ValueError("no samples away from the fixed point")

    def deficits(Xb: np.ndarray) -> np.ndarray:  # each row's largest over its candidates
        C = op._candidates_many(Xb)
        val = ((dot_norms(C - y) ** 2 + coef * dot_norms(Xb[:, None, None, :] - C) ** 2)
               / dot_norms(Xb - y)[:, None, None] ** 2 - 1.0)
        return np.where(np.isfinite(C[..., 0]), val, -math.inf).max(axis=(1, 2))

    worst = float(by_blocks(X, deficits).max())
    return RegularityEstimate(
        "violation_eps",
        max(0.0, worst),
        y,
        delta,
        None,
        SampleCertificate(seed, samples, _nominal_spacing(delta, samples, center.size)),
    )


# ---------------------------------------------------------------------------
# closed-form rate and necessity formulas


def predicted_rate_msr(eps: float, alpha: float, kappa: float) -> float | None:
    """c = sqrt(1 + eps - (1-alpha)/(kappa^2 alpha)); None when c >= 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    if eps < 0.0:
        raise ValueError("violation must be nonnegative")
    radicand = 1.0 + eps - (1.0 - alpha) / (kappa * kappa * alpha)
    if radicand < -1e-12:
        raise ValueError("negative radicand: inconsistent (eps, alpha, kappa)")
    c = math.sqrt(max(0.0, radicand))
    return None if c >= 1.0 else c


def necessity_bound(kind: str, c: float, n: int | None = None, m: int | None = None) -> float:
    """Closed-form necessity bounds on the relevant modulus.

    kinds:
      "msr"                    kappa        <= 1/(1-c)
      "monotone_subsequence"   sr' bound    2(2n^2 - 1 - c(n-1))/(1-c)
      "linear_convergence"     sr' bound    2m/(1-c)
      "extendible_subsequence" sr' bound    2(2n - 1 - c(n-1))/(1-c)
    """
    if not 0.0 <= c < 1.0:
        raise ValueError("rate c must lie in [0, 1)")
    if kind == "msr":
        return 1.0 / (1.0 - c)
    if kind == "monotone_subsequence":
        if n is None or n < 1:
            raise ValueError("n >= 1 required")
        return 2.0 * (2.0 * n * n - 1.0 - c * (n - 1.0)) / (1.0 - c)
    if kind == "linear_convergence":
        if m is None or m < 1:
            raise ValueError("m >= 1 required")
        return 2.0 * m / (1.0 - c)
    if kind == "extendible_subsequence":
        if n is None or n < 1:
            raise ValueError("n >= 1 required")
        return 2.0 * (2.0 * n - 1.0 - c * (n - 1.0)) / (1.0 - c)
    raise ValueError(f"unknown bound kind: {kind}")


def verify_bracket(
    sr_est: RegularityEstimate, sr_prime_est: RegularityEstimate, tol: float = 1e-2
) -> bool:
    """sr' <= sr <= 1 + 2 sr' within the sampling slack."""
    if sr_est.kind != "sr" or sr_prime_est.kind != "sr_prime":
        raise ValueError("arguments must be an sr and an sr_prime estimate")
    lams = [None if e.lam is None else set_to_json(e.lam) for e in (sr_est, sr_prime_est)]
    same = (
        np.allclose(sr_est.base_point, sr_prime_est.base_point, atol=1e-12)
        and sr_est.delta == sr_prime_est.delta
        and lams[0] == lams[1]
    )
    if not same:
        raise ValueError("estimates carry mismatched certificates")
    sr, srp = sr_est.value, sr_prime_est.value
    return srp <= sr + tol and sr <= 1.0 + 2.0 * srp + tol


def global_ratio_growth(intersection: SetSpec, B: SetSpec, count: int) -> tuple[list, bool]:
    """The ratios dist(x, A cap B) / dist(x, B) at x = (t, t^2) in the plane for
    t = 0.02, 0.01, ... (count of them), and whether each at least doubles
    (to 1%) the one before: a ratio that diverges rules out a global modulus.
    A point (t, t^2) that lies in B leaves its ratio undefined: a ValueError."""
    ratios = []
    for t in (0.02 / 2**j for j in range(count)):
        x = np.array([t, t * t])
        d_B = distance(B, x)
        if d_B == 0.0:
            raise ValueError(f"the probe point ({t}, {t * t}) lies in B, so "
                             "dist(x, A cap B) / dist(x, B) is undefined there")
        ratios.append(distance(intersection, x) / d_B)
    return ratios, all(r1 >= (2.0 - 1e-2) * r0 for r0, r1 in zip(ratios, ratios[1:]))
