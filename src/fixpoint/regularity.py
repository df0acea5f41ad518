"""Sampled estimation of regularity constants and closed-form rate bounds.

Every estimator reports a supremum over a seeded, certified sample and is a
lower bound on the true constant (up to the quality of the intersection
probe); doubling the sample count never decreases a value because samples
are drawn from per-index streams and polished independently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import engine
from .geometry import (
    Lambda,
    SetSpec,
    Vector,
    WholeSpace,
    as_target,
    as_vector,
    distance,
    norm,
    pattern_polish,
    project_one,
    sample_ball,
    sample_on_set,
    target_distance,
)

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


Intersection = SetSpec | Sequence[Vector]


def _nominal_spacing(delta: float, count: int, dim: int) -> float:
    return 2.0 * delta / max(1.0, count ** (1.0 / max(1, dim)))


def _intersection_distance(
    x: Vector,
    intersection: SetSpec | list[Vector],
    refine_op: engine.OperatorSpec | None = None,
) -> float:
    """Distance to the intersection (made by ``as_target``): exact set,
    probe, or probe sharpened by running the iteration from x to high
    precision (the limit lies in the intersection, so its distance is a
    valid upper bound)."""
    d = target_distance(x, intersection)
    if refine_op is not None and not isinstance(intersection, SetSpec):
        y = engine.settle(refine_op, x, 1e-13, 400)
        if engine.residual_map(refine_op, y) <= 1e-10:
            d = min(d, norm(x - y))
    return d


#: number of leading samples given a local pattern-ascent polish; a fixed
#: index prefix keeps doubled samples a superset of the original work
POLISH_STARTS = 32


def _probe(target, what: str) -> SetSpec | list[Vector]:
    """A supplied, non-empty probe (or exact set), made once by ``as_target``."""
    if target is None:
        raise ValueError(f"{what} probe must be supplied")
    if not isinstance(target, SetSpec) and len(list(target)) == 0:
        raise ValueError(f"{what} probe is empty")
    return as_target(target)


def _region(
    center: Vector,
    delta: float,
    samples: int,
    seed: int,
    on_set: SetSpec | None = None,
    lam: Lambda | None = None,
) -> list[Vector]:
    """The seeded sample: points of on_set (and lam) within delta of center,
    ball points projected onto lam that stay within delta, or ball points."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if on_set is not None:
        return sample_on_set(on_set, center, delta, samples, seed, lam)
    pts = sample_ball(center, delta, samples, seed)
    if lam is None or isinstance(lam, WholeSpace):
        return pts
    pts = [project_one(lam, p) for p in pts]
    return [p for p in pts if norm(p - center) <= delta]


def _feasible(
    center: Vector,
    delta: float,
    project: SetSpec | None = None,
    member: SetSpec | None = None,
) -> Callable[[Vector], Vector | None]:
    """The polish's map into the region: project onto ``project``, reject
    points off ``member``, and keep only points within delta of center.
    A whole-space lam may be passed as either; it changes no point."""

    def feasible(y: Vector) -> Vector | None:
        if project is not None:
            y = project_one(project, y)
        if member is not None and distance(member, y) > 1e-9:
            return None
        return y if norm(y - center) <= delta else None

    return feasible


def _sup_estimate(
    kind: str,
    pts: list[Vector],
    ratio: Callable[[Vector], float],
    feasible: Callable[[Vector], Vector | None] | None,
    center: Vector,
    delta: float,
    lam: Lambda | None,
    samples: int,
    seed: int,
    final_ratio: Callable[[Vector], float] | None = None,
    polish_starts: int = POLISH_STARTS,
) -> RegularityEstimate:
    """Max of the (final) ratio over samples and polished pattern-ascent
    endpoints, with its certificate.  The ascent climbs the cheap ``ratio``;
    a sharper ``final_ratio`` scores every sample and polished endpoint, so
    expensive refinement runs once per point instead of once per step.
    sr and sr' clamp at 0 and flag a supremum <= 0; kappa flags only an
    all-fixed-point sample (reported as 0); sigma raises on no usable one."""
    final = final_ratio if final_ratio is not None else ratio
    best = -math.inf
    for i, p in enumerate(pts):
        v = final(p)
        if feasible is not None and i < polish_starts and math.isfinite(v):
            cheap_val, q = pattern_polish(p, ratio, feasible, step=delta / 4)
            if math.isfinite(cheap_val):
                v = max(v, final(q))
        best = max(best, v)
        if best == math.inf:
            break
    if kind == "sigma":
        if not math.isfinite(best) or best < 0:
            raise ValueError("no usable samples (all residuals below the floor)")
        value, degenerate = best, False
    elif kind == "kappa_msr":
        value, degenerate = (0.0, True) if best == -math.inf else (best, False)
    else:
        value, degenerate = max(best, 0.0), best <= 0.0
    certificate = SampleCertificate(seed, samples, _nominal_spacing(delta, samples, center.size))
    return RegularityEstimate(kind, value, center, delta, lam, certificate, degenerate)


def estimate_sr_prime(
    A: SetSpec,
    B: SetSpec,
    base_point,
    delta: float,
    lam: Lambda | None = None,
    intersection: Intersection | None = None,
    samples: int = 256,
    seed: int = 0,
    polish: bool = True,
    refine_numerator: bool = False,
    polish_starts: int = POLISH_STARTS,
) -> RegularityEstimate:
    """One-sided feasibility modulus at a common point.

    Supremum over sampled x in A within delta of the base point of
        dist(x, A cap B) / dist(x, B),
    skipping points where both distances vanish (those contribute 0).
    """
    x_bar = as_vector(base_point, A.dim)
    if distance(A, x_bar) > 1e-6 or distance(B, x_bar) > 1e-6:
        raise ValueError("base point must lie in both sets")
    intersection = _probe(intersection, "intersection")
    refine_op = engine.AlternatingProjections(A, B) if refine_numerator else None

    def make_ratio(op):
        def ratio(x: Vector) -> float:
            db = distance(B, x)
            dn = _intersection_distance(x, intersection, op)
            if db < SKIP_FLOOR and dn < SKIP_FLOOR:
                return 0.0
            if db == 0.0:
                return math.inf
            return dn / db
        return ratio

    return _sup_estimate(
        "sr_prime",
        _region(x_bar, delta, samples, seed, on_set=A, lam=lam),
        make_ratio(None),
        _feasible(x_bar, delta, project=A, member=lam) if polish else None,
        x_bar, delta, lam, samples, seed,
        final_ratio=make_ratio(refine_op) if refine_numerator else None,
        polish_starts=polish_starts,
    )


def estimate_sr(
    A: SetSpec,
    B: SetSpec,
    base_point,
    delta: float,
    lam: Lambda | None = None,
    intersection: Intersection | None = None,
    samples: int = 256,
    seed: int = 0,
    polish: bool = True,
    refine_numerator: bool = False,
    polish_starts: int = POLISH_STARTS,
) -> RegularityEstimate:
    """Two-sided feasibility modulus: ambient samples, max of both distances
    in the denominator."""
    x_bar = as_vector(base_point, A.dim)
    if distance(A, x_bar) > 1e-6 or distance(B, x_bar) > 1e-6:
        raise ValueError("base point must lie in both sets")
    intersection = _probe(intersection, "intersection")
    refine_op = engine.AlternatingProjections(A, B) if refine_numerator else None

    def make_ratio(op):
        def ratio(x: Vector) -> float:
            den = max(distance(A, x), distance(B, x))
            dn = _intersection_distance(x, intersection, op)
            if den < SKIP_FLOOR and dn < SKIP_FLOOR:
                return 0.0
            if den == 0.0:
                return math.inf
            return dn / den
        return ratio

    return _sup_estimate(
        "sr",
        _region(x_bar, delta, samples, seed, lam=lam),
        make_ratio(None),
        _feasible(x_bar, delta, project=lam) if polish else None,
        x_bar, delta, lam, samples, seed,
        final_ratio=make_ratio(refine_op) if refine_numerator else None,
        polish_starts=polish_starts,
    )


def estimate_sigma(
    A: SetSpec,
    B: SetSpec,
    base_point,
    delta: float,
    samples: int = 256,
    seed: int = 0,
    polish: bool = True,
) -> RegularityEstimate:
    """Coupling constant between the two set distances and the step length
    of the projection pair, sampled on a ball around a common point."""
    x_bar = as_vector(base_point, A.dim)
    op = engine.AlternatingProjections(A, B)

    def ratio(x: Vector) -> float:
        r = engine.residual_map(op, x)
        if r <= RES_FLOOR:
            return -math.inf
        return math.hypot(distance(A, x), distance(B, x)) / r

    return _sup_estimate(
        "sigma",
        _region(x_bar, delta, samples, seed),
        ratio,
        _feasible(x_bar, delta) if polish else None,
        x_bar, delta, None, samples, seed,
    )


def estimate_kappa(
    op: engine.OperatorSpec,
    fix_probe: Intersection,
    center,
    delta: float,
    lam: Lambda | None = None,
    on_set: SetSpec | None = None,
    samples: int = 256,
    seed: int = 0,
    polish: bool = True,
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
    center = as_vector(center)
    fix_probe = _probe(fix_probe, "fixed-point")
    refine_op = op if refine_numerator else None

    def make_ratio(refine):
        def ratio(x: Vector) -> float:
            r = engine.residual_map(op, x)
            dn = _intersection_distance(x, fix_probe, refine)
            if r <= RES_FLOOR:
                return math.inf if dn > STUCK_DIST_TOL else -math.inf
            return dn / r
        return ratio

    pts = _region(center, delta, samples, seed, on_set=on_set, lam=lam)
    # the region center is always evaluated, so a grid shrunk onto a stuck
    # point reports the sentinel rather than a large finite ratio
    anchor = project_one(on_set, center) if on_set is not None else center
    if norm(anchor - center) <= delta:
        pts = [anchor] + pts
    return _sup_estimate(
        "kappa_msr",
        pts,
        make_ratio(None),
        _feasible(center, delta, project=on_set, member=lam) if polish else None,
        center, delta, lam, samples, seed,
        final_ratio=make_ratio(refine_op) if refine_numerator else None,
        polish_starts=polish_starts,
    )


def estimate_violation(
    op: engine.OperatorSpec,
    y,
    alpha: float,
    center,
    delta: float,
    samples: int = 256,
    seed: int = 0,
    exclude: tuple | None = None,
) -> RegularityEstimate:
    """Averaging violation of T at a fixed point y with constant alpha.

    Largest deficit of
        ||x+ - y||^2 <= (1 + eps) ||x - y||^2
                        - (1-alpha)/alpha ||x - x+||^2
    over sampled x and all candidate evaluations x+, clamped at 0.
    ``exclude`` = (center, radius) removes a ball from the sample.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    y = as_vector(y)
    if engine.residual_map(op, y) > 1e-9:
        raise ValueError("y must be a fixed point of the operator")
    center = as_vector(center)
    coef = (1.0 - alpha) / alpha
    worst = -math.inf
    used = 0
    for x in sample_ball(center, delta, samples, seed):
        if exclude is not None and norm(x - as_vector(exclude[0])) < exclude[1]:
            continue
        nx = norm(x - y)
        if nx <= 1e-12:
            continue
        used += 1
        for x_plus in engine.candidates(op, x):
            val = (norm(x_plus - y) ** 2 + coef * norm(x - x_plus) ** 2) / nx**2 - 1.0
            worst = max(worst, val)
    if used == 0:
        raise ValueError("no samples away from the fixed point")
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


@dataclass(frozen=True)
class CpRatePrediction:
    rate: float | None
    collapsed: bool = False


def _eps_tilde(eps: float) -> float:
    if not 0.0 <= eps < 1.0:
        raise ValueError("elemental constants must lie in [0, 1)")
    return 4.0 * eps * (1.0 + eps) / (1.0 - eps) ** 2


def predicted_rate_cp(eps_a: float, eps_b: float, kappa: float, sigma: float) -> CpRatePrediction:
    """Projection-pair rate from elemental constants and kappa*sigma.

    Returns None when the smallness condition on the inflated constants
    fails; a negative radicand is reported as rate 0 with the collapsed
    flag (the bound certifies one-step convergence territory).
    """
    ks = kappa * sigma
    if ks <= 0.0:
        raise ValueError("kappa * sigma must be positive")
    ea, eb = _eps_tilde(eps_a), _eps_tilde(eps_b)
    s = ea + eb + ea * eb
    bound = 1.0 / (2.0 * ks * ks)
    if s >= bound:
        return CpRatePrediction(None)
    radicand = 1.0 + s - bound
    if radicand < 0.0:
        return CpRatePrediction(0.0, collapsed=True)
    return CpRatePrediction(math.sqrt(radicand))


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
    same = (
        np.allclose(sr_est.base_point, sr_prime_est.base_point, atol=1e-12)
        and sr_est.delta == sr_prime_est.delta
        and type(sr_est.lam) is type(sr_prime_est.lam)
    )
    if not same:
        raise ValueError("estimates carry mismatched certificates")
    sr, srp = sr_est.value, sr_prime_est.value
    return srp <= sr + tol and sr <= 1.0 + 2.0 * srp + tol


@dataclass
class GlobalSubtransversalityReport:
    holds: bool
    kappa: float
    worst_ratio: float
    worst_point: Vector | None


def check_global_subtransversality(
    A: SetSpec,
    B: SetSpec,
    center,
    radius: float,
    c: float,
    intersection: Intersection,
    samples: int = 512,
    seed: int = 0,
    tol: float = 1e-9,
    refine_numerator: bool = False,
) -> GlobalSubtransversalityReport:
    """Verify dist(x, A cap B) <= dist(x, B)/(1-c) on samples of A in a region."""
    if not 0.0 <= c < 1.0:
        raise ValueError("rate c must lie in [0, 1)")
    intersection = _probe(intersection, "intersection")
    kappa = 1.0 / (1.0 - c)
    refine_op = engine.AlternatingProjections(A, B) if refine_numerator else None
    worst_ratio = 0.0
    worst_point = None
    holds = True
    for x in _region(center, radius, samples, seed, on_set=A):
        db = distance(B, x)
        dn = _intersection_distance(x, intersection, refine_op)
        if db < SKIP_FLOOR:
            continue
        ratio = dn / db
        if ratio > worst_ratio:
            worst_ratio, worst_point = ratio, x
        if dn > kappa * db + tol:
            holds = False
    return GlobalSubtransversalityReport(holds, kappa, worst_ratio, worst_point)


def global_ratio_growth(intersection: SetSpec, B: SetSpec, count: int) -> tuple[list, bool]:
    """The ratios dist(x, A cap B) / dist(x, B) at x = (t, t^2) in the plane for
    t = 0.02, 0.01, ... (count of them), and whether each at least doubles
    (to 1%) the one before: a ratio that diverges rules out a global modulus."""
    ratios = []
    for t in (0.02 / 2**j for j in range(count)):
        x = np.array([t, t * t])
        ratios.append(distance(intersection, x) / distance(B, x))
    return ratios, all(r1 >= (2.0 - 1e-2) * r0 for r0, r1 in zip(ratios, ratios[1:]))
