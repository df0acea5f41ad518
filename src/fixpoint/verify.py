"""Named verification suites covering the package's headline guarantees.

Each criterion is a function returning a :class:`CriterionResult`; the CLI
``verify`` subcommand and the acceptance test module both run these, so a
pass here is exactly a pass there.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from . import regularity as reg
from .engine import AlternatingProjections, IterationConfig, run
from .geometry import as_target, row_norms, sample_ball
from .scenarios import FAMILIES, Scenario, build, random_convex_pair

#: distances below this are too close to the limit for trustworthy ratios
WINDOW_FLOOR = 1e-5


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.cid:>2}: {self.name} ({self.details})"


def _ap_trace(sc: Scenario, seed_point, max_iter: int = 50_000):
    op = AlternatingProjections(sc.A, sc.B)
    return op, run(op, IterationConfig(seed_point, max_iter, target=sc.intersection))


def _window_end(trace, floor: float = WINDOW_FLOOR) -> int:
    """Last index whose error to the limit is above the rounding floor."""
    above = np.flatnonzero(diag.errors(trace.x, trace.limit) > floor)
    return int(above[-1]) if above.size else 0


def _convex_corpus(count: int, dims=(2, 3)):
    for i in range(count):
        yield i, random_convex_pair(i, dims[i % len(dims)], FAMILIES[i % 3])


# ---------------------------------------------------------------------------
# criteria


def criterion_1() -> CriterionResult:
    """Two lines at pi/3: sr' and sr estimates and the strict bracket."""
    sc = build("two_lines_pi3")
    srp = reg.estimate_sr_prime(
        sc.A, sc.B, sc.base_point, 0.5, intersection=sc.intersection, samples=256, seed=7
    )
    sr = reg.estimate_sr(
        sc.A, sc.B, sc.base_point, 0.5, intersection=sc.intersection, samples=256, seed=7
    )
    tgt_srp, tgt_sr = 2.0 / math.sqrt(3.0), 2.0
    ok = (
        abs(srp.value - tgt_srp) <= 1e-3
        and abs(sr.value - tgt_sr) <= 1e-2
        and reg.verify_bracket(sr, srp)
        and srp.value < sr.value < 1.0 + 2.0 * srp.value
    )
    return CriterionResult(
        1,
        "two lines pi/3 moduli and bracket",
        ok,
        f"sr'={srp.value:.6f} (target {tgt_srp:.6f}), sr={sr.value:.6f} (target 2)",
    )


def criterion_2() -> CriterionResult:
    """Two lines at pi/3: measured rates, kappa, and the tight msr bound."""
    sc = build("two_lines_pi3")
    op, tr = _ap_trace(sc, [1.0, 0.0])
    q = diag.estimate_q_rate(tr.x, limit=sc.base_point)
    mon = diag.check_linear_monotone(tr.x, sc.intersection)
    kap = reg.estimate_kappa(
        op, sc.intersection, sc.base_point, 1.0, on_set=sc.A, samples=256, seed=3
    )
    bound = reg.necessity_bound("msr", mon.c)
    ok = (
        abs(q.c - 0.25) <= 1e-6
        and abs(mon.c - 0.25) <= 1e-6
        and abs(kap.value - 4.0 / 3.0) <= 1e-3
        and kap.value <= bound + 1e-3
        and abs(kap.value - bound) <= 1e-3
    )
    return CriterionResult(
        2,
        "two lines pi/3 rates and tight kappa bound",
        ok,
        f"q={q.c:.8f}, c={mon.c:.8f}, kappa={kap.value:.6f}, 1/(1-c)={bound:.6f}",
    )


def criterion_3() -> CriterionResult:
    """Linearly monotone but not Fejer: exact constant and witness."""
    sc = build("monotone_not_fejer")
    mon = diag.check_linear_monotone(sc.sequence, sc.intersection)
    fej = diag.check_fejer(sc.sequence, [np.array([2.0, 0.0])])
    ok = (
        mon.c == 0.5
        and not fej.holds
        and fej.witness_point is not None
        and np.allclose(fej.witness_point, [2.0, 0.0])
    )
    witness = None if fej.witness_point is None else tuple(float(t) for t in fej.witness_point)
    return CriterionResult(
        3,
        "monotone-not-Fejer sequence",
        ok,
        f"c={mon.c!r}, fejer={fej.holds}, witness={witness}",
    )


def criterion_4() -> CriterionResult:
    """Geometric finite pairs solve in exactly n projection rounds."""
    details = []
    ok = True
    for n in (1, 2, 3):
        sc = build(f"geometric_n{n}")
        took = _ap_trace(sc, [1.0, 0.0])[1].solved_at
        took = -1 if took is None else took
        details.append(f"n={n}:{took}")
        ok = ok and took == n
    return CriterionResult(4, "geometric pairs solve in exactly n iterations", ok, ", ".join(details))


def criterion_5() -> CriterionResult:
    """Sawtooth: iterations get stuck at tooth peaks; sr' at the origin is
    finite and stable under sample doubling."""
    sc = build("sawtooth")
    seeds = [
        [0.09, 0.03],
        [0.2, 0.06],
        [0.45, 0.12],
        [0.7, 0.2],
        [0.13, 0.02],
        [0.05, 0.012],
    ]
    stuck_ok = 0
    details = []
    for s in seeds:
        _, tr = _ap_trace(sc, s, max_iter=2000)
        lim = tr.limit
        n_float = -math.log2(lim[0]) if lim[0] > 0 else math.inf
        n = round(n_float)
        is_peak = (
            math.isfinite(n_float)
            and lim[0] == 0.5**n
            and lim[1] == 0.0
            and tr.residual[-1] <= 1e-12
        )
        # the trace's target is sc.intersection: its last distance is the limit's
        if is_peak and tr.stop_reason == "fixed_point" and tr.dist_target[-1] >= 0.5 ** (n + 2):
            stuck_ok += 1
            details.append(f"1/2^{n}")
    srp_a, srp_b = (
        reg.estimate_sr_prime(sc.A, sc.B, sc.base_point, 0.5, intersection=sc.intersection,
                              samples=n, seed=11, polish_starts=8)
        for n in (192, 384)
    )
    stable = (
        math.isfinite(srp_a.value)
        and srp_b.value >= srp_a.value
        and srp_b.value <= 1.1 * srp_a.value
    )
    ok = stuck_ok >= 5 and stable
    return CriterionResult(
        5,
        "sawtooth stuck points and stable sr'",
        ok,
        f"stuck at {details}; sr'={srp_a.value:.6f} -> {srp_b.value:.6f} on doubling",
    )


def criterion_6() -> CriterionResult:
    """Convex dichotomy holds on every trace of a 200-pair random corpus."""
    bad = 0
    outcomes = {"already_solved": 0, "solved_in_one": 0, "never_reaches": 0}
    for i, sc in _convex_corpus(200):
        seeds = [
            sc.base_point + 0.08 * sc.boundary_ray,
            sample_ball(sc.seed_region[0], sc.seed_region[1], 1, seed=900 + i)[0],
        ]
        for s in seeds:
            rep = diag.check_convex_dichotomy(_ap_trace(sc, s)[1])
            outcomes[rep.outcome] += 1
            if rep.outcome == "never_reaches" and not rep.bound_holds:
                bad += 1
    ok = bad == 0
    return CriterionResult(
        6,
        "convex dichotomy on 200 random pairs",
        ok,
        f"outcomes={outcomes}, bound violations={bad}",
    )


def criterion_7() -> CriterionResult:
    """Projection inequalities for convex pairs on 1e4 random queries each."""
    rng = np.random.default_rng(1905)
    bad_ratio = bad_sides = 0
    n_pairs, per_pair = 100, 100
    for i in range(n_pairs):
        sc = random_convex_pair(i, 2 + i % 3, FAMILIES[i % 3])
        A, B, x_common = sc.A, sc.B, sc.base_point
        # the pair's queries in one draw, the stream of per_pair draws of A.dim
        X = A._project_many(x_common + rng.uniform(-1, 1, (per_pair, A.dim)))
        PB = B._project_many(X)
        PA = A._project_many(PB)
        step_b, step_a = row_norms(PB - X), row_norms(PA - PB)
        # nondecreasing step ratios: ||PBPAPBx-PAPBx|| ||PBx-x|| >= ||PAPBx-PBx||^2
        lhs, rhs = row_norms(B._project_many(PA) - PA) * step_b, step_a ** 2
        bad_ratio += np.count_nonzero(lhs < rhs - 1e-9 * np.maximum(np.maximum(1.0, lhs), rhs))
        # ||PBa-x|| ||PBa-a|| >= ||a-x|| ||PAPBa-PBa|| for a in A, x in A cap B,
        # at a = x: PBa is PB and PAPBa is PA
        lhs, rhs = row_norms(PB - x_common) * step_b, row_norms(X - x_common) * step_a
        bad_sides += np.count_nonzero(lhs < rhs - 1e-9 * np.maximum(np.maximum(1.0, lhs), rhs))
    ok = bad_ratio == 0 and bad_sides == 0
    return CriterionResult(
        7,
        "step-ratio and side-length inequalities on 1e4 queries",
        ok,
        f"ratio violations={bad_ratio}, side violations={bad_sides}",
    )


def criterion_8() -> CriterionResult:
    """Convex necessity and sufficiency loop over 100 random pairs."""
    fails = n_linear = 0
    worst_i = worst_ii = math.inf
    cases = {}  # corpus index -> (sr' arguments, (c_mon, c_r))
    for i, sc in _convex_corpus(100, dims=(2, 3)):
        _, tr = _ap_trace(sc, sc.base_point + 0.08 * sc.boundary_ray)
        rep = diag.check_convex_dichotomy(tr)
        x_lim = tr.limit
        probe = [x_lim, sc.base_point]
        if rep.outcome == "never_reaches":
            ds = as_target(probe, x_lim.size, "probe")._distance_many(tr.x)
            idx = [k for k, d in enumerate(ds) if 1e-8 <= d <= 0.02]
            if len(idx) < 4:
                continue
            n_linear += 1
            tail = tr.x[idx[0] : idx[-1] + 1]
            c_mon = diag.check_linear_monotone(tail, probe, floor=1e-8).c
            c_r = diag.estimate_r_rate(tail, limit=x_lim, floor=1e-8).c
        else:
            c_mon = c_r = 0.0  # finite termination: envelope rate 0
        cases[i] = (sc.A, sc.B, x_lim, probe, 100 + i), (c_mon, c_r)
    srp = {}
    for g in sorted({i % 6 for i in cases}):  # a stack per FAMILIES[i % 3] and dims[i % 2]
        group = [i for i in cases if i % 6 == g]
        srp.update(zip(group, reg.estimate_sr_prime_stack(
            *zip(*(cases[i][0] for i in group)), 0.02,
            samples=96, refine_numerator=True, polish_starts=12)))
    for i, (_, (c_mon, c_r)) in cases.items():  # corpus order
        value = srp[i].value
        rhs_i = 1.0 - value**-2 + 1e-2 if value > 0 else math.inf
        rhs_ii = (1.0 / (1.0 - c_r) if c_r < 1 else math.inf) + 1e-2
        worst_i = min(worst_i, rhs_i - c_mon)
        worst_ii = min(worst_ii, rhs_ii - value)
        if not (c_mon <= rhs_i and value <= rhs_ii):
            fails += 1
    ok = fails == 0
    return CriterionResult(
        8,
        "local necessity/sufficiency loop on 100 pairs",
        ok,
        f"fails={fails}, linear traces={n_linear}, margins=({worst_i:.4f},{worst_ii:.4f})",
    )


def _windowed_traces():
    """(trace, K, frequency-2 extendibility of the joining sequence up to
    x_K) for each AP trace of the convex corpus whose window ends at K >= 3."""
    corpus = [(build("two_lines_pi3"), [1.0, 0.0])]
    for i in range(20):
        sc = random_convex_pair(i, 2, "box_affine")
        corpus.append((sc, sc.base_point + 0.1 * sc.boundary_ray))
    for sc, seed_point in corpus:
        tr = _ap_trace(sc, seed_point)[1]
        K = _window_end(tr)
        if K >= 3:
            yield tr, K, diag.check_linear_extendible(tr.z[: 2 * K + 2], 2)


def criterion_9() -> CriterionResult:
    """On Q-linear convex traces the joining sequence extends with rate <= c."""
    fails = checked = 0
    for tr, K, ext in _windowed_traces():
        checked += 1
        q = diag.estimate_q_rate(tr.x[: K + 1], limit=tr.limit, floor=WINDOW_FLOOR)
        if q.c < 1.0 and not (ext.holds and ext.c <= q.c + 1e-9):
            fails += 1
    return CriterionResult(
        9,
        "Q-linear implies frequency-2 extendibility",
        fails == 0,
        f"fails={fails} over {checked} certified traces",
    )


def criterion_10() -> CriterionResult:
    """Extendibility certifies the explicit geometric envelope."""
    fails = checked = 0
    for tr, K, ext in _windowed_traces():
        if not ext.holds:
            continue
        checked += 1
        if not diag.verify_r_certificate(tr.x[: K + 1], tr.limit, ext.c, ext.gamma, tol=1e-9):
            fails += 1
    return CriterionResult(
        10,
        "extendibility implies the explicit R-envelope",
        fails == 0,
        f"fails={fails} over {checked} extendible traces",
    )


def criterion_11() -> CriterionResult:
    """Epigraph pair: finite local modulus, divergent global ratio."""
    sc = build("epigraph")
    srp_a, srp_b = (
        reg.estimate_sr_prime(sc.A, sc.B, sc.base_point, 0.3, intersection=sc.intersection,
                              samples=n, seed=3)
        for n in (128, 256)
    )
    local_ok = (
        math.isfinite(srp_a.value)
        and srp_a.value <= srp_b.value <= 1.1 * srp_a.value
        and abs(srp_a.value - math.sqrt(2.0)) <= 1e-2
    )
    ratios, growth_ok = reg.global_ratio_growth(sc.intersection, sc.B, 4)
    ok = local_ok and growth_ok
    return CriterionResult(
        11,
        "epigraph: finite local modulus, global divergence",
        ok,
        f"sr'({sc.base_point.tolist()})={srp_a.value:.6f}, ratios={['%.1f' % r for r in ratios]}",
    )


def criterion_12() -> CriterionResult:
    """Measured monotonicity never beats the certified rate formula."""
    fails = checked = 0
    cases = [build("two_lines_pi3"), build("two_lines_pi2")] + [
        random_convex_pair(i, 2, "box_affine") for i in range(5)
    ]
    for sc in cases:
        seed = (
            sc.base_point + 0.1 * sc.boundary_ray
            if sc.boundary_ray is not None
            else np.array([0.9, 0.0])
        )
        op, tr = _ap_trace(sc, seed)
        probe = [tr.limit, sc.base_point]
        eps = reg.estimate_violation(op, tr.limit, 2.0 / 3.0, tr.limit, 0.1, samples=96, seed=5)
        kap = reg.estimate_kappa(
            op, probe, tr.limit, 0.1, on_set=sc.A,
            samples=96, seed=6, refine_numerator=True, polish_starts=12,
        )
        if not math.isfinite(kap.value) or kap.value <= 0:
            continue
        c_pred = reg.predicted_rate_msr(eps.value, 2.0 / 3.0, kap.value)
        if c_pred is None:
            continue
        K = _window_end(tr)
        c_mon = 0.0
        if K >= 1:
            c_mon = diag.check_linear_monotone(tr.x[: K + 1], probe, floor=WINDOW_FLOOR).c
        checked += 1
        if c_mon > c_pred + 1e-2:
            fails += 1
    return CriterionResult(
        12,
        "rate-formula ordering on certified scenarios",
        fails == 0,
        f"fails={fails} over {checked} certified cases",
    )


def criterion_13() -> CriterionResult:
    """Byte-identical outputs when a run is repeated with the same seed."""
    from .cli import execute_run

    with tempfile.TemporaryDirectory() as tmp:
        out_a, out_b = Path(tmp, "a"), Path(tmp, "b")
        for out in (out_a, out_b):
            # the run's own lines name the temporary directory: keep them
            # off the suite's output, which must not vary between runs
            with contextlib.redirect_stdout(io.StringIO()):
                code = execute_run(
                    scenario="two_lines_pi3", out_dir=str(out), seed=42, max_iter=2000,
                    samples=64, delta=0.5, operator="ap",
                )
            if code != 0:
                return CriterionResult(13, "determinism", False, f"run exited {code}")
        names = ["trace.csv", "trace.json", "report.json", "plot.svg"]
        same = all(
            filecmp.cmp(out_a / n, out_b / n, shallow=False) for n in names
        )
        est_a, est_b = (
            json.dumps(reg.estimate_sr_prime(
                build("two_lines_pi3").A, build("two_lines_pi3").B, [0, 0], 0.5,
                intersection=[np.zeros(2)], samples=64, seed=42,
            ).to_json_dict(), sort_keys=True)
            for _ in range(2)
        )
        same_est = est_a == est_b
    ok = same and same_est
    return CriterionResult(13, "byte-identical repeated runs", ok, f"files equal={same}, estimates equal={same_est}")


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
]

SUITES = {
    "paper_examples": (1, 2, 3, 4, 5, 11),
    "convex_properties": (6, 7, 9, 10),
    "necessity_bounds": (8, 12),
    "all": tuple(range(1, 14)),
}


def run_suite(name: str) -> list[CriterionResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    return [ALL_CRITERIA[cid - 1]() for cid in SUITES[name]]
