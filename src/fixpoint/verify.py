"""Named verification suites covering the package's headline guarantees.

A criterion is one function ``criterion_N`` declared with its name and the
suites that run it, ``@criterion("name", "suite", ...)``; it returns
``(passed, details)``.  N is its place among the declarations, checked
against its name, and the declarations build :data:`ALL_CRITERIA` (each entry
returns a :class:`CriterionResult`) and :data:`SUITES`, whose ``"all"`` runs
every criterion.  The CLI ``verify`` subcommand and the acceptance test module
both run these, so a pass here is exactly a pass there.

A :func:`run_suite` call hands two results forward, each kept only until its
one reader reads it: criterion 6's boundary runs of its first 100 pairs, which
are criterion 8's whole corpus, and criterion 9's windowed traces, which
criterion 10 checks.  A criterion called alone, or in a suite without the
criterion that hands its result forward, computes that result itself and
prints the same line.
"""

from __future__ import annotations

import contextlib
import filecmp
import functools
import io
import json
import math
import tempfile
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from . import regularity as reg
from .engine import AlternatingProjections, run
from .geometry import as_target, ball_points, dot_norms
from .scenarios import Scenario, build, random_convex_pair

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


#: criterion N's result-returning function is entry N - 1
ALL_CRITERIA: list = []
#: suite name -> the numbers of the criteria it runs, in order
SUITES: dict[str, tuple[int, ...]] = {}


def criterion(name: str, *suites: str):
    """Declare the next criterion, ``criterion_N`` for N its place: the
    declared function returns (passed, details), and the name it binds
    returns the :class:`CriterionResult`."""

    def declare(check):
        cid = len(ALL_CRITERIA) + 1
        if check.__name__ != f"criterion_{cid}":
            raise NameError(f"criterion {cid} is declared as {check.__name__}")

        @functools.wraps(check)
        def result() -> CriterionResult:
            return CriterionResult(cid, name, *check())

        ALL_CRITERIA.append(result)
        for suite in suites:
            SUITES[suite] = SUITES.get(suite, ()) + (cid,)
        return result

    return declare


#: inside a run_suite call: the criteria not yet started, and key -> a result handed forward
_WORK: ContextVar[tuple[list, dict] | None] = ContextVar("work", default=None)


def _shared(key, compute, reader=None):
    """compute(), or in a run_suite call the result that an earlier criterion kept
    under key, removed by this one read; a result is kept only while criterion
    ``reader`` has yet to start in the call."""
    if (work := _WORK.get()) is None:
        return compute()
    ahead, items = work
    if key in items:
        return items.pop(key)
    value = compute()
    if reader in ahead:
        items[key] = value
    return value


def _ap_trace(sc: Scenario, seed_point, max_iter: int = 50_000):
    """The operator and its AP trace from seed_point, the trace's arrays
    read-only: a criterion handed a trace forward cannot change it."""
    op = AlternatingProjections(sc.A, sc.B)
    tr = run(op, seed_point, max_iter, target=sc.intersection)
    for a in (tr.x, tr.b, tr.dist_A, tr.dist_B, tr.dist_target, tr.residual, tr.step_norm):
        a.setflags(write=False)
    return op, tr


def _window_end(trace) -> int:
    """Last index whose error to the limit is above the rounding floor WINDOW_FLOOR."""
    above = np.flatnonzero(diag.errors(trace.x, trace.limit) > WINDOW_FLOOR)
    return int(above[-1]) if above.size else 0


def _corpus(count: int, dims=(2, 3), families=("halfspace_ball", "box_affine", "ball_ball")):
    """(key, pair) of pair i, key (seed i, dimension, family), its dimension and family cycling."""
    keys = [(i, dims[i % len(dims)], families[i % len(families)]) for i in range(count)]
    return [(key, random_convex_pair(*key)) for key in keys]


def _boundary_runs(corpus) -> list:
    """(key, pair, iterates, dichotomy report) of each pair's AP run from 0.08
    along its boundary ray."""
    out = []
    for key, sc in corpus:
        tr = _ap_trace(sc, sc.base_point + 0.08 * sc.boundary_ray)[1]
        out.append((key, sc, tr.x, diag.check_convex_dichotomy(tr)))
    return out


def _stacks(cases: dict) -> list:
    """Keys of ``cases`` (key -> (A, B, ...)) grouped by A's variant, B's variant
    and the dimension: each group's A's, and its B's, form one geometry.stack."""
    groups = {}
    for key, (A, B, *_) in cases.items():
        groups.setdefault((A.variant, B.variant, A.dim), []).append(key)
    return list(groups.values())


# ---------------------------------------------------------------------------
# criteria


@criterion("two lines pi/3 moduli and bracket", "paper_examples")
def criterion_1():
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
    return ok, f"sr'={srp.value:.6f} (target {tgt_srp:.6f}), sr={sr.value:.6f} (target 2)"


@criterion("two lines pi/3 rates and tight kappa bound", "paper_examples")
def criterion_2():
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
    return ok, f"q={q.c:.8f}, c={mon.c:.8f}, kappa={kap.value:.6f}, 1/(1-c)={bound:.6f}"


@criterion("monotone-not-Fejer sequence", "paper_examples")
def criterion_3():
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
    return ok, f"c={mon.c!r}, fejer={fej.holds}, witness={witness}"


@criterion("geometric pairs solve in exactly n iterations", "paper_examples")
def criterion_4():
    """Geometric finite pairs solve in exactly n projection rounds."""
    details = []
    ok = True
    for n in (1, 2, 3):
        sc = build(f"geometric_n{n}")
        took = _ap_trace(sc, [1.0, 0.0])[1].solved_at
        took = -1 if took is None else took
        details.append(f"n={n}:{took}")
        ok = ok and took == n
    return ok, ", ".join(details)


@criterion("sawtooth stuck points and stable sr'", "paper_examples")
def criterion_5():
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
    srp_a, srp_b = reg.estimate_sr_prime_stack([sc.A], [sc.B], [sc.base_point], [sc.intersection],
                                               [11], 0.5, None, (192, 384), polish_starts=8)
    stable = (
        math.isfinite(srp_a.value)
        and srp_b.value >= srp_a.value
        and srp_b.value <= 1.1 * srp_a.value
    )
    ok = stuck_ok >= 5 and stable
    return ok, f"stuck at {details}; sr'={srp_a.value:.6f} -> {srp_b.value:.6f} on doubling"


@criterion("convex dichotomy on 200 random pairs", "convex_properties")
def criterion_6():
    """Convex dichotomy holds on every trace of a 200-pair random corpus."""
    bad = 0
    outcomes = {"already_solved": 0, "solved_in_one": 0, "never_reaches": 0}
    corpus = _corpus(200)
    drawn = {}  # pair i's seed point: point 0 of seed 900 + i on its seed region
    for d in {sc.A.dim for _, sc in corpus}:
        ids, group = zip(*[(i, sc) for (i, *_), sc in corpus if sc.A.dim == d])
        centers, radii = zip(*[sc.seed_region for sc in group])
        drawn.update(zip(ids, ball_points(centers, radii, [900 + i for i in ids], [0] * len(ids))))
    # the boundary runs of the first 100 pairs are criterion 8's corpus
    reports = [rep for *_, rep in _shared("boundary runs", lambda: _boundary_runs(corpus[:100]), 8)
               + _boundary_runs(corpus[100:])]
    reports += [diag.check_convex_dichotomy(_ap_trace(sc, drawn[i])[1]) for (i, *_), sc in corpus]
    for rep in reports:
        outcomes[rep.outcome] += 1
        if rep.outcome == "never_reaches" and not rep.bound_holds:
            bad += 1
    return bad == 0, f"outcomes={outcomes}, bound violations={bad}"


@criterion("step-ratio and side-length inequalities on 1e4 queries", "convex_properties")
def criterion_7():
    """Projection inequalities for convex pairs on 1e4 random queries each."""
    rng = np.random.default_rng(1905)
    bad_ratio = bad_sides = 0
    per_pair = 100
    for _, sc in _corpus(100, (2, 3, 4)):
        A, B, x_common = sc.A, sc.B, sc.base_point
        # the pair's queries in one draw, the stream of per_pair draws of A.dim
        X = A._project_many(x_common + rng.uniform(-1, 1, (per_pair, A.dim)))
        PB = B._project_many(X)
        PA = A._project_many(PB)
        step_b, step_a = dot_norms(PB - X), dot_norms(PA - PB)
        # nondecreasing step ratios: ||PBPAPBx-PAPBx|| ||PBx-x|| >= ||PAPBx-PBx||^2
        lhs, rhs = dot_norms(B._project_many(PA) - PA) * step_b, step_a ** 2
        bad_ratio += np.count_nonzero(lhs < rhs - 1e-9 * np.maximum(np.maximum(1.0, lhs), rhs))
        # ||PBa-x|| ||PBa-a|| >= ||a-x|| ||PAPBa-PBa|| for a in A, x in A cap B,
        # at a = x: PBa is PB and PAPBa is PA
        lhs, rhs = dot_norms(PB - x_common) * step_b, dot_norms(X - x_common) * step_a
        bad_sides += np.count_nonzero(lhs < rhs - 1e-9 * np.maximum(np.maximum(1.0, lhs), rhs))
    return bad_ratio == 0 and bad_sides == 0, f"ratio violations={bad_ratio}, side violations={bad_sides}"


@criterion("local necessity/sufficiency loop on 100 pairs", "necessity_bounds")
def criterion_8():
    """Convex necessity and sufficiency loop over 100 random pairs: criterion
    6's first 100, from their boundary runs."""
    fails = n_linear = 0
    worst_i = worst_ii = math.inf
    cases, rates = {}, {}  # corpus index -> sr' arguments, and -> (c_mon, c_r)
    for (i, *_), sc, X, rep in _shared("boundary runs", lambda: _boundary_runs(_corpus(100))):
        x_lim = X[-1]
        probe = [x_lim, sc.base_point]
        if rep.outcome == "never_reaches":
            ds = as_target(probe, x_lim.size, "probe")._distance_many(X)
            idx = [k for k, d in enumerate(ds) if 1e-8 <= d <= 0.02]
            if len(idx) < 4:
                continue
            n_linear += 1
            tail = X[idx[0] : idx[-1] + 1]
            c_mon = diag.check_linear_monotone(tail, probe, floor=1e-8).c
            c_r = diag.estimate_r_rate(tail, limit=x_lim, floor=1e-8).c
        else:
            c_mon = c_r = 0.0  # finite termination: envelope rate 0
        cases[i], rates[i] = (sc.A, sc.B, x_lim, probe, 100 + i), (c_mon, c_r)
    srp = {}
    for group in _stacks(cases):
        srp.update(zip(group, reg.estimate_sr_prime_stack(
            *zip(*(cases[i] for i in group)), 0.02,
            counts=(96,), refine_numerator=True, polish_starts=12)))
    for i, (c_mon, c_r) in rates.items():  # corpus order
        value = srp[i].value
        rhs_i = 1.0 - value**-2 + 1e-2 if value > 0 else math.inf
        rhs_ii = (1.0 / (1.0 - c_r) if c_r < 1 else math.inf) + 1e-2
        worst_i = min(worst_i, rhs_i - c_mon)
        worst_ii = min(worst_ii, rhs_ii - value)
        if not (c_mon <= rhs_i and value <= rhs_ii):
            fails += 1
    return fails == 0, f"fails={fails}, linear traces={n_linear}, margins=({worst_i:.4f},{worst_ii:.4f})"


def _windowed_traces():
    """(trace, K, frequency-2 extendibility of the joining sequence up to
    x_K) for each AP trace of the convex corpus whose window ends at K >= 3."""
    corpus = [(build("two_lines_pi3"), [1.0, 0.0])]
    for _, sc in _corpus(20, (2,), ("box_affine",)):
        corpus.append((sc, sc.base_point + 0.1 * sc.boundary_ray))
    for sc, seed_point in corpus:
        tr = _ap_trace(sc, seed_point)[1]
        K = _window_end(tr)
        if K >= 3:
            yield tr, K, diag.check_linear_extendible(tr.z[: 2 * K + 2], 2)


@criterion("Q-linear implies frequency-2 extendibility", "convex_properties")
def criterion_9():
    """On Q-linear convex traces the joining sequence extends with rate <= c."""
    fails = checked = 0
    for tr, K, ext in _shared("windowed", lambda: list(_windowed_traces()), 10):
        checked += 1
        q = diag.estimate_q_rate(tr.x[: K + 1], limit=tr.limit, floor=WINDOW_FLOOR)
        if q.c < 1.0 and not (ext.holds and ext.c <= q.c + 1e-9):
            fails += 1
    return fails == 0, f"fails={fails} over {checked} certified traces"


@criterion("extendibility implies the explicit R-envelope", "convex_properties")
def criterion_10():
    """Extendibility certifies the explicit geometric envelope."""
    fails = checked = 0
    for tr, K, ext in _shared("windowed", lambda: list(_windowed_traces())):  # criterion 9's
        if not ext.holds:
            continue
        checked += 1
        if not diag.verify_r_certificate(tr.x[: K + 1], tr.limit, ext.c, ext.gamma, tol=1e-9):
            fails += 1
    return fails == 0, f"fails={fails} over {checked} extendible traces"


@criterion("epigraph: finite local modulus, global divergence", "paper_examples")
def criterion_11():
    """Epigraph pair: finite local modulus, divergent global ratio."""
    sc = build("epigraph")
    srp_a, srp_b = reg.estimate_sr_prime_stack([sc.A], [sc.B], [sc.base_point], [sc.intersection],
                                               [3], 0.3, None, (128, 256))
    local_ok = (
        math.isfinite(srp_a.value)
        and srp_a.value <= srp_b.value <= 1.1 * srp_a.value
        and abs(srp_a.value - math.sqrt(2.0)) <= 1e-2
    )
    ratios, growth_ok = reg.global_ratio_growth(sc.intersection, sc.B, 4)
    return (local_ok and growth_ok,
            f"sr'({sc.base_point.tolist()})={srp_a.value:.6f}, ratios={['%.1f' % r for r in ratios]}")


@criterion("rate-formula ordering on certified scenarios", "necessity_bounds")
def criterion_12():
    """Measured monotonicity never beats the certified rate formula."""
    fails = checked = 0
    cases = [build("two_lines_pi3"), build("two_lines_pi2")]
    cases += [sc for _, sc in _corpus(5, (2,), ("box_affine",))]
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
    return fails == 0, f"fails={fails} over {checked} certified cases"


@criterion("byte-identical repeated runs")
def criterion_13():
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
                return False, f"run exited {code}"
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
    return same and same_est, f"files equal={same}, estimates equal={same_est}"


SUITES["all"] = tuple(range(1, len(ALL_CRITERIA) + 1))


def run_suite(name: str) -> list[CriterionResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    ahead = list(SUITES[name])
    token = _WORK.set((ahead, {}))  # what its criteria hand forward lives for this call only
    try:
        return [ALL_CRITERIA[ahead.pop(0) - 1]() for _ in SUITES[name]]
    finally:
        _WORK.reset(token)
