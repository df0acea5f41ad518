"""Batch front-end: run scenarios, export traces, verify suites.

Subcommands:
  run <name|path|all>   run a scenario; write trace.csv/.json, report.json, plot.svg
                        ("all" runs every built-in into <out>/<name>/)
  verify <suite>        run a verification suite; print a pass/fail table
  estimate <constant|all> <name|path>   print a regularity estimate as JSON
                        ("all" prints every constant, keyed by name)

Exit codes: 0 success, 1 error, 2 scenario expectation mismatch.
The FIXPOINT_SEED environment variable overrides the --seed flag.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from . import regularity as reg
from .engine import (
    AlternatingProjections,
    DouglasRachford,
    IterationConfig,
    Trace,
    check_stop_rule,
    run,
)
from .geometry import as_target, ball_point, distance, norm
from .scenarios import EXPECTED, Scenario, build, builtin_names, estimable, load_scenario


def _load(name_or_path: str) -> Scenario:
    if name_or_path in builtin_names():
        return build(name_or_path)
    if Path(name_or_path).exists():
        return load_scenario(name_or_path)
    raise ValueError(
        f"unknown scenario {name_or_path!r}: not a built-in name {builtin_names()} and not a file"
    )


def _resolve_seed(seed: int) -> int:
    """FIXPOINT_SEED if set, else --seed: an integer >= 0."""
    env = os.environ.get("FIXPOINT_SEED")
    source, value = ("FIXPOINT_SEED", env) if env else ("--seed", seed)
    if not str(value).strip().isdecimal():
        raise ValueError(f"{source} must be an integer >= 0, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# run


def _sequence_trace(sc: Scenario) -> Trace:
    """Wrap an explicitly shipped sequence as a trace record."""
    xs = np.asarray(sc.sequence, dtype=float)
    return Trace.record(xs, sc.A, sc.B, sc.intersection, [math.nan] * len(xs), "sequence",
                        {"operator": "none", "seed_point": [float(t) for t in xs[0]]})


def _run_diagnostics(sc: Scenario, tr: Trace) -> dict:
    out: dict = {"stop_reason": tr.stop_reason, "iterations": len(tr.x) - 1,
                 "limit": [float(t) for t in tr.limit],
                 "final_residual": float(tr.residual[-1])}
    if sc.intersection is not None and len(tr.x) >= 2:
        # the trace's target is sc.intersection: dist_target holds the distances
        mon = diag.check_linear_monotone(tr.x, sc.intersection, dists=tr.dist_target)
        out["monotonicity_c"] = mon.c
        out["monotonicity_degenerate"] = mon.degenerate
    try:
        out["q_rate"] = diag.estimate_q_rate(tr.x, limit=tr.limit).c
    except ValueError:
        out["q_rate"] = None
    try:
        r = diag.estimate_r_rate(tr.x, limit=tr.limit)
        out["r_rate"] = r.c
        out["r_gamma"] = r.gamma
    except ValueError:
        out["r_rate"] = None
    if len(tr.z) >= 4:
        ext = diag.check_linear_extendible(tr.z, 2)
        out["extendible_m2"] = {"holds": ext.holds, "c": ext.c, "gamma": ext.gamma}
    if sc.convex and len(tr.b):
        rep = diag.check_convex_dichotomy(tr)
        out["dichotomy"] = {"outcome": rep.outcome, "c": rep.c, "bound_holds": rep.bound_holds}
    return out


def _check_expectations(sc: Scenario, tr: Trace, measured: dict, estimates: dict) -> list[dict]:
    """One check per expected key (scenario_from_json admits only checkable ones)."""
    numbers = {
        **estimates,
        "q_rate": measured.get("q_rate"),
        "monotonicity_c": measured.get("monotonicity_c"),
        "linear_c": measured.get("monotonicity_c"),
        "extendible_c": measured.get("extendible_m2", {}).get("c"),
    }
    checks = []

    def add(name, expected, got, tol, ok):
        checks.append(
            {"name": name, "expected": expected, "measured": got, "tol": tol, "ok": bool(ok)}
        )

    for key, exp in sc.expected.items():
        tol = exp.tol
        if EXPECTED[key][0] == "number":
            got = numbers.get(key)
            add(key, exp.value, got, tol, got is not None and abs(got - exp.value) <= tol)
        elif key == "fejer_holds":
            witness = sc.expected.get("fejer_witness")
            probe = [np.asarray(witness.value, float)] if witness else list(sc.intersection or [])
            rep = diag.check_fejer(tr.x, probe)
            add(key, exp.value, rep.holds, 0, rep.holds == exp.value)
        elif key == "iterations_to_solve":
            add(key, exp.value, tr.solved_at, 0, tr.solved_at == exp.value)
        elif key == "solution":
            got = [float(t) for t in tr.limit]
            ok = norm(tr.limit - np.asarray(exp.value, float)) <= max(tol, 1e-12)
            add(key, exp.value, got, tol, ok)
        elif key == "stuck_points":
            near = min(as_target(t, sc.A.dim, what)._distance(tr.limit)
                       for t, what in ((exp.value, key), (sc.intersection, "intersection")))
            add(key, "limit is a listed stuck point or the intersection",
                [float(t) for t in tr.limit], 1e-9, near <= 1e-9)
        elif key == "intersection":
            p = np.asarray(exp.value, float)
            ok = distance(sc.A, p) <= 1e-9 and distance(sc.B, p) <= 1e-9
            add(key, exp.value, exp.value, 1e-9, ok)
        elif key == "global_ratio_diverges":
            try:
                _, diverges = reg.global_ratio_growth(sc.intersection, sc.B, 3)
            except ValueError as e:
                raise ValueError(f"scenario key 'expected.{key}' cannot be checked: {e}") from None
            add(key, exp.value, diverges, 0, diverges == exp.value)
    return checks


def _plot_svg(ys: list[float], title: str) -> str:
    """Static SVG polyline of log10 values against the index."""
    w, h, pad = 640, 400, 50
    floor = 1e-16
    logs = [math.log10(max(float(y), floor)) if math.isfinite(y) else math.log10(floor) for y in ys]
    lo, hi = min(logs), max(logs)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    n = max(len(logs) - 1, 1)
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")  # as XML text
    pts = []
    for k, v in enumerate(logs):
        x = pad + (w - 2 * pad) * k / n
        y = h - pad - (h - 2 * pad) * (v - lo) / (hi - lo)
        pts.append(f"{x:.2f},{y:.2f}")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{pad}" y1="{h-pad}" x2="{w-pad}" y2="{h-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h-pad}" stroke="black"/>',
        f'<text x="{w//2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{w//2}" y="{h-12}" text-anchor="middle" font-size="12">k</text>',
        f'<text x="14" y="{h//2}" font-size="12" transform="rotate(-90 14 {h//2})" text-anchor="middle">log10 dist to target</text>',
        f'<text x="{pad-6}" y="{h-pad}" text-anchor="end" font-size="10">{lo:.1f}</text>',
        f'<text x="{pad-6}" y="{pad+4}" text-anchor="end" font-size="10">{hi:.1f}</text>',
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{" ".join(pts)}"/>',
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


#: constant -> its estimate on a scenario at radius delta; ``run`` reports
#: sr only for convex pairs and kappa (over A, radius 1) only when expected
ESTIMATES = {
    "sr_prime": lambda sc, delta, **kw: reg.estimate_sr_prime(
        sc.A, sc.B, sc.base_point, delta, lam=sc.lam, intersection=sc.intersection, **kw),
    "sr": lambda sc, delta, **kw: reg.estimate_sr(
        sc.A, sc.B, sc.base_point, delta, lam=sc.lam, intersection=sc.intersection, **kw),
    "kappa": lambda sc, delta, **kw: reg.estimate_kappa(
        AlternatingProjections(sc.A, sc.B), sc.intersection, sc.base_point, delta,
        lam=sc.lam, on_set=sc.A, **kw),
    "sigma": lambda sc, delta, **kw: reg.estimate_sigma(sc.A, sc.B, sc.base_point, delta, **kw),
}


def execute_run(
    scenario: str,
    out_dir: str,
    seed: int = 0,
    max_iter: int = 100_000,
    residual_tol: float = 1e-12,
    delta: float = 0.5,
    samples: int = 256,
    operator: str = "ap",
) -> int:
    """Run one scenario end to end and write the output bundle; ``all``
    runs every built-in into ``out_dir/<name>`` and returns 1 if any run
    had an error, else 2 if any expectation failed, else 0.  Every flag is
    checked first, whether or not the scenario uses it."""
    try:
        reg.check_sampling(delta, samples)
        check_stop_rule(max_iter, residual_tol)
        if operator not in ("ap", "dr"):
            raise ValueError("operator must be 'ap' or 'dr'")
        if scenario == "all":
            codes = [
                execute_run(name, str(Path(out_dir, name)), seed, max_iter, residual_tol,
                            delta, samples, operator)
                for name in builtin_names()
            ]
            return 1 if 1 in codes else max(codes)
        sc = _load(scenario)
        seed = _resolve_seed(seed)
        if operator == "dr" and "extendible_c" in sc.expected:
            raise ValueError("scenario key 'expected.extendible_c' cannot be checked with "
                             "--operator dr: a DR run records no joining sequence")
        if sc.sequence is not None:
            tr = _sequence_trace(sc)
        else:
            op_cls = AlternatingProjections if operator == "ap" else DouglasRachford
            op = op_cls(sc.A, sc.B)
            cfg = IterationConfig(
                seed_point=ball_point(*sc.seed_region, seed, 0),
                max_iter=max_iter,
                residual_tol=residual_tol,
                lam=sc.lam,
                target=sc.intersection,
            )
            tr = run(op, cfg)

        measured = _run_diagnostics(sc, tr)
        estimates: dict = {}
        if estimable(sc):
            kw = {"samples": samples, "seed": seed}
            srp = ESTIMATES["sr_prime"](sc, delta, **kw).value
            estimates["sr_prime"] = estimates["sr_prime_local"] = srp
            if sc.convex:
                estimates["sr"] = ESTIMATES["sr"](sc, delta, **kw).value
            if "kappa_on_A" in sc.expected:
                estimates["kappa_on_A"] = ESTIMATES["kappa"](sc, 1.0, **kw).value

        checks = _check_expectations(sc, tr, measured, estimates)
        report = {
            "scenario": sc.name,
            "config": {
                "seed": seed, "max_iter": max_iter, "residual_tol": residual_tol,
                "delta": delta, "samples": samples, "operator": operator,
            },
            "diagnostics": measured,
            "estimates": estimates,
            "expectation_checks": checks,
            "ok": all(c["ok"] for c in checks),
        }

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "trace.csv", "w", encoding="utf-8") as fc, \
                open(out / "trace.json", "w", encoding="utf-8") as fj:
            tr.write(fc, fj)
        (out / "report.json").write_text(
            json.dumps(report, sort_keys=True, indent=1), encoding="utf-8"
        )
        (out / "plot.svg").write_text(
            _plot_svg(tr.dist_target, f"{sc.name}: distance to target"), encoding="utf-8"
        )
        for c in checks:
            mark = "ok " if c["ok"] else "MISMATCH"
            print(f"  {mark} {c['name']}: expected={c['expected']} measured={c['measured']}")
        print(f"wrote {out}/trace.csv trace.json report.json plot.svg")
        return 0 if report["ok"] else 2
    except (ValueError, OSError) as e:
        print(f"error: {scenario}: {e}", file=sys.stderr)
        return 1


def execute_verify(suite: str) -> int:
    from .verify import run_suite

    try:
        results = run_suite(suite)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for r in results:
        print(r.line())
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    return 0 if n_pass == len(results) else 1


def execute_estimate(constant: str, scenario: str, delta: float, samples: int, seed: int) -> int:
    try:
        sc = _load(scenario)
        seed = _resolve_seed(seed)
        if sc.base_point is None:
            raise ValueError("scenario has no base point to estimate at")
        kw = {"samples": samples, "seed": seed}
        if constant == "all":
            out = {name: est(sc, delta, **kw).to_json_dict() for name, est in ESTIMATES.items()}
        elif constant in ESTIMATES:
            out = ESTIMATES[constant](sc, delta, **kw).to_json_dict()
        else:
            raise ValueError(f"constant must be one of: {', '.join(ESTIMATES)}, all")
        print(json.dumps(out, sort_keys=True, indent=1))
        return 0
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fixpoint", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run a scenario and write the output bundle")
    pr.add_argument("scenario", help=f"built-in name ({', '.join(builtin_names())}), JSON file or all")
    pr.add_argument("--max-iter", type=int, default=100_000)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--delta", type=float, default=0.5)
    pr.add_argument("--samples", type=int, default=256)
    pr.add_argument("--out", default="out")
    pr.add_argument("--operator", choices=("ap", "dr"), default="ap")
    pr.add_argument("--residual-tol", type=float, default=1e-12)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", help="paper_examples | convex_properties | necessity_bounds | all")

    pe = sub.add_parser("estimate", help="estimate one regularity constant")
    pe.add_argument("constant", help="sr_prime | sr | kappa | sigma | all")
    pe.add_argument("scenario")
    pe.add_argument("--delta", type=float, default=0.5)
    pe.add_argument("--samples", type=int, default=256)
    pe.add_argument("--seed", type=int, default=0)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return execute_run(
            scenario=args.scenario, out_dir=args.out, seed=args.seed,
            max_iter=args.max_iter, residual_tol=args.residual_tol,
            delta=args.delta, samples=args.samples, operator=args.operator,
        )
    if args.command == "verify":
        return execute_verify(args.suite)
    if args.command == "estimate":
        return execute_estimate(args.constant, args.scenario, args.delta, args.samples, args.seed)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
