"""Benchmark of the fixpoint lab: three workloads, end-to-end and per-layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of one traced pass.  ``--smoke`` runs each workload at a
tiny size, for the benchmark's own test.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Set-up time is the time from starting a workload process to its first
operation: interpreter start, ``import fixpoint`` and building the inputs.
It is measured in several processes, half of them started before the
measuring process and half after it, so that they meet the machine at
different times, and the median is reported.  The workload itself runs in
one process with no threads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_all", "scenario_runs", "long_traces")

#: set-up-only processes started before and again after the measuring process
SETUPS_EACH_SIDE = 4
SMOKE_SETUPS_EACH_SIDE = 1
#: a workload process must end within this many seconds
TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def start(args, env: dict, work: Path, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a workload process and wait until it reports ready."""
    work.mkdir()
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process did not start (exit {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    return out


def measure(args, scratch: Path) -> dict:
    env = dict(os.environ)
    env.pop("FIXPOINT_SEED", None)  # the CLI lets it override --seed
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(scratch)  # criterion 13 writes bundles to a temp dir
    setups = []

    def setup_only(side: str) -> None:
        for i in range(SMOKE_SETUPS_EACH_SIDE if args.smoke else SETUPS_EACH_SIDE):
            proc, setup_s = start(args, env, scratch / f"setup_{side}{i}", setup_only=True)
            finish(proc)
            setups.append(setup_s)

    setup_only("before")
    proc, setup_s = start(args, env, scratch / "run", setup_only=False)
    setups.append(setup_s)
    res = json.loads(finish(proc).strip().splitlines()[-1])
    setup_only("after")
    print(f"{res['passes']} untraced passes, wall {res['wall_s']:.4f} s per pass, "
          f"machine slowdown {res['slowdown']:.3f}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "scaled_wall_s": {"value": res["scaled_wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "fixpoint" / "__init__.py").is_file():
        print(f"error: no fixpoint sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    scratch = ROOT / ".perfbench_work"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    try:
        result = measure(args, scratch)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
