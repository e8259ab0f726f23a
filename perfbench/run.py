"""opint benchmark: certified-report latency on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; opint is imported from its src/.  With
--trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run.  The lines
before it give the same numbers for a reader, with run metadata.  The
exit code is nonzero when any report fails its correctness check.
Standard library only: numpy, scipy and opint load in the worker
processes, after the BLAS thread variables are set.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sylvester_xcheck", "riccati_clustered", "measure_stieltjes", "cli_small")
# One BLAS thread in every workload process, on every commit: the box has
# two cores, and a second pool thread only competes with the scheduler.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "OPINT_THREADS")
SETUPS = 3          # set-up is measured this many times, median reported
DEADLINE_S = 170.0  # the whole command must end well within 180 s


def worker_env():
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src
    env["OPINT_BENCH_SRC"] = src
    return env


def run_worker(args, out, setup_only, deadline):
    """Start one workload process; return its result, its set-up wall
    seconds and the speed factor measured right after set-up."""
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=str(ROOT),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: {args.workload} did not finish before the deadline")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"error: {args.workload} worker exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, result["ready"] - started, result["speed"]


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "opint" / "__init__.py").is_file():
        print(f"error: no opint sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups = []  # (wall seconds, speed factor) of each set-up
    if not args.trace:
        for i in range(SETUPS - 1):
            setups.append(run_worker(args, out / f"setup{i}", True, deadline)[1:])
    result, *setup = run_worker(args, out, False, deadline)
    setups.append(setup)

    metrics = result["metrics"]
    wall = result.get("wall", {})
    if not args.trace:
        metrics["setup_s"] = (statistics.median(s * f for s, f in setups), "s")
        wall["setup_s"] = statistics.median(s for s, _ in setups)
    attempted, failed = result["attempted"], result["failed"]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "rounds": result["rounds"], "setup_samples": setups, "wall": wall,
        "tail_percentile": result.get("tail_pct"),
        "python": result["versions"]["python"], "numpy": result["versions"]["numpy"],
        "scipy": result["versions"]["scipy"], "platform": platform.platform(),
        "nproc": os.cpu_count(), "blas_threads_set": int(BLAS_THREADS),
        "blas_threads_effective": result["blas_threads"],
        "git_commit": git_commit(), "src_lines": src_lines(),
    }
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump({**meta, "metrics": metrics, "errors": result["errors"]}, fh, indent=1)

    for key in ("python", "numpy", "scipy", "nproc", "blas_threads_effective",
                "git_commit", "src_lines", "rounds", "tail_percentile"):
        if meta[key] is not None:
            print(f"# {key}: {meta[key]}")
    for err in result["errors"]:
        print(f"# FAILED {err}", file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        plain = f"  (wall clock {wall[name]:.6g})" if name in wall else ""
        print(f"{args.workload}  {name:<48} {value:.6g} {unit}{plain}")
    print(f"{args.workload}  {'failed_frac':<48} {failed / attempted:.6g} 1 "
          f"({failed} of {attempted} reports)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
