"""One workload process: set the workload up, then measure or trace it.

Started by run.py with the BLAS thread variables and PYTHONPATH already
set, so numpy loads with the pinned thread count and opint comes from the
checkout's src/.  Prints one JSON object on its last stdout line.

Report times are reported on the probe's fixed scale (see speed.py); the
plain wall-clock figures go alongside under "wall".
"""

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time

import speed


def blas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def run_report(rep, tracer=None, rid=None):
    """Time one report, then check it; return (seconds, error message or None)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = rep.run()
        else:
            with tracer.span("report", report=rid):
                out = rep.run()
        err = None
    except Exception as exc:  # a report that raises is a failed report
        out, err = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if err is None:
        try:
            err = rep.check(out)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
    return dt, (None if err is None else f"{rep.label}: {err}")


def peak_rss_mb(who):
    ru = resource.getrusage(resource.RUSAGE_CHILDREN if who == "children"
                            else resource.RUSAGE_SELF)
    return ru.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def latency_metrics(samples, tail_pct):
    ordered = sorted(samples)
    rank = -(-tail_pct * len(ordered) // 100)  # nearest-rank percentile
    return {"report_p50_s": (statistics.median(samples), "s"),
            "report_tail_s": (ordered[rank - 1], "s"),
            "reports_per_s": (len(samples) / sum(samples), "1/s")}


def measure(wl, seconds, samples_path):
    """Closed loop, one client: whole rounds until `seconds` have passed
    and at least wl.min_reports reports are in.  Each report is followed,
    outside its timing, by its check and by speed probes."""
    samples, labels, probes, errors = [], [], [], []
    rounds = 0
    t0 = time.perf_counter()
    while True:
        for rep in wl.round:
            dt, err = run_report(rep)
            samples.append(dt)
            labels.append(rep.label)
            probes.append(speed.probe())
            if err:
                errors.append(err)
        rounds += 1
        if time.perf_counter() - t0 >= seconds and len(samples) >= wl.min_reports:
            break
    scaled = [dt * f for dt, f in zip(samples, speed.factors(probes))]
    with open(samples_path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["label", "wall_s", "scaled_s", "probe_s"],
                   "rows": [[lab, dt, sc, p] for lab, dt, sc, p
                            in zip(labels, samples, scaled, probes)]}, fh)
    metrics = latency_metrics(scaled, wl.tail_pct)
    metrics["peak_rss_mb"] = (peak_rss_mb(wl.peak_rss), "MB")
    raw = {name: value for name, (value, _) in
           latency_metrics(samples, wl.tail_pct).items()}
    return metrics, {"attempted": len(samples), "failed": len(errors),
                     "errors": errors[:10], "rounds": rounds,
                     "tail_pct": wl.tail_pct, "wall": raw}


def trace(wl, seconds, spans_path):
    """Pairs of one untraced and one traced round until `seconds` pass."""
    import spans

    tracer = spans.Tracer()
    overhead, untraced, errors = [], [], []
    attempted = pairs = rid = 0
    plain_span = wl.span
    t0 = time.perf_counter()
    while True:
        walls = []
        for traced in (False, True):
            if traced:
                tracer.install()
                wl.span = tracer.span
            try:
                wall = 0.0
                for rep in wl.trace_round():
                    rid += 1
                    dt, err = run_report(rep, tracer if traced else None, rid)
                    wall += dt
                    attempted += 1
                    if not traced:
                        untraced.append(dt)
                    if err:
                        errors.append(err)
            finally:
                if traced:
                    tracer.uninstall()
                    wl.span = plain_span
            walls.append(wall)
        overhead.append(walls[1] - walls[0])
        pairs += 1
        if time.perf_counter() - t0 >= seconds:
            break
    tracer.write(spans_path)
    metrics = spans.per_layer(tracer.spans, pairs)
    metrics.update(wl.trace_metrics(untraced))
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    return metrics, {"attempted": attempted, "failed": len(errors),
                     "errors": errors[:10], "rounds": pairs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # one vCPU for this process, its probes and its CLI children, so the
    # probes see the same core the reports ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import numpy
    import scipy
    import opint
    import workloads

    src = os.path.realpath(os.environ["OPINT_BENCH_SRC"])
    if not os.path.realpath(opint.__file__).startswith(src + os.sep):
        print(f"opint was imported from {opint.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, os.path.join(args.out, "files"))
    wl.warmup()
    ready = time.monotonic()
    setup_speed = speed.PROBE_NOMINAL_S / statistics.median(speed.probe(15))
    if args.setup_only:
        print(json.dumps({"ready": ready, "speed": setup_speed}))
        return 0
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "instances": wl.manifest},
                  fh, indent=1)
    if args.trace:
        metrics, stats = trace(wl, args.seconds, os.path.join(args.out, "spans.jsonl"))
    else:
        metrics, stats = measure(wl, args.seconds, os.path.join(args.out, "samples.json"))
    result = {"ready": ready, "speed": setup_speed, "metrics": metrics, **stats,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__},
              "blas_threads": blas_threads()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
