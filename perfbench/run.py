"""minflux benchmark: one workload, one seed, a closed loop for a set time.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  One caller runs ops back to back, each
starting when the previous one ends, until S seconds have passed and at
least one full pass over the workload's op mix is done.  Every op is
checked against the acceptance thresholds; an op that raises or misses
its gate counts as failed and the loop goes on.

--trace 0 prints the end-to-end metrics, with op times scaled by the host
speed measured in the same run (hostspeed.py); --trace 1 patches spans
onto the library, runs one pass of the op mix traced and the same pass
untraced, and prints the per-layer metrics.  A table for people comes first; the
last line of standard output is the JSON result.  Details of the run,
and the spans of a traced run, are written under .perfbench_out/.
--workload all runs every workload, each in a process of its own, and
combines their results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

# single-threaded BLAS/OpenMP, fixed before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import hostspeed  # noqa: E402  (imports numpy, so after the thread variables)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"

# workload names (see workloads.py), checked before minflux is imported
WORKLOADS = ("flux_isotopy", "labyrinth_step", "pair_spray", "cli_roundtrip")

# end-to-end metrics of the JSON result, in BENCHMARK.json order
END_TO_END = ("setup_s", "peak_rss_mb", "main_norm_s", "second_norm_s")

# set-up is timed in this process and in SETUP_PROBES fresh interpreters
SETUP_PROBES = 6

# op times leave out the host speed probes that interrupt them
clock = hostspeed.clock


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up once, print the seconds and exit")
    return p.parse_args(argv)


def _setup(name, seed):
    """Import minflux and build the workload's inputs; (workload, seconds)."""
    t0 = clock()
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.make(name, seed, WORKDIR)
    return wl, clock() - t0


def _probe_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _run_op(label, fn, failures):
    t0 = clock()
    try:
        parts = fn()
        error = None
    except Exception as exc:  # an op boundary: record, report, go on
        parts, error = {}, type(exc).__name__
        failures.append({"op": label, "error": error, "message": str(exc)})
        traceback.print_exc(file=sys.stderr)
    return {"op": label, "start": t0, "seconds": clock() - t0,
            "parts": parts, "error": error}


def _closed_loop(wl, seconds, failures, min_ops):
    """Ops back to back until `seconds` passed and `min_ops` ops ran."""
    records = []
    ops = wl.ops()
    start = clock()
    while True:
        label, fn = next(ops)
        records.append(_run_op(label, fn, failures))
        if len(records) >= min_ops and clock() - start >= seconds:
            return records, clock() - start


def _percentiles(values):
    """Median, the highest of p75..p99 with ten samples above, mean, min."""
    out = {"p50": statistics.median(values)}
    if len(values) > 1:
        cuts = statistics.quantiles(values, n=100)
        for q in (99, 95, 90, 75):
            if sum(v > cuts[q - 1] for v in values) >= 10:
                out[f"p{q}"] = cuts[q - 1]
                break
    out.update(mean=statistics.fmean(values), min=min(values))
    return out


def _named_metrics(wl, records):
    """The workload's named latencies: base name -> (stats, n)."""
    out = {}
    for part, name in wl.samples.items():
        vals = [r["parts"][part] for r in records if part in r["parts"]]
        if vals:
            out[name] = (_percentiles(vals), len(vals))
    return out


def _environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _row(name, value, unit, n):
    if isinstance(value, float):
        value = f"{value:.6g}"
    return f"  {name:<44} {value:>14} {unit:<7} n={n}"


def _untraced(args, wl, setup):
    failures = []
    with hostspeed.Probe() as probe:
        records, wall = _closed_loop(wl, args.seconds, failures, wl.cycle)
    speed = probe.factor()
    for r in records:
        r["speed"] = probe.local_factor(r["start"], r["start"] + r["seconds"])
    checks = wl.checks()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = _named_metrics(wl, records)

    def norm(part):
        """Mean seconds of one op kind at nominal host speed."""
        vals = [r["parts"][part] * r["speed"] for r in records
                if part in r["parts"]]
        if vals:
            return statistics.fmean(vals), "s", len(vals)
        # every op of this kind failed; the run is already incorrect
        vals = [r["seconds"] * r["speed"] for r in records]
        return statistics.fmean(vals), "s", 0

    e2e = dict(zip(END_TO_END, (
        (statistics.median(setup), "s", len(setup)),
        (rss_mb, "MiB", 1),
        norm(wl.main),
        norm(wl.second),
    )))
    print("end-to-end metrics (tracing off):")
    for name, (value, unit, n) in e2e.items():
        print(_row(name, value, unit, n))
    print(_row("host_speed_factor", speed, "ratio", len(probe.samples)))
    print(_row("wall_s", wall, "s", 1))
    print(_row("failed_frac", len(failures) / len(records), "ratio", len(records)))
    for name, (stats, n) in named.items():
        for q, value in stats.items():
            print(_row(f"{name}_{q}_s", value, "s", n))
    print(f"  main_norm_s = mean of {wl.samples[wl.main]} op seconds * op speed "
          f"factor, second_norm_s = the same of {wl.samples[wl.second]}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
    detail = {
        "e2e": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
        "wall_s": wall,
        "host_speed_factor": speed,
        "probe_samples_s": probe.samples,
        "named": {k: {"stats": s, "n": n} for k, (s, n) in named.items()},
        "setup_samples": setup,
        "ops": records,
    }
    return records, failures, checks, metrics, detail


def traced_pass(wl, failures):
    """One pass over the op mix with spans recorded: (tracer, records, wall)."""
    import tracer

    ops = wl.ops()
    records = []
    with tracer.Tracer() as tr:
        t0 = clock()
        for i in range(wl.cycle):
            label, fn = next(ops)
            tr.op = i
            records.append(_run_op(label, fn, failures))
        wall = clock() - t0
    return tr, records, wall


def _traced(args, wl):
    failures = []
    tr, records, traced_wall = traced_pass(wl, failures)
    open_spans = tr.open_spans()
    # the same pass untraced, repeated until the run time is used
    plain, plain_walls, start = [], [], clock()
    while not plain_walls or clock() - start < args.seconds:
        recs, wall = _closed_loop(wl, 0.0, failures, wl.cycle)
        plain += recs
        plain_walls.append(wall)
    checks = wl.checks()
    checks["spans_closed"] = (not open_spans, f"{len(open_spans)} open")
    overhead = traced_wall / statistics.median(plain_walls) - 1.0

    layer = tr.layer_metrics()
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    print(f"per-layer metrics (one traced pass of {wl.cycle} ops, "
          f"{traced_wall:.3f} s; untraced {statistics.median(plain_walls):.3f} s):")
    for name, m in metrics.items():
        print(_row(name, m["value"], m["unit"], wl.cycle))
    print("per-op work counts (nonzero):")
    per_op = {}
    for i, rec in enumerate(records):
        spans = [s for s in tr.spans if s.op == i]
        counts = {k: v for k, (v, u) in tr.layer_metrics(spans).items()
                  if u != "s" and v}
        per_op[i] = {"op": rec["op"], "seconds": rec["seconds"], "counts": counts}
        print(f"  op {i} {rec['op']} ({rec['seconds']:.3f} s): "
              + ", ".join(f"{k}={v}" for k, v in counts.items()))
    WORKDIR.mkdir(exist_ok=True)
    tr.write(WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    detail = {"traced_wall_s": traced_wall, "untraced_walls_s": plain_walls,
              "per_op": per_op, "ops": records + plain}
    return records + plain, failures, checks, metrics, detail


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "minflux" / "__init__.py").is_file():
        print(f"minflux sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _all(args)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.setup_only:
        print(_setup(args.workload, args.seed)[1])
        return 0
    return _bench(args)


def _all(args):
    """Every workload in a process of its own, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=True)
        *table, last = done.stdout.rstrip("\n").splitlines()
        print("\n".join(table))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def _bench(args):
    wl, first_setup = _setup(args.workload, args.seed)
    env = _environment()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(
        f"{k}={v}" for k, v in env.items() if k != "threads")
        + ", BLAS/OpenMP threads=1, closed loop, 1 client")
    if args.trace:
        records, failures, checks, metrics, detail = _traced(args, wl)
    else:
        setup = [first_setup] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
        records, failures, checks, metrics, detail = _untraced(args, wl, setup)
    for name, (ok, note) in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({note})")
    for f in failures:
        print(f"failed op {f['op']}: {f['error']}: {f['message']}")
    correct = not failures and all(ok for ok, _ in checks.values())
    WORKDIR.mkdir(exist_ok=True)
    detail.update(environment=env, args=vars(args), failures=failures,
                  checks={k: list(v) for k, v in checks.items()})
    out = WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, default=float) + "\n")
    result = {"correct": correct, "attempted": len(records),
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
