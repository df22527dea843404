"""cubicmin benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the root of a cubicmin checkout:

    python3 perfbench/run.py --workload arc_suite --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare BASE.json NEW.json

A run imports cubicmin from ``src/`` of the current directory, builds the
workload's inputs from ``--seed`` (set-up, timed several times), starts
whole passes over them until ``--seconds`` of wall time have passed (so it
measures at least that long, and a pass longer than that runs once),
checks every output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every time is read from ``speed.SpeedClock``: seconds at a fixed reference
speed of the machine, which the clock samples every 25 ms (see speed.py).
On a steady machine they track wall seconds; on a shared one whose speed
drifts they stay steady where wall seconds do not.

With ``--trace 0`` the metrics are the end-to-end rows of BENCHMARK.json.
With ``--trace 1`` the run makes one traced pass, reports the per-layer
rows, then re-runs items untraced within ``--seconds``; the tracing
overhead is traced minus untraced time over those re-run items.  The full
result (machine notes, failures by class, pass times, speed probes) goes
to ``perfbench/out/``, with the spans of a traced pass.

End-to-end metrics, defined on every workload:

``setup_s``        import of cubicmin (NumPy is loaded before) plus the
                   median of three set-ups (input generation, problem
                   construction with the finite-difference check, problem
                   files, warm-up).
``peak_rss_mb``    peak resident set of the process.
``failure_share``  (failed + 1) / (attempted + 2): the add-one estimate of
                   the share of items that raise or fail a check, which is
                   never 0; the raw counts are ``failed`` and ``attempted``.
``outer_wall_s``   median seconds of one pass over the workload's items
                   (the ARC suite on arc_suite, the model batch elsewhere).
``outer_iters``    outer-loop iterations of one pass: ARC outer iterations
                   summed over cells on arc_suite; on the model workloads,
                   whose outer loop runs over models, the number of models.
``model_ms_p50``   per-model latency, each model's median over the passes.
``model_ms_p90``   A model is one generated cubic model, or on arc_suite one
                   outer-iteration subproblem, timed as its cell's time
                   divided by the cell's iterations.
``models_per_s``   cubic models solved per second of pass time.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_cubicmin(root, clock):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cubicmin", "__init__.py")):
        _fail(f"no cubicmin sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    t0 = clock()
    import cubicmin
    import_s = clock() - t0
    if not os.path.abspath(cubicmin.__file__).startswith(src + os.sep):
        _fail(f"imported cubicmin from {cubicmin.__file__}, not from {src}")
    return cubicmin, import_s


def machine_notes(cubicmin):
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name', 'unknown')} {dep.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "kernel_backend": cubicmin.kernel_backend(),
    }


def _quantile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _model_latencies_ms(workload, passes):
    """Per-model latencies, each item's median over the passes that ran it.

    Taking the median per item first keeps the percentiles independent of
    how many passes fitted in the run.
    """
    runs = {}
    for p in passes:
        for it in p.items:
            runs.setdefault(it.idx, []).append(it)
    out = []
    for items in runs.values():
        first = items[0]
        ms = 1000.0 * statistics.median(it.secs for it in items)
        if workload != "arc_suite":
            out.append(ms)
        elif first.error is None:
            out.extend([ms / first.models] * first.models)
    return out


def end_to_end(workload, passes, setup_s, attempted, failed):
    pass_s = statistics.median(p.secs for p in passes)
    models = passes[0].models
    lat = _model_latencies_ms(workload, passes) or [0.0]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "failure_share": ((failed + 1) / (attempted + 2), "share"),
        "outer_wall_s": (pass_s, "s"),
        "outer_iters": (models, "count"),
        "model_ms_p50": (statistics.median(lat), "ms"),
        "model_ms_p90": (_quantile(lat, 90), "ms"),
        "models_per_s": (models / pass_s, "1/s"),
    }


def _measure(args, clock):
    """Import, set up and run the workload; every time is read from ``clock``."""
    cubicmin, import_s = _import_cubicmin(os.getcwd(), clock)
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work_dir = os.path.join(HERE, "out", f"work-{args.workload}-{args.seed}")
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        state = wl.setup(args.seed, work_dir)
        setup_times.append(clock() - t0)

    passes = []
    tr = None
    try:
        if args.trace:
            tr = tracer.Tracer(clock)
            try:
                with tr:
                    passes.append(wl.run_pass(state, clock))
            except tracer.MissingFunction as exc:
                _fail(str(exc))
            passes.append(wl.rerun_untraced(state, clock, passes[0], args.seconds))
        else:
            deadline = time.perf_counter() + args.seconds
            passes.append(wl.run_pass(state, clock))
            while time.perf_counter() < deadline:
                passes.append(wl.run_pass(state, clock, first=False))
        reasons, wrong = workloads.check_passes(wl, state, passes)
    finally:
        workloads.cleanup(work_dir)
    return cubicmin, import_s, setup_times, passes, tr, reasons, wrong


def run(args):
    # BLAS threads are capped before NumPy loads: one thread, at most nproc.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import speed

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with speed.SpeedClock() as sc:
        t_wall = time.perf_counter()
        cubicmin, import_s, setup_times, passes, tr, reasons, wrong = _measure(args, sc.now)
        wall_s = time.perf_counter() - t_wall
    setup_s = import_s + statistics.median(setup_times)

    by_class = {}
    for item, reason in zip(passes[0].items, reasons):
        if reason is not None:
            row = by_class.setdefault(str(item.cls), {})
            row[reason] = row.get(reason, 0) + 1
    attempted = len(reasons)
    failed = sum(r is not None for r in reasons)
    if tr is not None and tr.problems:
        # Escapes made inside the solver are only seen by the tracer; a
        # bad one makes the run incorrect.
        wrong += len(tr.problems)
        row = by_class.setdefault("inside_solver", {})
        for layer, _ in tr.problems:
            row[f"{layer}_check"] = row.get(f"{layer}_check", 0) + 1

    if args.trace:
        traced = passes[0]
        paired = passes[1].items
        metrics = tracer.per_layer_metrics(
            tr, traced.models, traced.secs,
            sum(traced.items[it.idx].secs for it in paired), sum(it.secs for it in paired),
            len(paired))
    else:
        metrics = end_to_end(args.workload, passes, setup_s, attempted, failed)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    notes = machine_notes(cubicmin)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=notes, failures_by_class=by_class,
                  import_s=import_s, setup_times_s=setup_times,
                  pass_times_s=[p.secs for p in passes], speed=sc.summary(wall_s))
    if tr is not None:
        tr.write(os.path.join(out_dir, f"spans-{tag}.json.gz"))
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
        fh.write("\n")

    print("machine " + json.dumps(notes, sort_keys=True))
    print(f"passes {len(passes)}  times_s {[round(p.secs, 3) for p in passes]}")
    print("speed " + json.dumps(detail["speed"], sort_keys=True))
    print("failures_by_class " + json.dumps(by_class, sort_keys=True))
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ compare


def _load_bounds():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def compare(base_path, new_path):
    """Print per workload and metric: both medians, ratio, bound verdict.

    Returns 1 when a metric is worse than its bound.  A metric whose
    spread on either side exceeds its bound is reported as unresolved.
    Refuses two results made with different kernel backends, run lengths
    or seeds.
    """
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    for what, b_val, n_val in (
            ("kernel backend", base["machine"]["kernel_backend"],
             new["machine"]["kernel_backend"]),
            ("run seconds", base["seconds"], new["seconds"]),
            ("seeds", base["seeds"], new["seeds"])):
        if b_val != n_val:
            _fail(f"refusing to compare {what} {b_val!r} with {n_val!r}")
    specs = _load_bounds()
    print(f"base {base_path}  new {new_path}  ratio = new / base")
    print(f"{'workload':<13} {'metric':<40} {'base':>12} {'new':>12} {'ratio':>8} "
          f"{'spread':>7}  verdict")
    worse = 0
    for wl in sorted(set(base["workloads"]) & set(new["workloads"])):
        b_rows = base["workloads"][wl]["metrics"]
        n_rows = new["workloads"][wl]["metrics"]
        for name in sorted(set(b_rows) & set(n_rows)):
            b_med = b_rows[name]["median"]
            n_med = n_rows[name]["median"]
            ratio = n_med / b_med if b_med else float("nan")
            spread = max(b_rows[name]["spread"], n_rows[name]["spread"])
            spec = specs.get(name, {})
            verdict = "-"
            if "bound" in spec:
                sign = 1.0 if spec["better"] == "lower" else -1.0
                change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
                if change > spec["bound"]:
                    verdict = "worse than bound"
                    worse += 1
                elif spread > spec["bound"]:
                    verdict = "unresolved: spread above bound"
                else:
                    verdict = "within bound"
            print(f"{wl:<13} {name:<40} {b_med:>12.6g} {n_med:>12.6g} {ratio:>8.3f} "
                  f"{spread:>7.3f}  {verdict}")
    return 1 if worse else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("arc_suite", "models_small", "models_large"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two sweep results written by perfbench/sweep.py")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
