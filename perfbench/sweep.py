"""Run the benchmark over several seeds and aggregate the results.

    python3 perfbench/sweep.py --runs 10 --out perfbench/out/sweep.json --label mine
    python3 perfbench/sweep.py --workloads models_small --runs 5 --first-seed 100

Each run is ``perfbench/run.py`` in its own process, as the benchmark is
meant to be run, for ``run_seconds`` of BENCHMARK.json.  For every
workload and metric the output file holds the values, median, quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the inter-quartile
distance as a share of the median.  End-to-end rows come from
``--trace 0`` runs, per-layer rows from ``--trace-runs`` traced runs.  Two
such files, made on the same seeds, are compared with
``python3 perfbench/run.py --compare BASE.json NEW.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(HERE, "out", f"result-{tag}.json"), encoding="utf-8") as fh:
        detail = json.load(fh)
    return result, detail, wall


def _aggregate(results):
    rows = {}
    for res in results:
        for name, m in res["metrics"].items():
            rows.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for row in rows.values():
        vals = row["values"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        row.update(median=med, q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--label", default="", help="what was measured, kept in the output")
    parser.add_argument("--workloads", default="arc_suite,models_small,models_large")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    out = {"label": args.label, "seconds": seconds, "seeds": seeds, "machine": None,
           "workloads": {}}
    for wl in [w for w in args.workloads.split(",") if w]:
        plain, traced, walls, counts = [], [], [], []
        for i, seed in enumerate(seeds):
            res, detail, wall = _one_run(wl, seed, seconds, 0)
            plain.append(res)
            walls.append(wall)
            counts.append({k: res[k] for k in ("correct", "attempted", "failed")})
            out["machine"] = out["machine"] or detail["machine"]
            print(f"{wl} seed {seed}: {wall:.1f}s " + json.dumps(counts[-1]), flush=True)
            if i < args.trace_runs:
                res, _, wall = _one_run(wl, seed, seconds, 1)
                traced.append(res)
                print(f"{wl} seed {seed} traced: {wall:.1f}s", flush=True)
        metrics = _aggregate(plain)
        metrics.update(_aggregate(traced))
        out["workloads"][wl] = {"runs": counts, "run_walls_s": walls, "metrics": metrics}
        for name, row in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if row["spread"] < bound / 3.0 else "SPREAD ABOVE BOUND/3"
            if bound is not None or args.trace_runs:
                print(f"  {name:<40} median {row['median']:<12.6g} spread {row['spread']:.4f}"
                      f"  bound {bound}  {flag}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
