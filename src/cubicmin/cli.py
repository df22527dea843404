"""Command-line interface.

Commands: solve, stationary, escape, minimize, bench, profile.  Exit
codes: 0 success, 1 input or schema error, 2 solver error.  Output goes
to stdout or to --out; --format selects human text or JSON.  All output
is plain (no ANSI color), so NO_COLOR is honored by construction.
"""

import argparse
import concurrent.futures
import csv
import functools
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import escape as escape_mod
from . import linalg
from . import model as model_mod
from .driver import (
    ARC,
    ARC_PLUS,
    ArcOptions,
    arc_plus_minimize,
    performance_profile,
    solve_via_escapes,
)
from .exceptions import CubicminError, EmptyInput, SchemaError
from .model import CubicModel, StationaryPoint
from .problem_io import load_problem
from .problems import DEFAULT_SUITE, available_problems, cubic_objective, get_problem
from .stationary import count_bound, enumerate_stationary, global_minimize

__all__ = ["main"]

_BENCH_HEADER = [
    "name",
    "n",
    "variant",
    "seed",
    "converged",
    "iterations",
    "f_final",
    "grad_inf_norm",
    "wall_ms",
    "error",
]

_VARIANTS = {"arc": ARC, "arc_plus": ARC_PLUS}


class _Parser(argparse.ArgumentParser):
    # Usage problems are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(low, what):
    # argparse type for integers >= low; argparse names the flag in its
    # error line.
    def parse(text):
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")

    return parse


@functools.cache
def _build_parser():
    # Built once per process, on the first call: construction dominates a
    # small command's fixed cost, and parse_args leaves the parser as it was.
    parser = _Parser(
        prog="cubicmin",
        description="Certified global minimization of cubic-regularized "
        "quadratic models, plus an adaptive outer optimizer.",
    )
    parser.add_argument("--version", action="version", version=f"cubicmin {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=_int_at_least(0, "non-negative"),
        default=0,
        help="non-negative seed for any randomness",
    )
    common.add_argument(
        "--jobs",
        type=_int_at_least(1, "positive"),
        default=None,
        help="worker processes (default: every CPU)",
    )
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="human text or JSON output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common], help="globally minimize one model")
    p.add_argument("problem", help="problem file (JSON)")
    p.add_argument(
        "--method",
        choices=("secular", "escapes"),
        default="secular",
        help="secular enumeration or local-solve-plus-escape loop",
    )
    p.add_argument(
        "--eps", type=float, default=None, help="gradient tolerance (--method escapes only)"
    )
    p.add_argument(
        "--eps2", type=float, default=None, help="curvature tolerance (--method escapes only)"
    )

    p = sub.add_parser(
        "stationary", parents=[common], help="enumerate all stationary points"
    )
    p.add_argument("problem", help="problem file (JSON)")

    p = sub.add_parser(
        "escape", parents=[common], help="one escape move from a stationary point"
    )
    p.add_argument("problem", help="problem file (JSON)")
    p.add_argument(
        "--point",
        required=True,
        help="comma-separated coordinates of the stationary point",
    )
    p.add_argument(
        "--eps",
        type=float,
        default=None,
        help="use the approximate tests; the point's residual must be at most eps",
    )
    p.add_argument(
        "--eps2", type=float, default=None, help="curvature tolerance (needs --eps)"
    )

    p = sub.add_parser(
        "minimize", parents=[common], help="run the outer optimizer on an objective"
    )
    p.add_argument(
        "objective",
        help="registered problem name, or a problem file treated as f = m",
    )
    p.add_argument(
        "--variant", choices=sorted(_VARIANTS), default="arc_plus", help="outer variant"
    )
    p.add_argument("--x0", default=None, help="comma-separated start (default built-in)")
    p.add_argument("--tol", type=float, default=1e-5, help="gradient sup-norm target")
    p.add_argument("--max-iters", type=int, default=100000)
    p.add_argument(
        "--cauchy-start",
        action="store_true",
        help="seed subproblems from the Cauchy point instead of a random sphere point",
    )

    p = sub.add_parser(
        "bench", parents=[common], help="iteration benchmark over a problem suite"
    )
    p.add_argument(
        "suite",
        nargs="?",
        default=None,
        help="directory of problem files, or comma-separated registered names "
        "(default: built-in suite)",
    )
    p.add_argument(
        "--variants",
        default="arc,arc_plus",
        help="comma-separated subset of {arc, arc_plus}",
    )
    p.add_argument(
        "--seeds",
        default="0,1,2,3,4",
        help="comma-separated non-negative seed list, or a count meaning seeds 0..k-1",
    )

    p = sub.add_parser(
        "profile", parents=[common], help="performance profile from a bench CSV"
    )
    p.add_argument("csv_in", help="CSV produced by `cubicmin bench`")

    return parser


def _write_output(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_vector(text, n, what):
    # "1,,0" or a leading or trailing comma is a typo, not a shorter vector.
    if any(not field.strip() for field in text.split(",")):
        raise SchemaError(what, f"empty coordinate in {text!r}")
    try:
        values = [float(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise SchemaError(what, f"could not parse {text!r} as numbers") from None
    if len(values) != n:
        raise SchemaError(what, f"expected {n} coordinates, got {len(values)}")
    point = np.array(values)
    if not np.all(np.isfinite(point)):
        raise SchemaError(what, "coordinates must be finite")
    return point


def _json_vector(v):
    return np.asarray(v, dtype=float).reshape(-1).tolist()


def _result_record(m, name, method, sol, trace, wall_ms):
    cases = [step[1] for step in trace.steps] if trace is not None else []
    return {
        "tool": "cubicmin",
        "version": __version__,
        "name": name,
        "n": m.n,
        "method": method,
        "solution": _json_vector(sol.s_star),
        "lambda": float(sol.lambda_star),
        "objective": float(sol.objective),
        "psd_margin": float(sol.certificate.psd_margin),
        "residual": float(sol.certificate.residual),
        "is_global": bool(sol.certificate.is_global),
        "hard_case": bool(sol.hard_case),
        "escape_count": trace.escape_count if trace is not None else 0,
        "escape_cases": cases,
        "wall_ms": wall_ms,
    }


def _format_record_text(rec):
    lines = [
        f"problem   {rec['name'] or '(unnamed)'}  (n = {rec['n']})",
        f"method    {rec['method']}",
        f"objective {rec['objective']:.12g}",
        f"lambda    {rec['lambda']:.12g}",
        "solution  [" + ", ".join(f"{v:.12g}" for v in rec["solution"]) + "]",
        f"certificate  residual {rec['residual']:.3e}  psd_margin "
        f"{rec['psd_margin']:.3e}  global {rec['is_global']}",
        f"hard_case {rec['hard_case']}",
    ]
    if rec["method"] == "escapes":
        lines.append(
            f"escapes   {rec['escape_count']}  cases {' '.join(rec['escape_cases'])}"
        )
    lines.append(f"wall_ms   {rec['wall_ms']:.3f}")
    return "\n".join(lines) + "\n"


def _cmd_solve(args):
    if args.method != "escapes":
        for flag, value in (("--eps", args.eps), ("--eps2", args.eps2)):
            if value is not None:
                raise SchemaError(flag, "applies only to --method escapes")
    m, name = load_problem(args.problem)
    t0 = time.perf_counter()
    if args.method == "secular":
        sol = global_minimize(m)
        trace = None
    else:
        rng = np.random.default_rng(args.seed)
        s0 = rng.normal(size=m.n)
        sol, trace = solve_via_escapes(m, s0, eps_grad=args.eps, eps_curv=args.eps2)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    rec = _result_record(m, name, args.method, sol, trace, wall_ms)
    if args.format == "structured":
        _write_output(args, json.dumps(rec, indent=2) + "\n")
    else:
        _write_output(args, _format_record_text(rec))
    return 0


def _cmd_stationary(args):
    m, name = load_problem(args.problem)
    points = enumerate_stationary(m)
    bound = count_bound(m)
    # Multipliers within 1e-9 (1 + |lam|) of each other count as one, as in
    # the benchmark's check; count_bound separates negative eigenvalues at
    # SINGULAR_MODE_TOL (1e-12), so near-equal ones count twice there.
    distinct = []
    for p in points:
        if not any(abs(p.lam - q) <= 1e-9 * (1.0 + abs(q)) for q in distinct):
            distinct.append(p.lam)
    tol_grad, tol_psd = m.default_tol_grad(), m.default_tol_psd()
    rows = []
    for p in points:
        cert = model_mod._certificate(m, p, tol_grad, tol_psd)
        rows.append(
            {
                "lambda": float(p.lam),
                "norm": linalg.norm(p.s),
                "objective": float(p.objective),
                "is_global": bool(cert.is_global),
                "s": _json_vector(p.s),
            }
        )
    if args.format == "structured":
        payload = {
            "name": name,
            "n": m.n,
            "points": rows,
            "distinct_lambdas": len(distinct),
            "bound": bound,
        }
        _write_output(args, json.dumps(payload, indent=2) + "\n")
        return 0
    lines = [f"{'lambda':>14}  {'|s|':>12}  {'m(s)':>16}  global"]
    for r in rows:
        lines.append(
            f"{r['lambda']:>14.8g}  {r['norm']:>12.8g}  {r['objective']:>16.10g}  "
            f"{'yes' if r['is_global'] else 'no'}"
        )
    lines.append(
        f"{len(distinct)} distinct multiplier(s) among {len(rows)} point(s); "
        f"bound 2(k+1) = {bound}"
    )
    _write_output(args, "\n".join(lines) + "\n")
    return 0


def _cmd_escape(args):
    if args.eps is None and args.eps2 is not None:
        raise SchemaError("--eps2", "applies only with --eps (the approximate tests)")
    m, name = load_problem(args.problem)
    point = _parse_vector(args.point, m.n, "--point")
    t0 = time.perf_counter()
    if args.eps is None:
        sp = StationaryPoint.from_vector(m, point)
        out = escape_mod.escape_exact(m, sp)
        mode = "exact"
    else:
        eps2 = args.eps2 if args.eps2 is not None else m.default_tol_psd()
        out = escape_mod.escape_approx(
            m, point, escape_mod.ApproxTolerances(eps_grad=args.eps, eps_curv=eps2)
        )
        mode = "approx"
    wall_ms = (time.perf_counter() - t0) * 1000.0
    rec = {
        "tool": "cubicmin",
        "version": __version__,
        "name": name,
        "mode": mode,
        "case": out.case_tag,
        "s_hat": None if out.s_hat is None else _json_vector(out.s_hat),
        "decrease": float(out.decrease),
        "wall_ms": wall_ms,
    }
    if args.format == "structured":
        _write_output(args, json.dumps(rec, indent=2) + "\n")
        return 0
    lines = [f"case      {rec['case']}  ({mode} tests)"]
    if rec["s_hat"] is not None:
        lines.append("s_hat     [" + ", ".join(f"{v:.12g}" for v in rec["s_hat"]) + "]")
        lines.append(f"decrease  {rec['decrease']:.12g}")
    else:
        lines.append("the point is a certified global minimizer; no escape exists")
    _write_output(args, "\n".join(lines) + "\n")
    return 0


def _load_objective(spec_text):
    if os.path.exists(spec_text):
        m, name = load_problem(spec_text)
        return cubic_objective(m, name=name or os.path.basename(spec_text))
    try:
        return get_problem(spec_text)
    except KeyError as exc:
        raise SchemaError("objective", str(exc.args[0])) from None


def _cmd_minimize(args):
    f = _load_objective(args.objective)
    x0 = f.x0 if args.x0 is None else _parse_vector(args.x0, f.n, "--x0")
    opts = ArcOptions(
        tol_grad_inf=args.tol,
        max_iters=args.max_iters,
        cauchy_start=args.cauchy_start,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    report = arc_plus_minimize(f, x0, _VARIANTS[args.variant], opts)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    rec = {
        "tool": "cubicmin",
        "version": __version__,
        "name": f.name,
        "variant": report.variant,
        "converged": bool(report.converged),
        "iterations": report.iterations,
        "f_final": float(report.f_final),
        "grad_inf_norm": float(report.grad_inf_norm),
        "x_final": _json_vector(report.x_final),
        "wall_ms": wall_ms,
    }
    if args.format == "structured":
        _write_output(args, json.dumps(rec, indent=2) + "\n")
    else:
        lines = [
            f"objective {f.name}  (n = {f.n}, variant {report.variant})",
            f"converged {rec['converged']} after {rec['iterations']} iterations",
            f"f_final   {rec['f_final']:.12g}",
            f"grad_inf  {rec['grad_inf_norm']:.3e}",
            "x_final   [" + ", ".join(f"{v:.9g}" for v in rec["x_final"]) + "]",
            f"wall_ms   {wall_ms:.3f}",
        ]
        _write_output(args, "\n".join(lines) + "\n")
    return 0 if report.converged else 2


def _bench_cell(spec_text, variant, seed):
    t0 = time.perf_counter()
    # The failure row; a run that finishes overrides its result fields.
    row = {
        "name": os.path.basename(spec_text),
        "n": 0,
        "variant": variant,
        "seed": seed,
        "converged": False,
        "iterations": 0,
        "f_final": math.nan,
        "grad_inf_norm": math.nan,
        "error": "",
    }
    try:
        f = _load_objective(spec_text)
        report = arc_plus_minimize(f, f.x0, variant, ArcOptions(seed=seed))
        row.update(
            name=f.name,
            n=f.n,
            converged=report.converged,
            iterations=report.iterations,
            f_final=report.f_final,
            grad_inf_norm=report.grad_inf_norm,
        )
    except Exception as exc:
        row["error"] = type(exc).__name__
    row["wall_ms"] = (time.perf_counter() - t0) * 1000.0
    return row


def _suite_members(suite):
    if suite is None:
        return list(DEFAULT_SUITE)
    if os.path.isdir(suite):
        files = sorted(
            os.path.join(suite, f) for f in os.listdir(suite) if f.endswith(".json")
        )
        if not files:
            raise EmptyInput(f"no .json problem files under {suite!r}")
        return files
    names = [s.strip() for s in suite.split(",") if s.strip()]
    if not names:
        raise EmptyInput("empty suite specification")
    registered = set(available_problems())
    for name in names:
        if name not in registered and not os.path.exists(name):
            raise SchemaError(
                "suite", f"{name!r} is neither a registered problem nor a file"
            )
    return names


def _parse_seeds(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise SchemaError("--seeds", "empty seed list")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise SchemaError("--seeds", f"could not parse {text!r}") from None
    if min(values) < 0:
        raise SchemaError("--seeds", f"seeds must be non-negative, got {text!r}")
    if len(values) == 1 and "," not in text:
        return list(range(values[0])) if values[0] > 0 else [values[0]]
    return values


def _cmd_bench(args):
    members = _suite_members(args.suite)
    variants = []
    for v in args.variants.split(","):
        v = v.strip().lower()
        if not v:
            continue
        if v not in _VARIANTS:
            raise SchemaError("--variants", f"unknown variant {v!r}")
        variants.append(_VARIANTS[v])
    if not variants:
        raise SchemaError("--variants", "empty variant list")
    seeds = _parse_seeds(args.seeds)

    cells = [(m, v, s) for m in members for v in variants for s in seeds]
    jobs = args.jobs or os.cpu_count() or 1
    if jobs > 1 and len(cells) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_bench_cell, *zip(*cells)))
    else:
        rows = [_bench_cell(*cell) for cell in cells]
    rows.sort(key=lambda r: (r["name"], r["variant"], r["seed"]))

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_BENCH_HEADER, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        out = dict(row)
        out["converged"] = "true" if row["converged"] else "false"
        out["f_final"] = repr(float(row["f_final"]))
        out["grad_inf_norm"] = repr(float(row["grad_inf_norm"]))
        out["wall_ms"] = f"{row['wall_ms']:.3f}"
        writer.writerow(out)
    _write_output(args, buf.getvalue())
    return 0


def _cmd_profile(args):
    with open(args.csv_in, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [h for h in _BENCH_HEADER if h not in (reader.fieldnames or [])]
        if missing:
            raise SchemaError(missing[0], "missing bench CSV column")
        reports = []
        for row in reader:
            key = f"{row['name']}#{row['seed']}"
            converged = row["converged"].strip().lower() == "true"
            # a cell converged at its start point has 0 iterations; charge it one
            iters = max(int(row["iterations"]), 1) if converged else None
            reports.append((key, row["variant"], iters))
    table = performance_profile(reports)
    variants = sorted(table.curves)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tau"] + variants)
    for i, tau in enumerate(table.taus):
        writer.writerow([f"{tau:.6g}"] + [f"{table.curves[v][i]:.6g}" for v in variants])
    _write_output(args, buf.getvalue())
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "stationary": _cmd_stationary,
    "escape": _cmd_escape,
    "minimize": _cmd_minimize,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
}

# flags whose values are coordinate lists and may start with a minus sign
_VECTOR_FLAGS = ("--point", "--x0")


def _fuse_negative_vectors(argv):
    """Rewrite ``--point -1,2`` to ``--point=-1,2``.

    argparse treats any dash-led token as an option, so coordinate lists
    with a negative leading entry would otherwise be unpassable in the
    space-separated form.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in _VECTOR_FLAGS
            and nxt is not None
            and len(nxt) >= 2
            and nxt[0] == "-"
            and (nxt[1].isdigit() or nxt[1] == ".")
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_fuse_negative_vectors(list(argv)))
    try:
        return _COMMANDS[args.command](args)
    except (SchemaError, OSError, EmptyInput) as exc:
        print(f"cubicmin: error: {exc}", file=sys.stderr)
        return 1
    except CubicminError as exc:
        print(f"cubicmin: solver error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cubicmin: error: {exc}", file=sys.stderr)
        return 1
