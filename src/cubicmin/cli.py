"""Command-line interface.

Commands: solve, stationary, escape, minimize, bench, profile.  Exit
codes: 0 success, 1 input or schema error, 2 solver error.  Output goes
to stdout or to --out; --format selects human text or JSON for the
report commands, and bench and profile write CSV and take no --format.
Each subcommand accepts only the flags it reads.  All output is plain
(no ANSI color), so NO_COLOR is honored by construction.
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
from .problem_io import load_problem
from .problems import DEFAULT_SUITE, available_problems, cubic_objective, get_problem
from .stationary import _distinct, count_bound, enumerate_stationary, global_minimize

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
    # Parents of the flags each subcommand reads: --out on all six,
    # --format on the four report commands, --seed on solve and minimize.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write output to this path")
    report = argparse.ArgumentParser(add_help=False, parents=[out])
    report.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="human text or JSON output",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument(
        "--seed",
        type=_int_at_least(0, "non-negative"),
        default=0,
        help="non-negative seed for any randomness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[seed, report], help="globally minimize one model")
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
        "stationary", parents=[report], help="enumerate all stationary points"
    )
    p.add_argument("problem", help="problem file (JSON)")

    p = sub.add_parser(
        "escape", parents=[report], help="one escape move from a stationary point"
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
        "minimize", parents=[seed, report], help="run the outer optimizer on an objective"
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

    # No abbreviations, so that --seed is not taken for --seeds.
    p = sub.add_parser("bench", parents=[out], allow_abbrev=False,
                       help="iteration benchmark over a problem suite")
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
        help="comma-separated non-negative seed list, or a count k meaning seeds "
        "0..k-1 (0 means the one seed 0)",
    )
    p.add_argument(
        "--jobs",
        type=_int_at_least(1, "positive"),
        default=None,
        help="worker processes, at most one per cell (default: every CPU)",
    )

    p = sub.add_parser("profile", parents=[out], help="performance profile from a bench CSV")
    p.add_argument("csv_in", help="CSV produced by `cubicmin bench`")

    return parser


def _write_output(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, record, render_text):
    # The one reader of --format: the record as JSON, or the lines that
    # render_text makes of it, so structured output never formats them.
    if args.format == "structured":
        _write_output(args, json.dumps(record, indent=2) + "\n")
    else:
        _write_output(args, "\n".join(render_text(record)) + "\n")


def _emit_csv(args, rows):
    # bench and profile write CSV; they take no --format.
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    _write_output(args, buf.getvalue())


def _report(name, wall_ms, fields):
    # The envelope of the solve, escape and minimize records; wall_ms comes
    # last in the record.
    return {"tool": "cubicmin", "version": __version__, "name": name, **fields,
            "wall_ms": wall_ms}


def _ms_since(t0):
    return (time.perf_counter() - t0) * 1000.0


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


def _text_vector(values, spec):
    return "[" + ", ".join(format(v, spec) for v in values) + "]"


def _cmd_solve(args):
    if args.method != "escapes":
        for flag, value in (("--eps", args.eps), ("--eps2", args.eps2)):
            if value is not None:
                raise SchemaError(flag, "applies only to --method escapes")
    m, name = load_problem(args.problem)
    t0 = time.perf_counter()
    if args.method == "secular":
        sol, escape_count, cases = global_minimize(m), 0, []
    else:
        s0 = np.random.default_rng(args.seed).normal(size=m.n)
        sol, trace = solve_via_escapes(m, s0, eps_grad=args.eps, eps_curv=args.eps2)
        escape_count, cases = trace.escape_count, [step[1] for step in trace.steps]
    cert = sol.certificate
    rec = _report(name, _ms_since(t0), {
        "n": m.n,
        "method": args.method,
        "solution": _json_vector(sol.s_star),
        "lambda": float(sol.lambda_star),
        "objective": float(sol.objective),
        "psd_margin": float(cert.psd_margin),
        "residual": float(cert.residual),
        "is_global": bool(cert.is_global),
        "hard_case": bool(sol.hard_case),
        "escape_count": escape_count,
        "escape_cases": cases,
    })

    def text(rec):
        lines = [
            f"problem   {rec['name'] or '(unnamed)'}  (n = {rec['n']})",
            f"method    {rec['method']}",
            f"objective {rec['objective']:.12g}",
            f"lambda    {rec['lambda']:.12g}",
            "solution  " + _text_vector(rec["solution"], ".12g"),
            f"certificate  residual {rec['residual']:.3e}  psd_margin "
            f"{rec['psd_margin']:.3e}  global {rec['is_global']}",
            f"hard_case {rec['hard_case']}",
        ]
        if rec["method"] == "escapes":
            lines.append(
                f"escapes   {rec['escape_count']}  cases {' '.join(rec['escape_cases'])}"
            )
        return lines + [f"wall_ms   {rec['wall_ms']:.3f}"]

    _emit(args, rec, text)
    return 0


def _cmd_stationary(args):
    m, name = load_problem(args.problem)
    points = enumerate_stationary(m)
    bound = count_bound(m)
    tol_grad, tol_psd = m.default_tol_grad(), m.default_tol_psd()
    rec = {
        "name": name,
        "n": m.n,
        "points": [
            {
                "lambda": float(p.lam),
                "norm": linalg.norm(p.s),
                "objective": float(p.objective),
                "is_global": bool(model_mod._certificate(m, p, tol_grad, tol_psd).is_global),
                "s": _json_vector(p.s),
            }
            for p in points
        ],
        # The points ascend in lam; counted as count_bound counts.
        "distinct_lambdas": len(_distinct([p.lam for p in points])),
        "bound": bound,
    }

    def text(rec):
        rows = rec["points"]
        lines = [f"{'lambda':>14}  {'|s|':>12}  {'m(s)':>16}  global"]
        for r in rows:
            lines.append(
                f"{r['lambda']:>14.8g}  {r['norm']:>12.8g}  {r['objective']:>16.10g}  "
                f"{'yes' if r['is_global'] else 'no'}"
            )
        lines.append(
            f"{rec['distinct_lambdas']} distinct multiplier(s) among {len(rows)} point(s); "
            f"bound 2(k+1) = {rec['bound']}"
        )
        return lines

    _emit(args, rec, text)
    return 0


def _cmd_escape(args):
    if args.eps is None and args.eps2 is not None:
        raise SchemaError("--eps2", "applies only with --eps (the approximate tests)")
    m, name = load_problem(args.problem)
    point = _parse_vector(args.point, m.n, "--point")
    t0 = time.perf_counter()
    if args.eps is None:
        out = escape_mod.escape_exact(m, point)
        mode = "exact"
    else:
        eps2 = args.eps2 if args.eps2 is not None else m.default_tol_psd()
        out = escape_mod.escape_approx(
            m, point, escape_mod.ApproxTolerances(eps_grad=args.eps, eps_curv=eps2)
        )
        mode = "approx"
    rec = _report(name, _ms_since(t0), {
        "mode": mode,
        "case": out.case_tag,
        "s_hat": None if out.s_hat is None else _json_vector(out.s_hat),
        "decrease": float(out.decrease),
    })

    def text(rec):
        lines = [f"case      {rec['case']}  ({mode} tests)"]
        if rec["s_hat"] is None:
            return lines + ["the point is a certified global minimizer; no escape exists"]
        return lines + [
            "s_hat     " + _text_vector(rec["s_hat"], ".12g"),
            f"decrease  {rec['decrease']:.12g}",
        ]

    _emit(args, rec, text)
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
    rec = _report(f.name, _ms_since(t0), {
        "variant": report.variant,
        "converged": bool(report.converged),
        "iterations": report.iterations,
        "f_final": float(report.f_final),
        "grad_inf_norm": float(report.grad_inf_norm),
        "x_final": _json_vector(report.x_final),
    })

    def text(rec):
        return [
            f"objective {f.name}  (n = {f.n}, variant {report.variant})",
            f"converged {rec['converged']} after {rec['iterations']} iterations",
            f"f_final   {rec['f_final']:.12g}",
            f"grad_inf  {rec['grad_inf_norm']:.3e}",
            "x_final   " + _text_vector(rec["x_final"], ".9g"),
            f"wall_ms   {rec['wall_ms']:.3f}",
        ]

    _emit(args, rec, text)
    return 0 if report.converged else 2


def _bench_cell(spec_text, variant, seed):
    # One CSV row, in _BENCH_HEADER order.  A cell that raises gets the
    # failure row: not converged, 0 iterations, NaN results, the error class;
    # its name and n are the file's basename and 0 only if the load failed.
    t0 = time.perf_counter()
    name, n, error = os.path.basename(spec_text), 0, ""
    try:
        f = _load_objective(spec_text)
        name, n = f.name, f.n
        report = arc_plus_minimize(f, f.x0, variant, ArcOptions(seed=seed))
        converged, iterations = report.converged, report.iterations
        f_final, grad_inf_norm = report.f_final, report.grad_inf_norm
    except Exception as exc:
        error = type(exc).__name__
        converged, iterations, f_final, grad_inf_norm = False, 0, math.nan, math.nan
    wall_ms = _ms_since(t0)
    return [
        name, n, variant, seed, "true" if converged else "false", iterations,
        repr(float(f_final)), repr(float(grad_inf_norm)), f"{wall_ms:.3f}", error,
    ]


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
    variants = [v.strip().lower() for v in args.variants.split(",") if v.strip()]
    for v in variants:
        if v not in _VARIANTS:
            raise SchemaError("--variants", f"unknown variant {v!r}")
    variants = [_VARIANTS[v] for v in variants]
    if not variants:
        raise SchemaError("--variants", "empty variant list")
    seeds = _parse_seeds(args.seeds)

    cells = [(m, v, s) for m in members for v in variants for s in seeds]
    # A fork-started pool forks all its workers at once: never more than cells.
    jobs = min(args.jobs or os.cpu_count() or 1, len(cells))
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_bench_cell, *zip(*cells)))
    else:
        rows = [_bench_cell(*cell) for cell in cells]
    rows.sort(key=lambda r: (r[0], r[2], r[3]))  # name, variant, seed
    _emit_csv(args, [_BENCH_HEADER] + rows)
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
    rows = [[f"{tau:.6g}"] + [f"{table.curves[v][i]:.6g}" for v in variants]
            for i, tau in enumerate(table.taus)]
    _emit_csv(args, [["tau"] + variants] + rows)
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
    for tok in argv:
        if (
            out
            and out[-1] in _VECTOR_FLAGS
            and len(tok) >= 2
            and tok[0] == "-"
            and (tok[1].isdigit() or tok[1] == ".")
        ):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_fuse_negative_vectors(argv))
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
