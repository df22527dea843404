"""The three benchmark workloads: inputs, one timed pass, and output checks.

Every workload is a fixed list of items built from the command-line seed;
the program sees only those generated inputs.  A pass runs every item
once, as a closed loop (the next item starts when the previous returns),
and records each item's time and outputs.  Items that raise are
recorded with the exception class; nothing is dropped or re-drawn.

``arc_suite``
    ``arc_plus_minimize`` on the registered suite x {ARC, ARC_PLUS} with
    the fixed subproblem seed 0.  The paper's outer loop; its time goes
    to ``linalg.sym_eigen`` called from the local solver's Newton step.
    The command-line seed only sets the order of the cells, so the work
    (and every count) is the same for every seed.
``models_small``
    800 random cubic models, 32 for each pair of n in 2..6 and class
    (generic indefinite, exact hard case, near-hard, badly scaled Q, tiny
    sigma), each run through ``global_minimize``, ``enumerate_stationary``
    and ``escape_exact`` from every non-global stationary point.  Secular
    root finding dominates; the last three classes are the known
    ``CertificateFailure`` cases, so the failure share is not zero.
``models_large``
    Generic indefinite models with n from 32 to 128, written as problem
    files during set-up and solved in-process through
    ``cubicmin.cli.main`` (``solve`` and ``stationary``).  One fresh
    eigendecomposition per call dominates; covers ``problem_io`` and
    ``cli``.
"""

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

import cubicmin as cm
from cubicmin import cli as cm_cli

ARC_PROBLEMS = ("sphere2", "rosenbrock2", "rosenbrock10", "rosen_coupled6", "quartic_nc4")
ARC_VARIANTS = ("ARC", "ARC_PLUS")
ARC_SUBPROBLEM_SEEDS = (0,)

SMALL_CLASSES = ("generic", "hard", "near_hard", "scaled_Q", "tiny_sigma")
# The ROADMAP's known CertificateFailure classes.  Their exceptions and
# failed checks are counted failures; everywhere else an exception or a
# failed check makes the run incorrect.
STRESS_CLASSES = ("near_hard", "scaled_Q", "tiny_sigma")
SMALL_DIMS = (2, 3, 4, 5, 6)
SMALL_MODELS = 800
SMALL_WARMUP = 25

LARGE_DIMS = (32, 48, 64, 96, 128)
LARGE_WARMUP_DIM = 8


class Item:
    """One unit of work in a pass: its time (clock seconds), outputs or exception."""

    __slots__ = ("idx", "key", "cls", "secs", "out", "error", "models", "sig")

    def __init__(self, idx, key, cls):
        self.idx = idx
        self.key = key
        self.cls = cls
        self.secs = 0.0
        self.out = None
        self.error = None
        self.models = 1
        self.sig = None


class Pass:
    """Items run back to back, in order; a re-run pass may hold a subset."""

    def __init__(self, items, secs):
        self.items = items
        self.secs = secs

    @property
    def models(self):
        return sum(it.models for it in self.items)


# ---------------------------------------------------------------- arc_suite


def _arc_setup(seed, work_dir):
    objectives = {name: cm.get_problem(name) for name in ARC_PROBLEMS}
    cells = [(p, v, s) for p in ARC_PROBLEMS for v in ARC_VARIANTS for s in ARC_SUBPROBLEM_SEEDS]
    order = np.random.default_rng(seed).permutation(len(cells))
    cells = [cells[i] for i in order]
    f = cm.get_problem("sphere2")
    for variant in ARC_VARIANTS:
        cm.arc_plus_minimize(f, f.x0, variant, cm.ArcOptions(seed=0))
    return {"objectives": objectives, "cells": cells}


def _arc_item(state, i, clock):
    name, variant, sub_seed = state["cells"][i]
    it = Item(i, f"{name}/{variant}/{sub_seed}", name)
    f = state["objectives"][name]
    t0 = clock()
    try:
        it.out = cm.arc_plus_minimize(f, f.x0, variant, cm.ArcOptions(seed=sub_seed))
    except Exception as exc:  # every failure is counted, by class
        it.error = type(exc).__name__
    it.secs = clock() - t0
    if it.out is not None:
        it.models = max(it.out.iterations, 1)
    return it


def _arc_check(state, item):
    rep = item.out
    f = state["objectives"][item.cls]
    tol = cm.ArcOptions().tol_grad_inf
    if not rep.converged:
        return "not_converged"
    ginf = float(np.max(np.abs(f.grad(rep.x_final))))
    if not ginf <= tol:
        return "gradient_above_tolerance"
    if f.f(rep.x_final) != rep.f_final:
        return "f_final_mismatch"
    hist = rep.f_history
    if any(b > a for a, b in zip(hist, hist[1:])) or not rep.f_final <= f.f(f.x0):
        return "objective_increased"
    if any(mg is not None and mg < -1e-6 for mg in rep.accepted_psd_margins):
        return "psd_margin_below_cap"
    return None


def _arc_signature(item):
    return (item.out.iterations, item.out.f_final)


# ------------------------------------------------------------- models_small


def _small_model(rng, cls, n):
    """One random model (c, Q, sigma) of the given class and dimension."""
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mu = np.sort(rng.uniform(-5.0, 5.0, size=n))
    # Indefinite, with a simple bottom eigenvalue so the hard case is sharp.
    mu[0] = min(mu[0], -abs(mu[0]) - 0.1, mu[1] - 0.5)
    beta = rng.normal(size=n)
    sigma = float(10.0 ** rng.uniform(-1.0, 1.0))
    if cls in ("hard", "near_hard"):
        beta[0] = 0.0 if cls == "hard" else (1e-9, 1e-10)[int(rng.integers(2))]
        # Small enough sigma that ||s(-mu_1)|| < -mu_1/sigma: the hard case binds.
        free = float(np.linalg.norm(beta[1:] / (mu[1:] - mu[0])))
        sigma = 0.5 * -mu[0] / max(free, 1e-12)
    elif cls == "scaled_Q":
        mu = mu * 10.0 ** rng.uniform(3.0, 6.0)
    elif cls == "tiny_sigma":
        sigma = float(10.0 ** rng.uniform(-8.0, -4.0))
    Q = V @ np.diag(mu) @ V.T
    return V @ beta, (Q + Q.T) / 2.0, sigma


def _small_inputs(seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(SMALL_MODELS):
        # Every (class, n) pair gets the same share, so the seed changes
        # the models but not the mix that sets the cost of a pass.
        cls = SMALL_CLASSES[i % len(SMALL_CLASSES)]
        n = SMALL_DIMS[(i // len(SMALL_CLASSES)) % len(SMALL_DIMS)]
        out.append((cls,) + _small_model(rng, cls, n))
    return out


def _small_solve(c, Q, sigma):
    """Construct, solve globally, enumerate, escape: the timed operation."""
    out = {"global": None, "points": None, "escapes": [], "errors": []}
    m = cm.CubicModel(c, Q, sigma)
    out["model"] = m
    try:
        out["global"] = cm.global_minimize(m)
    except cm.CubicminError as exc:
        out["errors"].append(type(exc).__name__)
    try:
        out["points"] = cm.enumerate_stationary(m)
    except cm.CubicminError as exc:
        out["errors"].append(type(exc).__name__)
        return out
    for p in out["points"]:
        if cm.is_global(m, p.s).is_global:
            continue
        try:
            out["escapes"].append(cm.escape_exact(m, p))
        except cm.CubicminError as exc:
            out["errors"].append(type(exc).__name__)
    return out


def _small_setup(seed, work_dir):
    inputs = _small_inputs(seed)
    for _, c, Q, sigma in inputs[:SMALL_WARMUP]:
        _small_solve(c, Q, sigma)
    return {"inputs": inputs}


def _small_item(state, i, clock):
    cls, c, Q, sigma = state["inputs"][i]
    it = Item(i, i, cls)
    t0 = clock()
    try:
        it.out = _small_solve(c, Q, sigma)
    except Exception as exc:
        it.error = type(exc).__name__
    it.secs = clock() - t0
    if it.out is not None and it.out["errors"]:
        it.error = it.out["errors"][0]
    return it


def _certificate_problem(c, Q, sigma, s):
    """Recheck a global certificate with an independent LAPACK eigvalsh."""
    s = np.asarray(s, dtype=float)
    norm_s = float(np.linalg.norm(s))
    residual = float(np.linalg.norm(c + Q @ s + sigma * norm_s * s))
    margin = float(np.linalg.eigvalsh(Q)[0]) + sigma * norm_s
    if residual > 1e-8 * (1.0 + float(np.linalg.norm(c))):
        return "certificate_residual"
    if margin < -1e-8 * (1.0 + float(np.max(np.abs(Q)))):
        return "certificate_psd_margin"
    return None


def _objective_slack(value):
    return 1e-9 * (1.0 + abs(value))


def _small_check(state, item):
    _, c, Q, sigma = state["inputs"][item.key]
    out = item.out
    m = out["model"]
    sol = out["global"]
    if sol is not None:
        bad = _certificate_problem(c, m.Q.entries, sigma, sol.s_star)
        if bad:
            return bad
    if out["points"] is not None:
        lams = []
        for p in out["points"]:
            if not any(abs(p.lam - q) <= 1e-9 * (1.0 + abs(q)) for q in lams):
                lams.append(p.lam)
        if len(lams) > cm.count_bound(m):
            return "count_bound_exceeded"
        if sol is not None and any(
            sol.objective > p.objective + _objective_slack(p.objective) for p in out["points"]
        ):
            return "global_above_stationary"
    for esc in out["escapes"]:
        if esc.case_tag == "NONE_GLOBAL" or not esc.decrease > 0.0:
            return "escape_without_decrease"
    return None


def _small_signature(item):
    out = item.out
    g = out["global"]
    pts = out["points"] or []
    return (None if g is None else g.objective, tuple(p.lam for p in pts),
            tuple(e.decrease for e in out["escapes"]), tuple(out["errors"]))


# ------------------------------------------------------------- models_large


def _large_model(rng, n):
    A = rng.normal(size=(n, n))
    Q = (A + A.T) / math.sqrt(2.0 * n)
    c = rng.normal(size=n)
    sigma = float(10.0 ** rng.uniform(-1.0, 1.0))
    return cm.CubicModel(c, Q, sigma)


def _large_setup(seed, work_dir):
    rng = np.random.default_rng(seed)
    os.makedirs(work_dir, exist_ok=True)
    files = []
    for n in LARGE_DIMS:
        m = _large_model(rng, n)
        path = os.path.join(work_dir, f"model_n{n}.json")
        cm.save_problem(path, m, name=f"large_n{n}")
        files.append((n, path))
    warm = os.path.join(work_dir, "warmup.json")
    cm.save_problem(warm, _large_model(rng, LARGE_WARMUP_DIM), name="warmup")
    _cli_pair(warm)
    return {"files": files}


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cm_cli.main(argv)
    return rc, buf.getvalue()


def _cli_pair(path):
    solve = _cli(["solve", path, "--format", "structured"])
    stationary = _cli(["stationary", path, "--format", "structured"])
    return solve, stationary


def _large_item(state, i, clock):
    n, path = state["files"][i]
    it = Item(i, path, f"n{n}")
    t0 = clock()
    try:
        it.out = _cli_pair(path)
    except Exception as exc:
        it.error = type(exc).__name__
    it.secs = clock() - t0
    if it.out is not None:
        codes = [rc for rc, _ in it.out if rc != 0]
        if codes:
            it.error = f"exit_code_{codes[0]}"
    return it


def _large_check(state, item):
    (_, solve_text), (_, stat_text) = item.out
    try:
        rec = json.loads(solve_text)
        stat = json.loads(stat_text)
    except json.JSONDecodeError:
        return "unparsable_json"
    m, _ = cm.load_problem(item.key)
    # Library reference on the same file, outside the timed region.
    sol = cm.global_minimize(m)
    points = cm.enumerate_stationary(m)
    if not rec["is_global"]:
        return "cli_not_global"
    bad = _certificate_problem(m.c, m.Q.entries, m.sigma, rec["solution"])
    if bad:
        return bad
    if (rec["solution"] != [float(v) for v in sol.s_star] or rec["objective"] != sol.objective
            or rec["lambda"] != sol.lambda_star):
        return "cli_differs_from_library"
    rows = stat["points"]
    if [r["lambda"] for r in rows] != [p.lam for p in points] or stat["bound"] != cm.count_bound(m):
        return "cli_stationary_differs_from_library"
    if stat["distinct_lambdas"] > stat["bound"]:
        return "count_bound_exceeded"
    if any(rec["objective"] > r["objective"] + _objective_slack(r["objective"]) for r in rows):
        return "global_above_stationary"
    return None


def _large_signature(item):
    rec = json.loads(item.out[0][1])
    stat = json.loads(item.out[1][1])
    return (rec["objective"], tuple(rec["solution"]), tuple(r["lambda"] for r in stat["points"]))


# ---------------------------------------------------------------- registry


class Workload:
    """Set-up, item runner, output check and the signature re-runs must match."""

    def __init__(self, setup, items_key, run_item, check, signature):
        self.setup = setup
        self.items_key = items_key
        self.run_item = run_item
        self.check = check
        self.signature = signature

    def size(self, state):
        return len(state[self.items_key])

    def _rerun_item(self, state, i, clock):
        # Later passes keep only what the determinism check compares, so
        # memory does not grow with the number of passes.
        it = self.run_item(state, i, clock)
        if it.error is None:
            it.sig = self.signature(it)
        it.out = None
        return it

    def run_pass(self, state, clock, first=True):
        """Run every item once; times are read from ``clock``."""
        t0 = clock()
        run = self.run_item if first else self._rerun_item
        items = [run(state, i, clock) for i in range(self.size(state))]
        return Pass(items, clock() - t0)

    def rerun_untraced(self, state, clock, traced, seconds):
        """Re-run a traced pass's items within ``seconds`` of clock time.

        Items are re-run shortest first, and only while their traced time
        still fits, so the pairs give traced-minus-untraced time without a
        second full pass.  The deadline and the item times are both read
        from ``clock``.
        """
        t0 = clock()
        deadline = t0 + seconds
        items = [self._rerun_item(state, it.idx, clock)
                 for it in sorted(traced.items, key=lambda it: it.secs)
                 if clock() + it.secs <= deadline]
        return Pass(items, clock() - t0)

WORKLOADS = {
    "arc_suite": Workload(
        _arc_setup, "cells", _arc_item, _arc_check, _arc_signature),
    "models_small": Workload(
        _small_setup, "inputs", _small_item, _small_check, _small_signature),
    "models_large": Workload(
        _large_setup, "files", _large_item, _large_check, _large_signature),
}


def check_passes(workload, state, passes):
    """Failure reason per item of the first pass (None when it passed).

    Items that raised fail with the exception class.  Returned outputs are
    checked once; every item of a later pass must reproduce the first
    pass exactly.  Returns (reasons, wrong): ``wrong`` counts the items
    outside STRESS_CLASSES that raised or failed a check, plus any
    nondeterminism.
    """
    first = passes[0].items
    reasons = []
    wrong = 0
    for item in first:
        reason = item.error
        if reason is None:
            reason = workload.check(state, item)
        wrong += reason is not None and item.cls not in STRESS_CLASSES
        reasons.append(reason)
    for p in passes[1:]:
        for other in p.items:
            item = first[other.idx]
            if other.error != item.error or (
                    item.error is None and other.sig != workload.signature(item)):
                if reasons[item.idx] != "nondeterministic":
                    reasons[item.idx] = "nondeterministic"
                    wrong += 1
    return reasons, wrong


def cleanup(work_dir):
    shutil.rmtree(work_dir, ignore_errors=True)
