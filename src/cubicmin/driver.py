"""Global subproblem solves by repeated escapes, and the outer optimizer.

Two strategies live here.  ``solve_via_escapes`` minimizes one cubic
model globally by alternating a local descent with a closed-form escape
from any non-global stationary point; the escape count is bounded, so
the loop is finite.  ``arc_plus_minimize`` wraps either that solver
(variant ARC_PLUS) or the plain local solve (variant ARC) inside an
adaptive cubic-regularization outer loop for general smooth objectives.
Their records, ``SubproblemTrace``, ``OuterReport``, ``ArcOptions`` and
``ProfileTable``, are NamedTuples: ``ArcOptions`` checks its fields in
its constructor and in ``_replace``, and a report built without a
history gets its own new list.
"""

import math
import numbers
from typing import NamedTuple

import numpy as np

from . import escape as escape_mod
from . import linalg
from . import model as model_mod
from .exceptions import (
    BoundExceeded,
    ConvergenceError,
    CubicminError,
    EmptyInput,
    ThresholdNotMet,
    ToleranceFloor,
)
from .linalg import SymmetricMatrix
from .local_solver import local_minimize
from .model import CubicModel
from .stationary import _global_solution, count_bound

__all__ = [
    "ARC",
    "ARC_PLUS",
    "ArcOptions",
    "OuterReport",
    "SubproblemTrace",
    "ProfileTable",
    "solve_via_escapes",
    "arc_plus_minimize",
    "cauchy_step",
    "performance_profile",
]

ARC = "ARC"
ARC_PLUS = "ARC_PLUS"

_MAX_TIGHTENINGS = 6

_SIGMA0 = 1.0
_ETA1 = 0.1
_ETA2 = 0.9
_SIGMA_MIN = 1e-8


class SubproblemTrace(NamedTuple):
    """History of one solve_via_escapes run.

    ``steps`` holds one (s_bar, case_tag, objective) triple per local
    solve that reached an escape decision; objectives are strictly
    decreasing along the list.  ``escape_count`` counts actual moves,
    excluding the final NONE_GLOBAL certificate.
    """

    steps: list
    escape_count: int


class _OuterReport(NamedTuple):
    x_final: np.ndarray
    f_final: float
    grad_inf_norm: float
    iterations: int
    sigma_history: list
    variant: str
    converged: bool
    f_history: list = []
    accepted_psd_margins: list = []


class OuterReport(_OuterReport):
    """Outcome of one outer-optimizer run.

    ``sigma_history`` records the regularization weight used at each
    iteration; ``f_history`` the objective after each accepted step.
    ``accepted_psd_margins`` has one entry per accepted step: the
    subproblem certificate margin for ARC_PLUS steps, None for steps
    without a certificate.  A report built without either history gets
    its own new empty list.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # The defaults are shared objects: swap each one taken for a new list.
        fresh = {name: [] for name, default in cls._field_defaults.items()
                 if getattr(self, name) is default}
        return self._replace(**fresh) if fresh else self


class _ArcOptions(NamedTuple):
    tol_grad_inf: float = 1e-5
    max_iters: int = 100000
    cauchy_start: bool = False
    seed: int = 0


class ArcOptions(_ArcOptions):
    """Outer-loop controls.

    The acceptance and sigma-update constants are fixed at standard
    adaptive cubic-regularization values: start at sigma0 = 1, accept
    when rho >= eta1 = 0.1, halve sigma (down to sigma_min = 1e-8) when
    rho >= eta2 = 0.9, double it on rejection.  ``cauchy_start`` seeds
    each subproblem from the Cauchy point instead of a random sphere
    point.  ``seed`` (non-negative) drives all subproblem starting points.
    ``max_iters`` and ``seed`` are Python or NumPy integers, not bools.
    The constructor, ``_replace`` and unpickling all check the fields.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.tol_grad_inf > 0.0:
            raise ValueError("tol_grad_inf must be positive")
        for name in ("max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, whose tuple.__new__ skips the checks.
        return cls(*iterable)


def solve_via_escapes(m, s0, eps_grad=None, eps_curv=None):
    """Globally minimize a cubic model by local solves plus escapes.

    Parameters
    ----------
    m : CubicModel
    s0 : array_like, shape (n,)
        Finite starting point for the first local solve, which copies
        and checks it.
    eps_grad : float, optional
        Residual tolerance for each local solve; defaults to the
        model's gradient gate.
    eps_curv : float, optional
        Curvature threshold for the approximate escape tests; by default
        ``model.escape_eps_curv`` of each point.

    Returns
    -------
    (GlobalSolution, SubproblemTrace)
        The solution's certificate is evaluated at the tolerances the
        final point actually met; its ``hard_case`` is always False.

    Each local solve's final point is evaluated once, by the solve: its
    ``LocalSolveReport.point`` goes to ``escape_approx`` as it stands,
    and the solution's ``s_star`` and objective are that record's.

    Raises
    ------
    ValueError
        A tolerance is not positive, or ``s0`` has the wrong length or a
        NaN or infinite entry.
    ConvergenceError
        A local solve stalls above its target, or m at its point or at a
        move is NaN or below double range.
    BoundExceeded
        More escapes fired than the stationary-count bound allows.
    ToleranceFloor
        Repeated threshold failures reached ``model.ESCAPE_EPS_FLOOR``.
    """
    if eps_grad is None:
        eps_grad = m.default_tol_grad()
    eps_grad = float(eps_grad)
    if not eps_grad > 0.0:
        raise ValueError("eps_grad must be positive")
    if eps_curv is not None and not float(eps_curv) > 0.0:
        raise ValueError("eps_curv must be positive")

    cap = None  # count_bound(m) + 2, taken at the first escape
    eps = eps_grad
    s = s0
    steps = []
    escapes = 0
    tightenings = 0
    while True:
        rep = local_minimize(m, s, eps)
        if not rep.converged:
            raise ConvergenceError(
                f"local solve stalled at residual {rep.residual:.3e} "
                f"(target {eps:.3e})"
            )
        point = rep.point
        model_mod._check_range(point.objective, point.lam)
        s_bar = rep.s
        ec = float(eps_curv) if eps_curv is not None else model_mod.escape_eps_curv(eps, s_bar)
        try:
            out = escape_mod.escape_approx(
                m, point, escape_mod.ApproxTolerances(eps_grad=eps, eps_curv=ec)
            )
        except ThresholdNotMet:
            if tightenings >= _MAX_TIGHTENINGS or eps / 10.0 < model_mod.ESCAPE_EPS_FLOOR:
                raise ToleranceFloor(
                    f"no escape threshold held down to eps_grad = {eps:.3e}"
                )
            tightenings += 1
            eps = eps / 10.0
            s = s_bar
            continue
        steps.append((s_bar, out.case_tag, out.point.objective))
        if out.case_tag == escape_mod.CASE_NONE_GLOBAL:
            sol = _global_solution(m, out.point, out.certificate, False)
            return sol, SubproblemTrace(steps=steps, escape_count=escapes)
        escapes += 1
        if cap is None:
            cap = count_bound(m) + 2
        if escapes > cap:
            raise BoundExceeded(
                f"{escapes} escapes exceed the stationary-count cap {cap}"
            )
        s = out.s_hat


def cauchy_step(m):
    """Exact minimizer of the cubic model along -grad m(0) = -c.

    Returns the step vector -t* c with the closed-form positive root t*.
    """
    g = m.c
    gnorm = m.norm_c
    if gnorm == 0.0:
        return np.zeros(m.n)
    # The root in bh = u'Qu with u = g/||g||, which stays in double range
    # for every finite g (the powers of ||g|| in the unscaled form do not).
    u = g / gnorm
    bh = float(u.dot(m.Q.entries.dot(u)))
    disc = math.sqrt(bh * bh + 4.0 * m.sigma * gnorm)
    den = 2.0 * m.sigma * gnorm
    if disc == math.inf or (bh <= 0.0 and den == 0.0):
        # disc overflows (4 sigma does from sigma = 2^1022 on), or 2 sigma
        # ||g|| underflows: the step's length t ||g|| is (-bh + root) /
        # (2 sigma), or 2 ||g|| / (bh + root) where bh > 0, with the root the
        # norm of (bh, 2 sqrt(sigma) sqrt(||g||)), which stay in range.  The
        # numerator is halved first, exactly where it is a normal double,
        # since 2 sigma overflows from sigma = 2^1023 on.
        root = linalg.norm(np.array([bh, 2.0 * math.sqrt(m.sigma) * math.sqrt(gnorm)]))
        length = (-bh + root) / 2.0 / m.sigma if bh <= 0.0 else 2.0 * gnorm / (bh + root)
        return -length * u
    if bh <= 0.0:
        t = (-bh + disc) / den
    else:
        t = 2.0 / (bh + disc)
    return -t * g


def _sphere_start(rng, n, sigma):
    v = rng.normal(size=n)
    nv = linalg.norm(v)
    if nv == 0.0:
        v = np.ones(n)
        nv = linalg.norm(v)
    return (min(1.0, 1.0 / sigma) / nv) * v


def _check_step_can_move(x, m):
    """Raise ConvergenceError when no step of ``m`` or a later model can move x.

    Every stationary point of m, and its Cauchy step, has ``||s|| <= R =
    (q + sqrt(q^2 + 4 sigma ||g||)) / (2 sigma)`` with ``q = max|mu|``
    (from ``c + Qs + sigma||s||s = 0``).  When R is below half the float
    spacing of every entry of x, ``x + s`` rounds back to x, so the step
    is rejected; sigma then doubles, which only shrinks R.  An x with a
    zero entry never trips this: the spacing at 0 is the least subnormal.
    """
    q = max(-m.eig.mu_1, float(m.eig.values[-1]))
    radius = (q + math.sqrt(q * q + 4.0 * m.sigma * m.norm_c)) / (2.0 * m.sigma)
    resolution = 0.5 * float(np.spacing(np.abs(x)).min())
    if radius < resolution:
        raise ConvergenceError(
            f"no model step can move x: steps are at most {radius:.3e} long, below half "
            f"the float spacing {resolution:.3e} of x (sigma = {m.sigma:.3e})"
        )


def arc_plus_minimize(f, x0, variant=ARC_PLUS, opts=None):
    """Adaptive cubic-regularization outer loop.

    Parameters
    ----------
    f : ObjectiveFunction
    x0 : array_like, shape (n,), optional
        Finite (else ValueError); defaults to ``f.x0``.
    variant : {"ARC", "ARC_PLUS"}
        ARC minimizes each subproblem locally from a seeded random
        start; ARC_PLUS solves it globally via escape moves.
    opts : ArcOptions, optional

    Returns
    -------
    OuterReport
        ``converged`` is true when the gradient sup-norm reached the
        outer tolerance within the iteration cap; otherwise the report
        carries the last iterate with ``converged = False``.

    Both variants safeguard the subproblem step against the Cauchy
    point, so every accepted step decreases the model at least that
    much.  Fixed options imply an identical report on replay.  Each
    iterate's Hessian is fetched and eigendecomposed once: the models
    built at one ``x``, rejected steps included, share its
    ``SymmetricMatrix``.

    Raises
    ------
    ConvergenceError
        ``f(x0)`` is NaN or ``-inf``, from which the ratio test accepts no
        step (rho is NaN or ``-inf`` for every trial); the model's value
        at its Cauchy point leaves double range, which takes a gradient
        norm past ~1.3e154; a rejection doubles sigma past double range;
        or a step is rejected where every model step is below half the
        float spacing of x, so that no later step could move it; ARC_PLUS
        also checks this when a subproblem solve fails, and otherwise
        re-raises that solve's error.  An ``f(x0) = +inf``
        is kept: rho is ``+inf`` at any finite trial value, so the first
        such step is accepted and the run goes on from a finite value.
    """
    if variant not in (ARC, ARC_PLUS):
        raise ValueError(f"unknown variant {variant!r}")
    if opts is None:
        opts = ArcOptions()
    if x0 is None:
        x0 = f.x0
    x = np.array(x0, dtype=float).reshape(-1)
    if x.shape[0] != f.n:
        raise ValueError(f"x0 has length {x.shape[0]}, expected {f.n}")
    if np.count_nonzero(np.isfinite(x)) < f.n:
        raise ValueError("x0 entries must be finite")
    rng = np.random.default_rng(opts.seed)

    sigma = _SIGMA0
    fx = f.f(x)
    if not fx > -math.inf:
        raise ConvergenceError(f"f(x0) = {fx!r}: the ratio test accepts no step from it")
    sigma_history = []
    f_history = [fx]
    margins = []
    iterations = 0
    converged = False
    g = f.grad(x)
    ginf = float(np.abs(g).max())
    hess_x = None  # the SymmetricMatrix of f.hess(x), built on first use

    while iterations < opts.max_iters:
        if ginf <= opts.tol_grad_inf:
            converged = True
            break
        iterations += 1
        sigma_history.append(sigma)
        if hess_x is None:
            hess_x = SymmetricMatrix(f.hess(x))
        m = CubicModel(g, hess_x, sigma)
        eps_inner = m.arc_target()
        s_c = cauchy_step(m)
        norm_sc = linalg.norm(s_c)
        if math.isinf(m.norm_c * norm_sc):
            # s_c = -t*g, so |c's_c| = ||g|| ||s_c||: m(s_c) is out of range.
            raise ConvergenceError(
                f"gradient norm {m.norm_c:.3e}: the model's linear term "
                "overflows at the Cauchy point"
            )
        s0 = s_c if opts.cauchy_start else _sphere_start(rng, f.n, sigma)

        margin = None
        if variant == ARC:
            rep = local_minimize(m, s0, eps_inner)
            s = rep.s
            mval = rep.point.objective
        else:
            try:
                sol, _ = solve_via_escapes(m, s0, eps_grad=eps_inner)
            except CubicminError:
                # Where no step can move x, that is the cause to name.
                _check_step_can_move(x, m)
                raise
            s = sol.s_star
            mval = sol.objective
            margin = sol.certificate.psd_margin
        m_c = model_mod._objective(m, s_c, norm_sc, m.Q.entries.dot(s_c))
        if m_c < mval:
            s, mval = s_c, m_c
            margin = None

        if mval < 0.0:
            f_new = f.f(x + s)
            rho = (fx - f_new) / (-mval)
            if rho >= _ETA1:
                x = x + s
                fx = f_new
                f_history.append(fx)
                margins.append(margin)
                g = f.grad(x)
                ginf = float(np.abs(g).max())
                hess_x = None
                if rho >= _ETA2:
                    sigma = max(sigma / 2.0, _SIGMA_MIN)
                continue
        _check_step_can_move(x, m)
        sigma = 2.0 * sigma
        if sigma == math.inf:
            raise ConvergenceError(f"sigma = {m.sigma:.3e} doubles past double range at "
                                   f"outer iteration {iterations}")

    return OuterReport(
        x_final=x,
        f_final=fx,
        grad_inf_norm=ginf,
        iterations=iterations,
        sigma_history=sigma_history,
        variant=variant,
        converged=converged,
        f_history=f_history,
        accepted_psd_margins=margins,
    )


class ProfileTable(NamedTuple):
    """Sampled performance-profile curves.

    ``taus`` is the ratio grid; ``curves`` maps each variant to its
    fraction-solved values aligned with ``taus``.
    """

    taus: list
    curves: dict


def performance_profile(reports):
    """Dolan-More profile over (problem, variant, iterations) triples.

    ``iterations`` may be None (or inf) to mark a failed run; failed
    runs get an infinite ratio.  Only problems with an entry for every
    variant participate.

    Raises
    ------
    EmptyInput
        No problem carries results for at least two variants.
    """
    table = {}
    variants = []
    for problem, variant, iters in reports:
        if variant not in variants:
            variants.append(variant)
        cost = np.inf if iters is None else float(iters)
        if not cost > 0.0:
            raise ValueError(f"nonpositive iteration count for {problem!r}")
        table.setdefault(problem, {})[variant] = cost
    problems = [p for p, row in table.items() if len(row) == len(variants)]
    if len(variants) < 2 or not problems:
        raise EmptyInput("need at least one problem with every variant present")

    ratios = {v: [] for v in variants}
    for p in problems:
        row = table[p]
        best = min(row.values())
        for v in variants:
            if np.isinf(row[v]):
                ratios[v].append(np.inf)
            else:
                ratios[v].append(row[v] / best)

    finite = [r for rs in ratios.values() for r in rs if np.isfinite(r)]
    tau_max = max(finite) if finite else 1.0
    n_steps = int(np.ceil((tau_max - 1.0) / 0.05 - 1e-12)) + 1
    taus = [1.0 + 0.05 * i for i in range(max(n_steps, 1))]
    if taus[-1] < tau_max - 1e-12:
        taus.append(tau_max)
    count = float(len(problems))
    curves = {
        v: [sum(1 for r in ratios[v] if r <= t + 1e-12) / count for t in taus]
        for v in variants
    }
    return ProfileTable(taus=taus, curves=curves)
