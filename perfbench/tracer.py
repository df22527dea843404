"""Per-layer tracing of cubicmin from outside the package.

The tracer wraps the public functions of each module and rebinds every
module namespace that holds them (``cubicmin.global_minimize``,
``cubicmin.cli.global_minimize``, ``cubicmin.driver.local_minimize``, ...),
so calls made inside the package are seen too.  Nothing under ``src/`` is
edited.  Each call records a span (name, start, end, parent span) in
compact in-memory arrays; spans are written out only when the run ends.

A span's self time is its duration minus the time its descendants spend in
*other* layers, so ``sym_eigen`` keeps the Jacobi sweep it calls (same
layer) but ``local_minimize`` loses the eigendecompositions it triggers.
"""

import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (layer, module, attribute).  The per-layer metrics depend on each of
# these: a traced run fails when one is missing, so a renamed or removed
# function never reads as a per-layer count of 0.
WRAPPED_FUNCTIONS = (
    ("linalg", "cubicmin.linalg", "sym_eigen"),
    ("stationary", "cubicmin.stationary", "g_eval"),
    ("stationary", "cubicmin.stationary", "global_minimize"),
    ("stationary", "cubicmin.stationary", "enumerate_stationary"),
    ("local_solver", "cubicmin.local_solver", "local_minimize"),
    ("escape", "cubicmin.escape", "escape_exact"),
    ("escape", "cubicmin.escape", "escape_approx"),
    ("driver", "cubicmin.driver", "arc_plus_minimize"),
    ("driver", "cubicmin.driver", "solve_via_escapes"),
    ("problem_io", "cubicmin.problem_io", "load_problem"),
    ("cli", "cubicmin.cli", "main"),
)

# Wrapped only when present: the pure-Python Jacobi kernel may be replaced
# by another eigensolver, and then its rows read 0.
OPTIONAL_FUNCTIONS = (
    ("linalg", "cubicmin._kernels", "cyclic_jacobi"),
)

# The user's objective callbacks, wrapped on the class.
CALLBACK_CLASS = ("cubicmin.problems", "ObjectiveFunction")
CALLBACK_METHODS = ("f", "grad", "hess")
CALLBACK_SPAN = "problems.callbacks"

ESCAPE_TAGS = ("A", "B_I", "B_II", "B_III", "NONE_GLOBAL")


class MissingFunction(RuntimeError):
    """A function the per-layer metrics depend on is not in cubicmin."""


def _lookup(mod_name, attr):
    try:
        return getattr(importlib.import_module(mod_name), attr)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Span recorder plus the counters read off wrapped calls' results."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self._layer_of = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = Counter()
        self.problems = []  # (span name, message) for failed result checks
        self._saved = []
        self.t0 = None

    # -- installation -------------------------------------------------

    def install(self):
        """Wrap every traced function in every cubicmin namespace.

        Raises MissingFunction, before anything is wrapped, when a
        function of WRAPPED_FUNCTIONS or the callback class is missing.
        """
        targets = []
        for layer, mod_name, attr in WRAPPED_FUNCTIONS + OPTIONAL_FUNCTIONS:
            original = _lookup(mod_name, attr)
            if original is not None:
                targets.append((f"{layer}.{attr}", original))
            elif (layer, mod_name, attr) not in OPTIONAL_FUNCTIONS:
                raise MissingFunction(f"cannot trace {mod_name}.{attr}: it is missing")
        cls = _lookup(*CALLBACK_CLASS)
        missing = [m for m in CALLBACK_METHODS if m not in getattr(cls, "__dict__", {})]
        if missing:
            raise MissingFunction(
                f"cannot trace {'.'.join(CALLBACK_CLASS)}.{missing[0]}: it is missing")
        self.t0 = self.clock()
        modules = [m for k, m in list(sys.modules.items())
                   if k == "cubicmin" or k.startswith("cubicmin.")]
        for span, original in targets:
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for meth in CALLBACK_METHODS:
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._wrap(CALLBACK_SPAN, original))

    def uninstall(self):
        """Restore every binding that install() replaced."""
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self._layer_of.append(name.split(".", 1)[0])
        return nid

    def _wrap(self, name, fn):
        nid = self._intern(name)
        observe = _OBSERVERS.get(name)
        clock = self.clock
        stack = self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if observe is not None:
                    observe(self, None, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(self, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- aggregation --------------------------------------------------

    def self_times(self):
        """Per span: duration minus time spent below it in other layers."""
        n = len(self.start)
        foreign = [0.0] * n
        self_t = [0.0] * n
        layer = [self._layer_of[i] for i in self.name_id]
        # Descendants always have larger indices than their ancestors.
        for i in range(n - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            self_t[i] = dur - foreign[i]
            p = self.parent[i]
            if p >= 0:
                foreign[p] += dur if layer[i] != layer[p] else foreign[i]
        return self_t, layer

    def summary(self):
        """Per span name: calls, inclusive and self seconds; per layer: self."""
        self_t, layer = self.self_times()
        by_name = {}
        by_layer = Counter()
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            row = by_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.end[i] - self.start[i]
            row[2] += self_t[i]
            p = self.parent[i]
            if p < 0 or layer[p] != layer[i]:
                by_layer[layer[i]] += self_t[i]
        return by_name, by_layer

    def write(self, path):
        """Write the spans as gzip-compressed columnar JSON."""
        t0 = self.t0 or 0.0
        payload = {
            "names": self.names,
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start_s": [round(t - t0, 9) for t in self.start],
            "end_s": [round(t - t0, 9) for t in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- counters read from results --------------------------------------


def _obs_global(tr, result, exc):
    if exc is not None and type(exc).__name__ == "CertificateFailure":
        tr.counts["stationary.certificate_failures"] += 1


def _obs_local(tr, result, exc):
    if exc is not None:
        return
    tr.counts["local_solver.local_minimize.iters"] += result.iterations
    key = "local_solver.local_minimize.iters_max"
    tr.counts[key] = max(tr.counts[key], result.iterations)
    if not result.converged:
        tr.counts["local_solver.local_minimize.unconverged"] += 1


def _obs_escape(tr, result, exc):
    if exc is not None:
        if type(exc).__name__ == "ThresholdNotMet":
            tr.counts["escape.threshold_not_met"] += 1
        return
    tr.counts[f"escape.case.{result.case_tag}"] += 1
    if result.case_tag == "NONE_GLOBAL":
        return
    if result.decrease > 0.0:
        tr.counts["escape.useful"] += 1
    elif tr._stack:
        # Escapes the benchmark calls directly are checked with their item;
        # this catches the ones made inside the solver (ARC_PLUS).
        tr.problems.append(("escape", f"{result.case_tag} move with decrease {result.decrease!r}"))


def _obs_escapes_loop(tr, result, exc):
    if exc is None:
        tr.counts["driver.escapes"] += result[1].escape_count


def _obs_arc(tr, result, exc):
    if exc is None:
        accepted = len(result.f_history) - 1
        tr.counts["driver.outer_iters"] += result.iterations
        tr.counts["driver.steps_accepted"] += accepted
        tr.counts["driver.steps_rejected"] += result.iterations - accepted


_OBSERVERS = {
    "stationary.global_minimize": _obs_global,
    "local_solver.local_minimize": _obs_local,
    "escape.escape_exact": _obs_escape,
    "escape.escape_approx": _obs_escape,
    "driver.solve_via_escapes": _obs_escapes_loop,
    "driver.arc_plus_minimize": _obs_arc,
}


def per_layer_metrics(tracer, models, traced_wall, paired_traced, paired_untraced, paired):
    """The per-layer metric rows, named as in BENCHMARK.json.

    ``models`` is the number of cubic models the traced pass solved and
    ``traced_wall`` its wall time; ``paired_traced`` and ``paired_untraced``
    are the traced and untraced seconds of the ``paired`` items run both ways.
    """
    by_name, by_layer = tracer.summary()
    c = tracer.counts

    def calls(name):
        return by_name.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return by_name.get(name, (0, 0.0, 0.0))[2]

    eig_calls = calls("linalg.sym_eigen")
    escape_calls = calls("escape.escape_exact") + calls("escape.escape_approx")
    attempts = escape_calls - c["escape.case.NONE_GLOBAL"]
    outer_iters = c["driver.outer_iters"]
    arc_wall = by_name.get("driver.arc_plus_minimize", (0, 0.0, 0.0))[1]
    rows = {
        "linalg.sym_eigen.calls": (eig_calls, "count"),
        "linalg.sym_eigen.self_s": (self_s("linalg.sym_eigen"), "s"),
        "linalg.sym_eigen.ms_per_call": (
            1000.0 * self_s("linalg.sym_eigen") / eig_calls if eig_calls else 0.0, "ms"),
        "linalg.cyclic_jacobi.calls": (calls("linalg.cyclic_jacobi"), "count"),
        "linalg.cyclic_jacobi.self_s": (self_s("linalg.cyclic_jacobi"), "s"),
        "stationary.g_eval.calls": (calls("stationary.g_eval"), "count"),
        "stationary.g_eval.per_model": (
            calls("stationary.g_eval") / models if models else 0.0, "count"),
        "stationary.global_minimize.self_s": (self_s("stationary.global_minimize"), "s"),
        "stationary.enumerate_stationary.self_s": (
            self_s("stationary.enumerate_stationary"), "s"),
        "stationary.certificate_failures": (c["stationary.certificate_failures"], "count"),
        "local_solver.local_minimize.calls": (calls("local_solver.local_minimize"), "count"),
        "local_solver.local_minimize.self_s": (self_s("local_solver.local_minimize"), "s"),
        "local_solver.local_minimize.iters": (c["local_solver.local_minimize.iters"], "count"),
        "local_solver.local_minimize.iters_max": (
            c["local_solver.local_minimize.iters_max"], "count"),
        "local_solver.local_minimize.unconverged": (
            c["local_solver.local_minimize.unconverged"], "count"),
        "escape.calls": (escape_calls, "count"),
        "escape.self_s": (by_layer["escape"], "s"),
        "escape.threshold_not_met": (c["escape.threshold_not_met"], "count"),
    }
    for tag in ESCAPE_TAGS:
        rows[f"escape.case.{tag}"] = (c[f"escape.case.{tag}"], "count")
    rows.update({
        "escape.useful_share": (c["escape.useful"] / attempts if attempts else 0.0, "share"),
        "driver.steps_accepted": (c["driver.steps_accepted"], "count"),
        "driver.steps_rejected": (c["driver.steps_rejected"], "count"),
        "driver.escapes": (c["driver.escapes"], "count"),
        "driver.ms_per_outer_iter": (
            1000.0 * arc_wall / outer_iters if outer_iters else 0.0, "ms"),
        "driver.self_s": (by_layer["driver"], "s"),
        "problems.callbacks.calls": (calls(CALLBACK_SPAN), "count"),
        "problems.callbacks.self_s": (by_layer["problems"], "s"),
        "problem_io.load_problem.self_s": (self_s("problem_io.load_problem"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.paired_items": (paired, "count"),
        "trace.overhead_s": (paired_traced - paired_untraced, "s"),
        "trace.overhead_share": (
            (paired_traced - paired_untraced) / paired_untraced if paired_untraced else 0.0,
            "share"),
    })
    return rows
