"""Outside-in tracing of pseudocalc for the benchmark's traced run.

Nothing in the package is edited.  `install` rebinds each traced public name
in every pseudocalc module that holds it, so a caller that looks the name up
in its own module (``hardy.integrate_2d``, ``pseudo_integral.integrate_2d``,
``quadrature.integrate_2d``) reaches the wrapper.  Each wrapper records a span:
name, start, end, parent span and op id.  Counters are taken at the same
boundaries.

Three layers are called thousands of times per check (the callables that
``expr.as_function`` returns, the generators' forward/inverse, and
``sugeno_from_sorted``).  They call no traced code, so their calls are kept as
one aggregate per (parent span, name, op) with a call count and a total time
instead of one record per call.  Self time is unchanged by this: a span's self
time is its duration minus the time of its child spans and child aggregates.

Spans, aggregates and counters stay in memory; `write` stores them at the end
of the run.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from workloads import INTEGRATE_EXAMPLES, REPRODUCE_FIXTURES

perf = time.perf_counter

SETUP = -1  # op id of the set-up phase

# the traced layers and the names whose self time each layer metric reads
ADAPTIVE = ("quadrature.integrate_1d", "quadrature.integrate_2d")
G_INTEGRAL = "pseudo_integral.g_integral"

SELF_METRICS = {
    "expr.self_s": ("expr",),
    "generators.self_s": ("generators",),
    "semiring.pseudo_mul.self_s": ("semiring.pseudo_mul",),
    "quadrature.adaptive.self_s": ADAPTIVE,
    "quadrature.grid_eval.self_s": ("quadrature.grid_eval",),
    "quadrature.level_set_samples.self_s": ("quadrature.level_set_samples",),
    "quadrature.cumulative_simpson.self_s": ("quadrature.cumulative_simpson",),
    "pseudo_integral.g_integral.self_s": (G_INTEGRAL,),
    "pseudo_integral.sugeno_lhs.self_s": ("pseudo_integral.sugeno_lhs",),
    "pseudo_integral.sugeno_from_sorted.self_s": ("pseudo_integral.sugeno_from_sorted",),
    "pseudo_integral.sup_integral.self_s": ("pseudo_integral.sup_integral",),
    "hardy.g_kernel.self_s": ("hardy.g_kernel",),
    "hardy.pointwise.self_s": ("hardy.pointwise",),
    "hardy.sup_kernel.self_s": ("hardy.sup_kernel",),
    "hardy.sugeno_kernel.self_s": ("hardy.sugeno_kernel",),
    "hardy.diagnostics.self_s": ("hardy.diagnostics",),
}

COUNT_METRICS = (
    "expr.scalar_calls",
    "expr.array_points",
    "expr.scalar_calls_in_grid_eval",
    "generators.calls",
    "semiring.pseudo_mul.calls",
    "semiring.pseudo_mul.elements",
    "semiring.saturations",
    "quadrature.integrate_1d.calls",
    "quadrature.integrate_2d.calls",
    "quadrature.evaluations",
    "quadrature.max_refinement",
    "quadrature.diverged",
    "quadrature.grid_eval.points",
    "pseudo_integral.sugeno_from_sorted.calls",
    "pseudo_integral.sugeno_from_sorted.elements",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric the traced run reports, in report order."""
    out = [(name, "count") for name in COUNT_METRICS]
    out += [(name, "s") for name in SELF_METRICS]
    out += [("hardy.check.p50_s", "s"), ("hardy.check.p90_s", "s"),
            ("harness.build_trial_scenario.self_s", "s")]
    out += [(f"cli.reproduce.{n}.s", "s") for n in REPRODUCE_FIXTURES]
    out += [(f"cli.integrate.{n}.s", "s") for n, _ in INTEGRATE_EXAMPLES]
    out.append(("traced.ops_per_s", "1/s"))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent, op]
        self.leaves: dict = {}             # (parent, name, op) -> [calls, seconds]
        self.counts: dict = {SETUP: {}}    # op -> {counter: value}
        self.stack = [-1]
        self.op = SETUP
        self._counts = self.counts[SETUP]
        self.grid_depth = 0
        self.quad_depth = 0
        self.missing: list[str] = []

    # --- recording ----------------------------------------------------------

    def begin_op(self, op: int):
        self.op = op
        self._counts = self.counts.setdefault(op, {})

    def count(self, key: str, value=1):
        self._counts[key] = self._counts.get(key, 0) + value

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf(), 0.0, self.stack[-1], self.op])
        self.stack.append(idx)
        return idx

    def exit(self, idx: int):
        self.spans[idx][2] = perf()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.enter(name)
        try:
            yield
        finally:
            self.exit(idx)

    def leaf(self, name: str, seconds: float):
        key = (self.stack[-1], name, self.op)
        agg = self.leaves.get(key)
        if agg is None:
            self.leaves[key] = [1, seconds]
        else:
            agg[0] += 1
            agg[1] += seconds

    # --- results ------------------------------------------------------------

    def metrics(self, n_ops: int, ops_per_s: float) -> dict:
        """Per-op self times and counts over ops 0..n_ops-1, plus set-up self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (parent, name, op), (calls, seconds) in self.leaves.items():
            if parent >= 0:
                child[parent] += seconds
        self_op: dict = {}
        self_setup: dict = {}
        inclusive_op: dict = {}
        checks: list[float] = []
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            own = (end - start) - child[i]
            if op == SETUP:
                self_setup[name] = self_setup.get(name, 0.0) + own
                continue
            self_op[name] = self_op.get(name, 0.0) + own
            inclusive_op[name] = inclusive_op.get(name, 0.0) + (end - start)
            if name == "hardy.run_check":
                checks.append(end - start)
        for (parent, name, op), (calls, seconds) in self.leaves.items():
            if op != SETUP:
                self_op[name] = self_op.get(name, 0.0) + seconds
        totals: dict = {}
        for op, counters in self.counts.items():
            if op == SETUP:
                continue
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value

        values = {name: totals.get(name, 0) / n_ops for name in COUNT_METRICS}
        for metric, names in SELF_METRICS.items():
            values[metric] = sum(self_op.get(n, 0.0) for n in names) / n_ops
        if checks:
            values["hardy.check.p50_s"] = statistics.median(checks)
            values["hardy.check.p90_s"] = (statistics.quantiles(checks, n=10)[-1]
                                           if len(checks) > 1 else checks[0])
        else:
            values["hardy.check.p50_s"] = values["hardy.check.p90_s"] = 0.0
        values["harness.build_trial_scenario.self_s"] = self_setup.get(
            "harness.build_trial_scenario", 0.0)
        for n in REPRODUCE_FIXTURES:
            values[f"cli.reproduce.{n}.s"] = inclusive_op.get(f"cli.reproduce.{n}", 0.0) / n_ops
        for n, _ in INTEGRATE_EXAMPLES:
            values[f"cli.integrate.{n}.s"] = inclusive_op.get(f"cli.integrate.{n}", 0.0) / n_ops
        values["traced.ops_per_s"] = ops_per_s
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in per_layer_metrics()}

    def write(self, path, meta: dict):
        leaves = [[parent, name, op, calls, seconds]
                  for (parent, name, op), (calls, seconds) in self.leaves.items()]
        doc = {
            **meta,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "leaf_fields": ["parent", "name", "op", "calls", "seconds"],
            "leaves": leaves,
            "counts": {str(op): c for op, c in self.counts.items()},
            "untraced_names": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# --- installation -------------------------------------------------------------


def _modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "pseudocalc" or n.startswith("pseudocalc."))]


def _rebind(tr: Tracer, module, attr: str, make_wrapper):
    """Replace module.attr, and every other pseudocalc binding of it, by a wrapper."""
    orig = getattr(module, attr, None)
    if orig is None:
        tr.missing.append(f"{module.__name__}.{attr}")
        return
    wrapper = make_wrapper(orig)
    for mod in _modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)


def _spanned(tr: Tracer, name: str):
    def make(fn):
        def wrapper(*args, **kwargs):
            idx = tr.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.exit(idx)
        return wrapper
    return make


def _leaf_fn(tr: Tracer, name: str, fn, counter: str):
    def wrapper(*args, **kwargs):
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            tr.leaf(name, perf() - t0)
            tr.count(counter)
    return wrapper


def install(pc) -> Tracer:
    """Wrap the public functions of every pseudocalc layer; returns the tracer."""
    tr = Tracer()
    expr, gens, semiring = pc.expr, pc.generators, pc.semiring
    quad, pint, hardy, harness = pc.quadrature, pc.pseudo_integral, pc.hardy, pc.harness

    # expr: time inside the callables that as_function returns
    def make_as_function(orig):
        def as_function(node):
            f = orig(node)

            def traced_f(x, y):
                t0 = perf()
                try:
                    return f(x, y)
                finally:
                    tr.leaf("expr", perf() - t0)
                    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
                        tr.count("expr.array_points", np.broadcast(x, y).size)
                    else:
                        tr.count("expr.scalar_calls")
                        if tr.grid_depth:
                            tr.count("expr.scalar_calls_in_grid_eval")
            return traced_f
        return as_function

    _rebind(tr, expr, "as_function", make_as_function)

    # generators: forward/inverse of every generator make_generator returns
    def make_make_generator(orig):
        def make_generator(spec):
            gen = orig(spec)
            return dataclasses.replace(
                gen,
                forward=_leaf_fn(tr, "generators", gen.forward, "generators.calls"),
                inverse=_leaf_fn(tr, "generators", gen.inverse, "generators.calls"),
            )
        return make_generator

    _rebind(tr, gens, "make_generator", make_make_generator)

    # semiring
    def make_pseudo_mul(orig):
        def pseudo_mul(s, a, b, flags=None):
            before = flags.add_saturations + flags.mul_saturations if flags is not None else 0
            idx = tr.enter("semiring.pseudo_mul")
            try:
                out = orig(s, a, b, flags)
            finally:
                tr.exit(idx)
            tr.count("semiring.pseudo_mul.calls")
            tr.count("semiring.pseudo_mul.elements", int(np.size(out)))
            if flags is not None:
                tr.count("semiring.saturations",
                         flags.add_saturations + flags.mul_saturations - before)
            return out
        return pseudo_mul

    _rebind(tr, semiring, "pseudo_mul", make_pseudo_mul)

    # quadrature: the adaptive engine counts results at its outermost call
    def make_adaptive(name, counter):
        def make(orig):
            def adaptive(*args, **kwargs):
                top = tr.quad_depth == 0
                tr.quad_depth += 1
                idx = tr.enter(name)
                try:
                    res = orig(*args, **kwargs)
                finally:
                    tr.exit(idx)
                    tr.quad_depth -= 1
                tr.count(counter)
                if top:
                    tr.count("quadrature.evaluations", res.evaluations)
                    if res.status == "max_refinement":
                        tr.count("quadrature.max_refinement")
                    elif res.status == "diverged":
                        tr.count("quadrature.diverged")
                return res
            return adaptive
        return make

    _rebind(tr, quad, "integrate_1d",
            make_adaptive("quadrature.integrate_1d", "quadrature.integrate_1d.calls"))
    _rebind(tr, quad, "integrate_2d",
            make_adaptive("quadrature.integrate_2d", "quadrature.integrate_2d.calls"))

    def make_grid_eval(orig):
        def grid_eval(f, xs, ys):
            tr.grid_depth += 1
            idx = tr.enter("quadrature.grid_eval")
            try:
                return orig(f, xs, ys)
            finally:
                tr.exit(idx)
                tr.grid_depth -= 1
                tr.count("quadrature.grid_eval.points", int(np.size(xs)) * int(np.size(ys)))
        return grid_eval

    _rebind(tr, quad, "grid_eval", make_grid_eval)
    for attr in ("level_set_samples", "cumulative_simpson"):
        _rebind(tr, quad, attr, _spanned(tr, f"quadrature.{attr}"))

    # pseudo_integral
    for attr in ("g_integral_1d", "g_integral_1d_result", "g_integral_2d",
                 "g_integral_2d_result"):
        _rebind(tr, pint, attr, _spanned(tr, G_INTEGRAL))
    _rebind(tr, pint, "sugeno_integral_2d", _spanned(tr, "pseudo_integral.sugeno_lhs"))
    _rebind(tr, pint, "sup_integral_2d", _spanned(tr, "pseudo_integral.sup_integral"))

    def make_from_sorted(orig):
        def sugeno_from_sorted(descending, cell_area):
            t0 = perf()
            try:
                return orig(descending, cell_area)
            finally:
                tr.leaf("pseudo_integral.sugeno_from_sorted", perf() - t0)
                tr.count("pseudo_integral.sugeno_from_sorted.calls")
                tr.count("pseudo_integral.sugeno_from_sorted.elements", int(np.size(descending)))
        return sugeno_from_sorted

    _rebind(tr, pint, "sugeno_from_sorted", make_from_sorted)

    # hardy: kernels, checks and diagnostics
    kernel = getattr(hardy, "GKernelGrid", None)
    if kernel is None:
        tr.missing.append("pseudocalc.hardy.GKernelGrid")
    else:
        for method in ("__init__", "integral_of_g_of_R_pow"):
            setattr(kernel, method, _spanned(tr, "hardy.g_kernel")(getattr(kernel, method)))
    for attr, name in (("pointwise_proof_check", "hardy.pointwise"),
                       ("sup_kernel_grid", "hardy.sup_kernel"),
                       ("check_hardy_sugeno", "hardy.sugeno_kernel"),
                       ("remark_diagnostics", "hardy.diagnostics"),
                       ("run_check", "hardy.run_check")):
        _rebind(tr, hardy, attr, _spanned(tr, name))

    # harness
    _rebind(tr, harness, "build_trial_scenario", _spanned(tr, "harness.build_trial_scenario"))
    return tr
