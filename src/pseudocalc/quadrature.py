"""Classical numerical integration and sup-scanning on [0,1] and [0,1]².

integrate_1d is an adaptive composite Simpson rule with Richardson error
estimation and explicit divergence classification; integrate_2d iterates it
(inner in t, outer in s, matching the dtds ordering of the double integrals
it serves).  sup_scan_2d is the one grid sup scan (the sup-integral scans
its ψ-weighted surface through it); level_set_samples gives the midpoint
samples behind the Sugeno integral and measure_level_set.

Divergence rule: a panel that reaches the refinement depth cap with a local
error estimate above its tolerance budget is classified divergent iff it also
shows blow-up (a sampled |f| > 1e12 or a panel estimate > 1e8).  Integrands
that fail to evaluate at a domain endpoint are retried on nodes shifted
inward by 1e-12 first, so integrable endpoint singularities (x^{1/4},
x^{-1/2}) converge while genuine divergences (x^{-2}) are reported as such.
In integrate_2d a divergent inner integral counts as a failed outer node, so
an edge where the integrand fails everywhere gets the same inward retry.

Summation is pairwise by construction (panel tree), so results are
reduction-order independent to ~1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_DEPTH = 30
DEFAULT_SUP_LEVELS = 12
DEFAULT_LEVEL_SET_GRID = 2048

BOUNDARY_INSET = 1e-12
BLOWUP_VALUE = 1e12
BLOWUP_PANEL = 1e8
EVAL_BUDGET = 2_000_000

CONVERGED = "converged"
MAX_REFINEMENT = "max_refinement"
DIVERGED = "diverged"


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    status: str

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


@dataclass(frozen=True)
class Rect:
    x_low: float
    x_high: float
    y_low: float
    y_high: float

    def __post_init__(self):
        if not (self.x_low < self.x_high and self.y_low < self.y_high):
            raise ValueError(f"degenerate rectangle {self}")
        if min(self.x_low, self.y_low) < 0.0 or max(self.x_high, self.y_high) > 1.0:
            raise ValueError(f"rectangle {self} leaves [0,1]²")

    @property
    def area(self) -> float:
        return (self.x_high - self.x_low) * (self.y_high - self.y_low)

    def as_list(self) -> list[float]:
        return [self.x_low, self.x_high, self.y_low, self.y_high]


UNIT_SQUARE = Rect(0.0, 1.0, 0.0, 1.0)


class _Budget(Exception):
    pass


def _finite_or_none(v) -> float | None:
    try:
        v = float(v)
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


class _Adaptive1D:
    def __init__(self, f, low, high, tol, max_depth):
        self.f = f
        self.low = low
        self.high = high
        self.tol = tol
        self.max_depth = max_depth
        self.evaluations = 0
        self.max_abs_sample = 0.0
        self.divergent = False
        self.node_failures = False

    def eval(self, x: float) -> float | None:
        self.evaluations += 1
        if self.evaluations > EVAL_BUDGET:
            raise _Budget()
        try:
            v = _finite_or_none(self.f(x))
        except (ArithmeticError, ValueError):
            v = None
        if v is None and (x == self.low or x == self.high):
            # singular endpoint: retry on an inward-shifted node
            shifted = x + BOUNDARY_INSET if x == self.low else x - BOUNDARY_INSET
            self.evaluations += 1
            try:
                v = _finite_or_none(self.f(shifted))
            except (ArithmeticError, ValueError):
                v = None
        if v is not None:
            self.max_abs_sample = max(self.max_abs_sample, abs(v))
        return v

    def run(self) -> QuadratureResult:
        a, b = self.low, self.high
        fa, fb = self.eval(a), self.eval(b)
        m = 0.5 * (a + b)
        fm = self.eval(m)
        if fa is None or fb is None or fm is None:
            return QuadratureResult(0.0, math.inf, self.evaluations, DIVERGED)
        s_whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        total = 0.0
        err_total = 0.0
        # explicit stack, leftmost-first, so boundary singularities are
        # classified quickly and the remaining panels become the partial sum
        stack = [(a, b, fa, fm, fb, s_whole, 0, self.tol)]
        try:
            while stack:
                a0, b0, f0, f1, f2, s0, depth, tol_local = stack.pop()
                m0 = 0.5 * (a0 + b0)
                lm = 0.5 * (a0 + m0)
                rm = 0.5 * (m0 + b0)
                flm = self.eval(lm)
                frm = self.eval(rm)
                if flm is None or frm is None:
                    # unresolvable interior singularity
                    self.divergent = True
                    self.node_failures = True
                    continue
                h6 = (m0 - a0) / 6.0
                s_left = h6 * (f0 + 4.0 * flm + f1)
                s_right = h6 * (f1 + 4.0 * frm + f2)
                s2 = s_left + s_right
                err = (s2 - s0) / 15.0
                if abs(err) <= tol_local:
                    total += s2 + err
                    err_total += abs(err)
                    continue
                if depth >= self.max_depth:
                    panel_max = max(abs(f0), abs(f1), abs(f2), abs(flm), abs(frm))
                    if panel_max > BLOWUP_VALUE or abs(s2) > BLOWUP_PANEL:
                        self.divergent = True
                        total += s2
                        err_total += abs(err)
                        # no point refining the rest once divergence is certain
                        for rest in stack:
                            total += rest[5]
                            err_total += abs(rest[5])
                        stack.clear()
                        continue
                    total += s2 + err
                    err_total += abs(err)
                    continue
                stack.append((m0, b0, f1, frm, f2, s_right, depth + 1, tol_local / 2.0))
                stack.append((a0, m0, f0, flm, f1, s_left, depth + 1, tol_local / 2.0))
        except _Budget:
            return QuadratureResult(total, math.inf, self.evaluations, MAX_REFINEMENT)
        if self.divergent:
            return QuadratureResult(total, math.inf, self.evaluations, DIVERGED)
        if err_total <= self.tol:
            return QuadratureResult(total, err_total, self.evaluations, CONVERGED)
        return QuadratureResult(total, err_total, self.evaluations, MAX_REFINEMENT)


def integrate_1d(f, low: float, high: float, tol: float = DEFAULT_TOL,
                 max_depth: int = DEFAULT_MAX_DEPTH) -> QuadratureResult:
    """Adaptive Simpson estimate of ∫_low^high f with error estimate and status."""
    if not low < high:
        raise ValueError("requires low < high")
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _Adaptive1D(f, low, high, tol, max_depth).run()


def integrate_2d(f, r: Rect, tol: float = DEFAULT_TOL,
                 max_depth: int = DEFAULT_MAX_DEPTH) -> QuadratureResult:
    """Iterated adaptive integration of ∫∫_r f(s,t) dt ds (inner in t, outer in s)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    inner_tol = tol * 0.1
    inner_evals = [0]
    inner_worst = [CONVERGED]

    def outer_integrand(s: float) -> float:
        res = integrate_1d(lambda t: f(s, t), r.y_low, r.y_high, inner_tol, max_depth)
        inner_evals[0] += res.evaluations
        if res.status == DIVERGED:
            return math.nan  # a failed node: retried inward at an edge, else divergent
        if res.status == MAX_REFINEMENT:
            inner_worst[0] = MAX_REFINEMENT
        return res.value

    outer = integrate_1d(outer_integrand, r.x_low, r.x_high, tol, max_depth)
    evaluations = inner_evals[0] + outer.evaluations
    status = outer.status
    if status == CONVERGED and inner_worst[0] == MAX_REFINEMENT:
        status = MAX_REFINEMENT
    return QuadratureResult(outer.value, outer.error_estimate, evaluations, status)


# --- grid machinery ---------------------------------------------------------


def grid_eval(f, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Evaluate f on the tensor grid xs × ys; failed nodes become NaN.

    Tries one vectorized call first (meshgrid arrays); falls back to a scalar
    double loop that skips failing nodes.
    """
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    try:
        vals = np.asarray(f(X, Y), dtype=float)
        if vals.shape == X.shape:
            return vals
        if vals.size == 1:  # constant integrand
            return np.broadcast_to(vals.reshape(()), X.shape).copy()
    except Exception:
        pass
    out = np.full(X.shape, np.nan)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            try:
                v = float(f(X[i, j], Y[i, j]))
            except (ArithmeticError, ValueError):
                continue
            if math.isfinite(v):
                out[i, j] = v
    return out


def _best_on_grid(f, xs, ys, stats: dict | None):
    vals = grid_eval(f, xs, ys)
    finite = np.isfinite(vals)
    skipped = int(np.sum(~finite))
    if stats is not None:
        stats["skipped_nodes"] = stats.get("skipped_nodes", 0) + skipped
    if skipped == vals.size:
        return None, None, -math.inf
    idx = np.unravel_index(np.argmax(np.where(finite, vals, -np.inf)), vals.shape)
    return float(xs[idx[0]]), float(ys[idx[1]]), float(vals[idx])


def sup_scan_2d(f, r: Rect = UNIT_SQUARE, levels: int = DEFAULT_SUP_LEVELS,
                stats: dict | None = None) -> float:
    """Maximum of f over a refining grid (effective 2^levels+1 nodes per axis).

    A full tensor scan runs at level min(levels, 9); deeper levels refine a
    local window around the running best cell, with one extra local pass at
    the end.  Failed and non-finite nodes are skipped (count in
    stats["skipped_nodes"]).
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    base = min(levels, 9)
    xs = np.linspace(r.x_low, r.x_high, 2**base + 1)
    ys = np.linspace(r.y_low, r.y_high, 2**base + 1)
    xb, yb, best = _best_on_grid(f, xs, ys, stats)
    if xb is None:
        return -math.inf
    span_x = (r.x_high - r.x_low) / 2**base
    span_y = (r.y_high - r.y_low) / 2**base
    # refine around the best cell down to the requested level, plus one pass
    for lvl in range(base + 1, levels + 2):
        span_x /= 2.0
        span_y /= 2.0
        xs = np.clip(np.linspace(xb - 4 * span_x, xb + 4 * span_x, 9), r.x_low, r.x_high)
        ys = np.clip(np.linspace(yb - 4 * span_y, yb + 4 * span_y, 9), r.y_low, r.y_high)
        nx, ny, val = _best_on_grid(f, xs, ys, stats)
        if nx is not None and val > best:
            xb, yb, best = nx, ny, val
    return best


def measure_level_set(f, r: Rect, alpha: float, grid: int = DEFAULT_LEVEL_SET_GRID) -> float:
    """Lebesgue area estimate of {(s,t) ∈ r : f(s,t) ≥ alpha} by midpoint cells."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    vals = level_set_samples(f, r, grid)
    cell = r.area / (grid * grid)
    return float(np.sum(vals >= alpha)) * cell


def level_set_samples(f, r: Rect, grid: int) -> np.ndarray:
    """Midpoint-cell samples of f on r (grid × grid), NaN where evaluation fails."""
    dx = (r.x_high - r.x_low) / grid
    dy = (r.y_high - r.y_low) / grid
    xs = r.x_low + (np.arange(grid) + 0.5) * dx
    ys = r.y_low + (np.arange(grid) + 0.5) * dy
    return grid_eval(f, xs, ys)


def composite_simpson(f, a: float, b: float, n: int) -> float:
    """Fixed-mesh composite Simpson with n (even) subintervals; test/diagnostic use."""
    if n % 2 != 0 or n < 2:
        raise ValueError("n must be a positive even integer")
    xs = np.linspace(a, b, n + 1)
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape != xs.shape:
            raise ValueError
    except Exception:
        vals = np.array([float(f(x)) for x in xs])
    h = (b - a) / n
    return float(h / 3.0 * (vals[0] + vals[-1] + 4.0 * np.sum(vals[1:-1:2]) + 2.0 * np.sum(vals[2:-2:2])))


def cumulative_simpson(values: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Fourth-order cumulative integral of sampled values on a uniform mesh.

    values must have an odd length (even panel count) along axis.  Even-index
    prefixes use composite Simpson; odd-index prefixes add a half-panel
    three-point Newton-Cotes correction, keeping O(h⁴) accuracy at every node.
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    n = v.shape[-1]
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd number of nodes (even panel count)")
    out = np.zeros_like(v)
    blocks = h / 3.0 * (v[..., 0:-2:2] + 4.0 * v[..., 1:-1:2] + v[..., 2::2])
    out[..., 2::2] = np.cumsum(blocks, axis=-1)
    # odd nodes: I[k] = I[k-1] + ∫_{x_{k-1}}^{x_k} via quadratic through k-1,k,k+1
    out[..., 1::2] = out[..., 0:-2:2] + h / 12.0 * (
        5.0 * v[..., 0:-2:2] + 8.0 * v[..., 1:-1:2] - v[..., 2::2]
    )
    return np.moveaxis(out, -1, axis)
