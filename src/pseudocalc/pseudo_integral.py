"""Pseudo-integral operators: g-integrals, sup-integrals, 2-D Sugeno integral.

The g-integral reduces pseudo-integration to classical quadrature through the
generator:  ∫^⊕ f = g⁻¹(∫ g∘f).  The sup-integral is the idempotent (⊕=max)
counterpart: the sup over the domain of f ⊙ ψ with ψ the density of the
sup-measure; sup_integral_2d scans it in row bands of one grid, then in
small windows around the best node.  The Sugeno integral is
sup_α min(α, μ{f ≥ α}) with μ the Lebesgue product measure, taken exactly
for the empirical measure of midpoint samples: with the finite sample values sorted descending,
v_(1) ≥ v_(2) ≥ …, and cell the area of a sample's cell, it is
max_k min(v_(k), k·cell).  v_(k) − k·cell decreases in k, so the minimum
is k·cell up to the crossing rank k* = max{k : v_(k) ≥ k·cell} and v_(k)
after it, and the value is max(k*·cell, v_(k*+1)).  _sugeno_scan takes it
on an unsorted sample.  For all the nested blocks F[:a, :b] of one sample
grid, sugeno_block_bounds gives every block's value between two rank
products from one sort plus 2-D prefix counts, and resolves exactly, by a
running count inside one chunk of ranks, only the blocks asked for;
sugeno_of_block_powers, the Sugeno integral of the blocks' h = (R/xy)^p,
asks for those whose h bounds meet the bracket of that integral that the
bounds give.  Every crossing test there is an integer compare of a count
against a per-value pass count.
_sugeno_scan is the one selection path: two cuts from a strided
subsample bracket the crossing rank, one count step sizes the cuts and
gives only the values between them, which alone are sorted, and a count
is repeated only when a cut misses.  sugeno_integral_2d counts along the
cuts' staircases where f is proved nondecreasing (expr.nondecreasing), and
otherwise over row bands of its grid, evaluated as they are read, so its
memory is O(band) rather than O(grid²).  sugeno_from_samples, for the
kernel's small arrays in memory, is the full sort itself, and every path
gives its bits.

g_integral_1d and g_integral_2d return (value, result, reason): the
classical integral's QuadratureResult comes with the value, and where the
g-integral has none (Remark 3.5's p ≤ 1 cases among others) value is None
and reason says why: "inner classical integral diverged", or the RangeError
text of generators.eval_inverse when the classical value lies outside g's
range.  The failure is a value, as QUADPACK's ier flag is, not an exception.

Decreasing generators are accepted: the formulas use g and g⁻¹ directly, the
declared direction only decides which end of the domain gives which end of
g's range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as expr_mod
from .generators import Generator, RangeError, eval_inverse
from .quadrature import (
    DEFAULT_LEVEL_SET_GRID,
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOL,
    DIVERGED,
    UNIT_SQUARE,
    QuadratureResult,
    Rect,
    _nan_for_failed,
    cell_midpoints,
    eval_nodes,
    grid_eval,
    integrate_1d,
    integrate_2d,
    row_bands,
)
from .semiring import SUP_PLUS, SaturationFlags, Semiring, pseudo_mul

# the sup-integrals' node spacing: 2^DEFAULT_SUP_LEVELS + 1 nodes of an
# interval, and the level to which sup_integral_2d's windows refine
DEFAULT_SUP_LEVELS = 12
# sup_integral_2d's whole-grid pass: (2^SUP_GRID_LEVEL + 1)² nodes, the sup
# Hardy check's default grid
SUP_GRID_LEVEL = 9


class DomainError(ValueError):
    """f or g∘f has no finite value where a grid or a scalar node needs one."""


@dataclass(frozen=True)
class PsiDensity:
    """Density of the sup-measure: an expression in x, evaluated per axis point.

    Must map a sampling grid of [0,1] into the carrier [0,1] (checked by the
    constructors).
    """

    expr: expr_mod.Expr
    description: str = ""

    @classmethod
    def constant(cls, value: float) -> "PsiDensity":
        psi = cls(expr_mod.Const(float(value)), description=f"constant {value:g}")
        psi.validate()
        return psi

    @classmethod
    def from_string(cls, src: str) -> "PsiDensity":
        psi = cls(expr_mod.parse(src), description=src)
        psi.validate()
        return psi

    def validate(self, samples: int = 101):
        vals = self.on(np.linspace(0.0, 1.0, samples))
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"psi density {self.description!r} fails to evaluate on [0,1]")
        if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
            raise ValueError(f"psi density {self.description!r} leaves the carrier [0,1]")

    # compiled once, on the first call (a frozen dataclass keeps its own
    # __dict__, which cached_property fills)
    @cached_property
    def _function(self):
        return expr_mod.as_function(self.expr)

    def __call__(self, t):
        return self._function(t, t)

    def on(self, ts: np.ndarray) -> np.ndarray:
        """ψ at every node of ts, as a float array of ts's shape (a constant ψ broadcast)."""
        return np.broadcast_to(np.asarray(self(ts), dtype=float), ts.shape)


def unit_psi(s: Semiring) -> PsiDensity:
    """Default density: the ⊙-unit constant (0 for sup_plus, else 1)."""
    if s.kind == SUP_PLUS:
        return PsiDensity.constant(0.0)
    return PsiDensity.constant(1.0 if s.unit is None else s.unit)


def _g_of_f(gen: Generator, f):
    """g∘f for an integrand of one or two variables, on node arrays or floats.

    A non-finite f is a failed node (NaN), at an array's nodes and at a float
    alike (as a 0-d array): g is never applied to an infinite f, since g(±∞)
    may be finite.
    """

    def gf(*point):
        return gen.forward(_nan_for_failed(np.asarray(f(*point), dtype=float)))

    return gf


def _g_inverse(gen: Generator, res: QuadratureResult):
    """(g⁻¹(res.value), res, None), or (None, res, reason) when the g-integral has no value."""
    if res.status == DIVERGED:
        return None, res, "inner classical integral diverged"
    try:
        return eval_inverse(gen, res.value), res, None
    except RangeError as e:
        return None, res, str(e)


def g_integral_1d(gen: Generator, f, low: float, high: float, tol: float = DEFAULT_TOL,
                  max_depth: int = DEFAULT_MAX_DEPTH):
    """∫^⊕_[low,high] f dx = g⁻¹(∫ g(f(x)) dx), as (value, classical result, reason)."""
    return _g_inverse(gen, integrate_1d(_g_of_f(gen, f), low, high, tol, max_depth))


def g_integral_2d(gen: Generator, f, r: Rect, tol: float = DEFAULT_TOL,
                  max_depth: int = DEFAULT_MAX_DEPTH):
    """∫∫^⊕_r f dtds = g⁻¹(∬_r g(f(s,t)) dt ds), as (value, classical result, reason)."""
    return _g_inverse(gen, integrate_2d(_g_of_f(gen, f), r, tol, max_depth))


def psi_weighted(s: Semiring, vals, psi_x, psi_y, flags: SaturationFlags | None = None):
    """vals ⊙ ψ(y) ⊙ ψ(x), with psi_x and psi_y broadcast against vals."""
    return pseudo_mul(s, pseudo_mul(s, vals, psi_y, flags), psi_x, flags)


def sup_integral_1d(s: Semiring, f, psi: PsiDensity | None = None,
                    low: float = 0.0, high: float = 1.0) -> float:
    """sup_x f(x) ⊙ ψ(x) over 2^DEFAULT_SUP_LEVELS + 1 nodes of [low, high] ⊆ [0, 1].

    f goes through eval_nodes, so it may take floats only; failed and
    non-finite nodes of f or of the weighted values are skipped, as in
    sup_integral_2d; -inf if all fail.  ψ is validated on [0, 1] only, so an
    interval that leaves it, or has low ≥ high, is a ValueError.
    """
    if not low < high:
        raise ValueError(f"sup integral requires low < high, got [{low}, {high}]")
    if low < 0.0 or high > 1.0:
        raise ValueError(f"sup integral interval [{low}, {high}] leaves [0,1]")
    if psi is None:
        psi = unit_psi(s)
    xs = np.linspace(low, high, 2**DEFAULT_SUP_LEVELS + 1)
    with np.errstate(all="ignore"):
        vals = pseudo_mul(s, eval_nodes(f, xs), psi.on(xs))
    return float(np.max(vals, where=np.isfinite(vals), initial=-math.inf))


def sup_integral_2d(s: Semiring, f, psi: PsiDensity | None = None,
                    r: Rect = UNIT_SQUARE, flags: SaturationFlags | None = None) -> float:
    """Iterated sup-integral: sup_x ( (sup_y f(x,y) ⊙ ψ(y)) ⊙ ψ(x) ).

    ⊙ is monotone, so the iterated sup equals the joint sup of the weighted
    surface f(x,y) ⊙ ψ(y) ⊙ ψ(x), which is scanned: one pass over row bands
    (row_bands) of the (2^SUP_GRID_LEVEL + 1)² grid, so no array is
    grid-sized, then 9×9 windows around the best node, each half the span
    of the last, down to level DEFAULT_SUP_LEVELS + 1.  A later band or
    window wins only if it is greater, np.argmax's first-location rule.
    Failed and non-finite nodes are skipped; -inf if all fail.
    """
    if psi is None:
        psi = unit_psi(s)
    best, at = -math.inf, None

    def scan(xs, ys):
        nonlocal best, at
        psix, psiy = psi.on(xs)[:, np.newaxis], psi.on(ys)[np.newaxis, :]
        for rows in row_bands(xs.size, ys.size):
            with np.errstate(all="ignore"):
                vals = psi_weighted(s, grid_eval(f, xs[rows], ys), psix[rows], psiy, flags)
            vals[~np.isfinite(vals)] = -math.inf
            k = np.unravel_index(np.argmax(vals), vals.shape)
            if vals[k] > best:
                best, at = float(vals[k]), (float(xs[rows][k[0]]), float(ys[k[1]]))

    n = 2**SUP_GRID_LEVEL
    scan(np.linspace(r.x_low, r.x_high, n + 1), np.linspace(r.y_low, r.y_high, n + 1))
    if at is None:
        return -math.inf
    span_x, span_y = (r.x_high - r.x_low) / n, (r.y_high - r.y_low) / n
    for _ in range(SUP_GRID_LEVEL + 1, DEFAULT_SUP_LEVELS + 2):
        span_x /= 2.0
        span_y /= 2.0
        xb, yb = at
        scan(np.clip(np.linspace(xb - 4 * span_x, xb + 4 * span_x, 9), r.x_low, r.x_high),
             np.clip(np.linspace(yb - 4 * span_y, yb + 4 * span_y, 9), r.y_low, r.y_high))
    return best


def _power_of(vals: np.ndarray, power: float) -> np.ndarray:
    """vals ** power as an in-place `**=` on an owned float64 array (power 1 leaves the values).

    numpy's scalar-exponent fast paths (2 → square) run, so every caller
    raising a value this way gets the same bits for it.  An overflow or a
    negative base under a fractional power is not finite, without a warning.
    """
    if not vals.flags.owndata:
        vals = vals.copy()
    if power != 1.0:
        with np.errstate(over="ignore", invalid="ignore"):
            vals **= power
    return vals


def sugeno_integral_2d(f, r: Rect = UNIT_SQUARE,
                       grid: int = DEFAULT_LEVEL_SET_GRID, power: float = 1.0) -> float:
    """Sugeno integral sup_α min(α, μ({f^power ≥ α} ∩ r)) for the empirical measure.

    f is a callable of (x, y), or an expression tree, which is compiled
    (expr.as_function), sampled on the grid × grid midpoint cells.  Failed
    samples (f NaN or ±inf) and NaN powers (a negative base with a
    fractional power) are dropped; the power of a finite f that overflows
    is ±inf, a value (+inf lies in every level set).  power must be a
    positive finite float.

    _sugeno_scan takes the integral from counts of cuts of v = f^power.  A
    tree that expr.nondecreasing proves on the grid (r lies in [0, 1]²) has
    v nondecreasing along both axes, and its cuts are counted along their
    staircases (_staircase_counts), evaluating a few per cent of the grid.
    Any other f is read in row bands of BAND_ELEMENTS nodes
    (quadrature.grid_eval), each raised in place, so no grid-sized array is
    held.  An element's bits do not depend on the array it is computed in
    (expr's docstring; TestPowerAssumptions pins numpy's pow), so a cell
    evaluated on its own (eval_nodes) has its bits in the whole grid, and
    the value is a full sort's either way.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if not (math.isfinite(power) and power > 0.0):
        raise ValueError(f"power must be a positive finite float, got {power!r}")
    xs, ys = cell_midpoints(r.x_low, r.x_high, grid), cell_midpoints(r.y_low, r.y_high, grid)
    tree, f = (f, expr_mod.as_function(f)) if isinstance(f, expr_mod.Expr) else (None, f)

    def at(i, j):
        return _power_of(eval_nodes(f, xs[i], ys[j]), power)

    if tree and expr_mod.nondecreasing(tree, xs[-1], ys[-1]):
        count = _staircase_counts(at, grid, grid)
    else:
        count = _band_counts(lambda: (_power_of(grid_eval(f, xs[rows], ys), power)
                                      for rows in row_bands(grid, grid)))
    return _sugeno_scan(count, lambda nodes: at(nodes // grid, nodes % grid),
                        grid * grid, grid, r.area / (grid * grid))


def _crossing_rank(descending, cell_area: float, lo: int, hi: int) -> int:
    """max{k ∈ [lo, hi] : k = lo or v_(k) ≥ k·cell}, where descending[i] = v_(lo+1+i).

    The test holds at lo and is monotone in k, so the ranks are bisected.
    """
    base = lo
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if descending[mid - base - 1] >= mid * cell_area:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _sugeno_tail(descending, cell_area: float, before: int = 0) -> float:
    """max(k*·cell, v_(k*+1)), with descending[i] = v_(before+1+i) and k* ≥ before.

    k* is bisected over the ranks before … before + len(descending).  A
    value after the last one given is at most k*·cell, or there is none, so
    past the last rank the value is k*·cell.
    """
    k_star = _crossing_rank(descending, cell_area, before, before + len(descending))
    best = k_star * cell_area
    if k_star - before < len(descending):
        best = max(best, float(descending[k_star - before]))
    return float(best)


def sugeno_from_samples(values: np.ndarray, cell_area: float) -> float:
    """max_k min(v_(k), k·cell) over the finite values v, from a sort of all of them."""
    flat = np.asarray(values, dtype=float).ravel()
    return _sugeno_tail(np.sort(flat[np.isfinite(flat)])[::-1], cell_area)


def _band_counts(bands):
    """_sugeno_scan's count step over the value arrays that bands() yields, NaN where failed."""

    def count(t_hi, t_lo):
        c_hi, c_lo, kept = 0, 0, []
        for v in bands():
            above, upper = v > t_hi, v >= t_lo
            c_hi, c_lo = c_hi + np.count_nonzero(above), c_lo + np.count_nonzero(upper)
            if t_lo < t_hi:         # the members of the upper cut outside the lower
                kept.append(v[upper ^ above])
        return c_hi, c_lo, kept

    return count


def _staircase_counts(at, rows: int, cols: int):
    """_sugeno_scan's count step over values v = at(i, j), nondecreasing in i and j, never NaN.

    at takes equal-length index arrays.  A cut {v > t} or {v ≥ t} holds, in
    row i, the columns from a boundary b_i on, so it counts the cells right
    of a staircase.  The boundaries of both cuts in every row are searched
    together, one call of at per round (bit_length(cols) rounds); an
    infinite threshold is searched like any other, as no value exceeds +inf
    and none is below −inf.  Only the cells between the two staircases are
    evaluated for their values; memory is O(rows) plus those cells.
    """
    row, strict = np.tile(np.arange(rows), 2), np.arange(2 * rows) < rows

    def count(t_hi, t_lo):
        # b[i] counts row i's columns outside {v > t_hi}, b[rows + i] those
        # outside {v ≥ t_lo}, by binary lifting: the largest b whose columns
        # all fail, one power of two at a time
        b = np.zeros(2 * rows, dtype=np.intp)
        for step in (1 << k for k in reversed(range(cols.bit_length()))):
            reach = np.minimum(b + step, cols)
            v = at(row, reach - 1)
            b = np.where(np.where(strict, v > t_hi, v >= t_lo), b, reach)
        b_hi, b_lo = b.reshape(2, rows)
        c_hi, c_lo = rows * cols - int(b_hi.sum()), rows * cols - int(b_lo.sum())
        if not t_lo < t_hi:
            return c_hi, c_lo, []
        width = b_hi - b_lo
        i = np.repeat(np.arange(rows), width)
        j = np.arange(i.size) + np.repeat(b_lo - (np.cumsum(width) - width), width)
        return c_hi, c_lo, [at(i, j)]

    return count


def _sugeno_scan(count, subsample, nodes: int, side: int, cell_area: float) -> float:
    """max_k min(v_(k), k·cell) over the non-NaN values v of nodes samples, unsorted.

    count(t_hi, t_lo), for t_hi ≥ t_lo, gives the sizes c_hi of {v > t_hi}
    and c_lo of {v ≥ t_lo} and, when t_lo < t_hi, a list of arrays that
    hold the values v with t_lo ≤ v ≤ t_hi, in any order; the same on
    every call.  subsample(flat) gives v at the flat node indices flat
    (rows of side nodes), NaN where a sample failed.

    A cut with c members and threshold t, whose members are ≥ t and whose
    other values are ≤ t ({v > t} and {v ≥ t} are such cuts), bounds the
    crossing rank k*: its c-th largest value is at least t and the next at
    most t, so c·cell ≤ t gives k* ≥ c (a lower cut) and c·cell > t gives
    k* ≤ c (an upper cut).  Between a lower cut L and an upper cut U with
    L ⊆ U lie the ranks c_L+1 … c_U, held by the members of U outside L.
    Only those are sorted, and k* is bisected among them; v_(k*+1) is the
    next of them.  When k* = c_U it is a value outside U, at most U's
    threshold, which is below c_U·cell: the value is k*·cell, and no value
    below the cuts is kept.

    The cuts come from a strided subsample, one node in about isqrt(nodes)/4
    with the stride coprime to side so that every column of a sample grid is
    represented.  Its non-NaN values are sorted descending, and their
    crossing rank, with each one standing for nodes/sampled nodes (failed
    ones included, so a half-failed grid is no worse a guess), guesses k*.
    One count takes a strict cut {v > t_hi} about isqrt(subsample)/8
    subsample ranks above the guess and an inclusive one {v ≥ t_lo} as far
    below, with the values between them.  If the upper probe lands below k*
    (its cut is an upper one), it becomes t_lo and t_hi moves out four
    times as far, and likewise down; each miss costs another count.  A
    probe past either end of the subsample takes the trivial cut (c = 0
    above, every value below), which cannot miss; with both trivial every
    value lies between them, a full sort.  When both probes land on one tied
    value t, every rank c_L+1 … c_U holds t, so it is bisected as a
    constant without values being kept or sorted.  Fewer than 256 nodes (a
    stride below 4), or a cell_area that is not positive, take the trivial
    cuts.  Each rank is tested as a full sort's bisection (_crossing_rank)
    would test it, and the value depends only on the multiset of non-NaN
    values, so it is the same bits.
    """
    v_sub, guess = np.empty(0), 0
    stride = math.isqrt(nodes) // 4
    if stride >= 4 and cell_area > 0.0:
        while math.gcd(stride, side) != 1:
            stride += 1
        sampled = subsample(np.arange(0, nodes, stride))
        v_sub = np.sort(sampled[~np.isnan(sampled)])[::-1]
        guess = _crossing_rank(v_sub, nodes / sampled.size * cell_area, 0, v_sub.size)
    m = v_sub.size
    # the probes' thresholds: ends[i + 1] is subsample rank i's value
    ends = np.concatenate(([math.inf], v_sub, [-math.inf]))

    def probe(i):
        return min(max(i + 1, 0), m + 1)

    up = down = max(1, math.isqrt(m) // 8)   # subsample ranks from the guess
    hi, lo = probe(guess - 1 - up), probe(guess + down)
    while True:
        t_hi, t_lo = ends[hi], ends[lo]
        c_hi, c_lo, kept = count(t_hi, t_lo)
        # a probe that misses is a cut of the other kind, tighter than the
        # other probe's: it takes that one's place, and its own side moves out
        if c_hi * cell_area > t_hi:
            up *= 4
            lo, hi = hi, probe(guess - 1 - up)
        elif c_lo * cell_area <= t_lo:
            down *= 4
            hi, lo = lo, probe(guess + down)
        else:
            break

    between = (np.broadcast_to(t_lo, (c_lo - c_hi,)) if t_lo == t_hi
               else np.sort(np.concatenate(kept))[::-1])
    return _sugeno_tail(between, cell_area, c_hi)


# entries of the int64 table that one bincount fills before it is narrowed
# into sugeno_block_bounds' count table
_SLAB_ENTRIES = 2**14


def _pass_counts(values: np.ndarray, cell_area: float, total: int, dtype) -> np.ndarray:
    """#{K ∈ [0, total] : fl(K·cell) ≤ v} for every v, in dtype (which holds total + 1).

    fl(K·cell) is nondecreasing in K, so the count is q + 1 for the largest
    passing K = q, and 0 when K = 0 already fails.  The correctly rounded
    quotient v/cell has its floor at the floor r of the real quotient or at
    r + 1, and q is r or r + 1, so floor(v/cell), clipped to [−1, total], is
    q after one step up and one step down, each tested with the same
    floating-point product K·cell that _crossing_rank forms.
    """
    with np.errstate(over="ignore"):      # an infinite quotient or product is clipped or fails
        q = np.floor(values / cell_area)
        np.clip(q, -1.0, total, out=q)
        q += (q < total) & ((q + 1.0) * cell_area <= values)
        q -= (q >= 0.0) & (q * cell_area > values)
    q += 1.0
    return q.astype(dtype)


def _prefix_sums(table: np.ndarray) -> None:
    """Running sums of table along every axis, in place and in its own dtype.

    Each axis is moved to the front and summed by adding each slice into the
    next, one numpy call per slice.
    """
    for axis in range(table.ndim):
        slices = list(np.moveaxis(table, axis, 0))
        for prev, row in zip(slices, slices[1:]):
            np.add(row, prev, out=row)


def sugeno_block_bounds(F: np.ndarray, row_ends, col_ends, cell_area: float):
    """Bounds lo ≤ R ≤ hi on the value R of every block F[:row_ends[i], :col_ends[j]], and resolve.

    R is max_k min(v_(k), k·cell) of the block's samples; resolve(bi, bj)
    gives R exactly for the blocks (bi[k], bj[k]).  F holds finite samples;
    the ends are nondecreasing and cell_area > 0.

    Bound stage.  The samples are sorted once, descending, and the ranks cut
    into chunks of L = 2⌈√total⌉ (384 for 192²).  A sample's band on each
    axis is the number of block ends at or below its index, so it lies in
    block (i, j) iff its bands are ≤ (i, j); counting samples by (chunk, row
    band, column band) and summing along all three axes gives K(c), the size
    of every block's part of the ranks up to the end of chunk c, and
    K(−1) = 0.  A block element's own rank is at most K at its chunk's end
    and its value at least the chunk's smallest value, so the whole chunk
    passes the test v_(k) ≥ k·cell while K·cell does not exceed that smallest
    value; from the first chunk c₀ where it does, no later element passes.
    So K(c₀−1) ≤ k* ≤ K(c₀), and v_(k*+1), which fails its own rank, is below
    fl((k*+1)·cell) ≤ fl(K(c₀)·cell) when it lies in c₀, and below
    fl(K(c₀)·cell) > c₀'s smallest value when it lies after it: lo is
    fl(K(c₀−1)·cell) and hi is fl(K(c₀)·cell).  A block with no such chunk
    passes whole: lo = hi = fl(K·cell) of its whole count is its value.

    Every test is an integer compare on narrow arrays.  A sample value v has
    the pass count Q(v) = #{K ∈ [0, total] : fl(K·cell) ≤ v} (_pass_counts),
    so K·cell ≤ v iff K < Q(v), and v < k·cell iff k ≥ Q(v), for the very
    floating-point products a block's own sort would test; pass counts are
    taken only at chunk ends and in the chunks that resolve scans.  Counts,
    ranks and pass counts share the narrowest unsigned type that holds
    total + 1 (uint16 up to 65,534 samples); the count table is filled from
    one bincount per slab of chunks and summed by in-place slice adds
    (_prefix_sums), so no int64 table is held.

    Resolve stage.  The crossing rank k* is found inside c₀ from the block
    mask and a running count (one contiguous row of L ranks per block); the
    first element of c₀ that fails is v_(k*+1) (if none fails, the next one
    lies below K·cell and the value is k*·cell).  These are the k* and the
    v_(k*+1) that the block's own sort would give, so the value is the same
    bits.  A block with lo = hi is not scanned: R lies between them and is
    ≥ +0.0, as they are.  Tied values are one number in any order, so the
    sort need not be stable.
    """
    rows, cols = len(row_ends), len(col_ends)
    total = F.size
    length = 2 * (math.isqrt(max(total, 1) - 1) + 1)
    chunks = -(-total // length)
    count_type = np.min_scalar_type(total + 1)
    band_type = np.min_scalar_type(max(rows, cols))
    order = np.argsort(F, axis=None)[::-1]
    # value and bands of each rank, padded to whole chunks with samples in no block
    ranked = np.zeros((chunks, length))
    ranked.reshape(-1)[:total] = F.ravel()[order]
    band_x, band_y = np.full((2, chunks, length), [[[rows]], [[cols]]], dtype=band_type)
    row_bands = np.searchsorted(row_ends, np.arange(F.shape[0]), side="right")
    col_bands = np.searchsorted(col_ends, np.arange(F.shape[1]), side="right")
    band_x.reshape(-1)[:total] = np.repeat(row_bands.astype(band_type), F.shape[1])[order]
    band_y.reshape(-1)[:total] = np.tile(col_bands.astype(band_type), F.shape[0])[order]
    del order

    plane = (rows + 1) * (cols + 1)
    slab = max(1, _SLAB_ENTRIES // plane)        # chunks per bincount
    offsets = np.repeat(np.arange(slab, dtype=np.intp) * plane, length)
    # counts[c + 1] holds chunk c; counts[0], chunk −1, stays empty
    counts = np.zeros((chunks + 1, rows + 1, cols + 1), dtype=count_type)
    for start in range(0, chunks, slab):
        stop = min(start + slab, chunks)
        key = (band_x[start:stop] * np.intp(cols + 1) + band_y[start:stop]).ravel()
        key += offsets[:key.size]
        counts[start + 1:stop + 1] = np.bincount(key, minlength=(stop - start) * plane).reshape(
            stop - start, rows + 1, cols + 1)
    _prefix_sums(counts)
    K = counts[:, :rows, :cols]

    # the pass count of each chunk's smallest value, at its last real rank
    last = np.minimum(np.arange(1, chunks + 1) * length, total) - 1
    smallest = _pass_counts(ranked.reshape(-1)[last], cell_area, total, count_type)
    # K·cell > smallest holds from c₀ on, so c₀ counts the chunks before it
    c0 = (K[1:] < smallest[:, np.newaxis, np.newaxis]).sum(axis=0, dtype=count_type)
    before = np.take_along_axis(K, c0[np.newaxis], axis=0)[0]
    lo = before * cell_area
    hi = np.take_along_axis(K, np.minimum(c0 + 1, chunks)[np.newaxis], axis=0)[0] * cell_area

    def resolve(bi: np.ndarray, bj: np.ndarray) -> np.ndarray:
        """R of the blocks (bi[k], bj[k]): the bound where lo = hi, else c₀ scanned."""
        out = lo[bi, bj]
        scan = np.flatnonzero(out < hi[bi, bj])
        bi, bj = bi[scan], bj[scan]
        c = c0[bi, bj]
        chunk, row = np.unique(c, return_inverse=True)      # pass counts once per chunk
        # the ranks of each scanned block's c₀, one row per block
        member = band_x[c] <= bi.astype(band_type)[:, np.newaxis]
        member &= band_y[c] <= bj.astype(band_type)[:, np.newaxis]
        rank = member.astype(count_type)
        rank[:, 0] += before[bi, bj]
        np.add.accumulate(rank, axis=1, out=rank)
        fails = rank >= _pass_counts(ranked[chunk], cell_area, total, count_type)[row]
        fails &= member
        first = fails.argmax(axis=1)
        blocks = np.arange(bi.size)
        failed = fails[blocks, first]
        k_star = np.where(failed, rank[blocks, first] - 1, rank[:, -1])
        best = k_star * cell_area
        following = ranked[c, first]
        # max(best, v) as _sugeno_tail takes it: best unless v is larger
        out[scan] = np.where(failed & (following > best), following, best)
        return out

    return lo, hi, resolve


def sugeno_of_block_powers(F, ends, cell_area, xy, power, outer_cell) -> float:
    """The Sugeno integral of h = (R/xy)^power, R the values of the blocks F[:ends[i], :ends[j]].

    That is max_k min(h_(k), k·outer_cell).  xy[i, j] is block (i, j)'s
    divisor and cell_area a sample's area (sugeno_block_bounds).  Each h is a Python-float pow of R/xy (numpy's
    array pow can differ by an ulp).  The bounds' h_lo ≤ h ≤ h_hi are numpy
    pows rounded outward by a relative 1e-12 and an absolute 1e-300, far
    above the ulps by which the two pows can differ, normal or subnormal;
    and the empirical Sugeno value is monotone in the values, so
    S_lo = Sugeno(h_lo) ≤ S ≤ Sugeno(h_hi) = S_hi.  Only the blocks with
    h_hi ≥ S_lo and h_lo ≤ S_hi are resolved; the value is the crossing of
    their sorted h over the ranks C+1 … C+#resolved, C counting the blocks
    with h_lo > S_hi.  That is the bits of a sort of every h, with k* its
    crossing rank.  A block counted in C has h > S_hi ≥ S, so it lies among
    the first k* ranks (else S ≥ h_(k*+1) > S_hi) and passes: standing in
    as +inf moves no rank's test.  A block with h_hi < S_lo has
    h < S ≤ h_(k*), so it lies after k*, where it can only lose the max to
    k*·cell: dropping it moves neither k* nor the value.
    """
    lo, hi, resolve = sugeno_block_bounds(F, ends, ends, cell_area)
    with np.errstate(over="ignore"):
        h_lo = (lo / xy) ** power * (1.0 - 1e-12) - 1e-300
        h_hi = (hi / xy) ** power * (1.0 + 1e-12) + 1e-300
    s_lo, s_hi = sugeno_from_samples(h_lo, outer_cell), sugeno_from_samples(h_hi, outer_cell)
    bi, bj = np.nonzero((h_hi >= s_lo) & (h_lo <= s_hi))
    h = sorted((pow(r, power) for r in (resolve(bi, bj) / xy[bi, bj]).tolist()), reverse=True)
    return _sugeno_tail(h, outer_cell, int(np.count_nonzero(h_lo > s_hi)))
