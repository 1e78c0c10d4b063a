"""Pseudo-integral operators: g-integrals, sup-integrals, 2-D Sugeno integral.

The g-integral reduces pseudo-integration to classical quadrature through the
generator:  ∫^⊕ f = g⁻¹(∫ g∘f).  The sup-integral is the idempotent (⊕=max)
counterpart: the sup over the domain of f ⊙ ψ with ψ the density of the
sup-measure.  The Sugeno integral is sup_α min(α, μ{f ≥ α}) with μ the
Lebesgue product measure, taken exactly for the empirical measure of
midpoint samples: sugeno_from_sorted on one sorted sample, _sugeno_scan on
an unsorted one, and sugeno_prefix_blocks for all the nested blocks
F[:a, :b] of one sample grid at once (one sort plus 2-D prefix counts, with
every crossing test an integer compare of a count against a per-value pass
count).  _sugeno_scan is the one selection path: two cuts from a strided
subsample bracket the crossing rank, and one pass over the samples counts
the cuts and keeps only the values between them, which alone are sorted; a
pass is repeated only when a cut misses.  sugeno_integral_2d feeds it row
bands of its grid, evaluated as they are read, so its memory is O(band)
rather than O(grid²); sugeno_from_samples feeds it an array in memory as
one band.  All three give the bits of a full sort.

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
    BAND_ELEMENTS,
    DEFAULT_LEVEL_SET_GRID,
    DEFAULT_MAX_DEPTH,
    DEFAULT_SUP_LEVELS,
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
    sup_scan_2d,
)
from .semiring import SUP_PLUS, SaturationFlags, Semiring, pseudo_mul


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
        ts = np.linspace(0.0, 1.0, samples)
        vals = np.broadcast_to(np.asarray(self(ts), dtype=float), ts.shape)
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
    """sup_x f(x) ⊙ ψ(x) over 2^DEFAULT_SUP_LEVELS + 1 nodes of [low, high].

    The weighted values go through eval_nodes, so f may take floats only;
    failed and non-finite nodes are skipped, as in sup_scan_2d; -inf if all fail.
    """
    if psi is None:
        psi = unit_psi(s)
    xs = np.linspace(low, high, 2**DEFAULT_SUP_LEVELS + 1)
    vals = eval_nodes(lambda x: pseudo_mul(s, f(x), psi(x)), xs)
    return float(np.max(vals, where=np.isfinite(vals), initial=-math.inf))


def sup_integral_2d(s: Semiring, f, psi: PsiDensity | None = None,
                    r: Rect = UNIT_SQUARE, levels: int = DEFAULT_SUP_LEVELS,
                    flags: SaturationFlags | None = None) -> float:
    """Iterated sup-integral: sup_x ( (sup_y f(x,y) ⊙ ψ(y)) ⊙ ψ(x) ).

    ⊙ is monotone, so the iterated sup equals the joint sup of the weighted
    surface f(x,y) ⊙ ψ(y) ⊙ ψ(x); sup_scan_2d scans it.
    """
    if psi is None:
        psi = unit_psi(s)
    return sup_scan_2d(lambda x, y: psi_weighted(s, f(x, y), psi(x), psi(y), flags), r, levels)


def _raised(f, power: float):
    """f(x, y) ** power, taken on f's own result before grid_eval broadcasts it.

    A term in x alone is raised once per row, not once per node.  The power
    is an in-place `**=` on an owned float64 array, as on a whole grid:
    numpy's scalar-exponent fast paths (2 → square) run, with the same bits
    per node.  A non-finite value stays non-finite (and is dropped later),
    except under a negative power, which would make inf finite; there failed
    values become NaN first.
    """

    def raised(*point):
        vals = np.asarray(f(*point), dtype=float)
        if power < 0.0:
            vals = _nan_for_failed(vals)
        if not vals.flags.owndata:
            vals = vals.copy()
        vals **= power
        return vals

    return raised


def sugeno_integral_2d(f, r: Rect = UNIT_SQUARE,
                       grid: int = DEFAULT_LEVEL_SET_GRID, power: float = 1.0) -> float:
    """Sugeno integral sup_α min(α, μ({f^power ≥ α} ∩ r)) for the empirical measure.

    f^power (see _raised) is sampled on the grid × grid midpoint cells in
    row bands of BAND_ELEMENTS nodes (quadrature.grid_eval), which
    _sugeno_scan reads one at a time, so no grid-sized array is held.  Failed
    samples and non-finite powers (a negative base with a fractional power,
    an overflow) are dropped.  The bracket subsample is evaluated on its own
    nodes (eval_nodes); its bits need not match the grid's, as every cut is
    tested on the band values.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if power != 1.0:
        f = _raised(f, power)
    xs, ys = cell_midpoints(r.x_low, r.x_high, grid), cell_midpoints(r.y_low, r.y_high, grid)
    rows = max(1, BAND_ELEMENTS // grid)
    return _sugeno_scan(
        lambda: (grid_eval(f, xs[i:i + rows], ys) for i in range(0, grid, rows)),
        lambda nodes: eval_nodes(f, xs[nodes // grid], ys[nodes % grid]),
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


def _sugeno_value(k_star: int, cell_area: float, following) -> float:
    """max(k*·cell, v_(k*+1)), following being v_(k*+1), or None past the last rank."""
    best = k_star * cell_area
    if following is not None:
        best = max(best, float(following))
    return float(best)


def sugeno_from_sorted(descending: np.ndarray, cell_area: float) -> float:
    """Exact Sugeno integral of the empirical measure: max_k min(v_(k), k·cell).

    v_(k) − k·cell decreases in k, so min(v_(k), k·cell) is k·cell up to the
    crossing rank k* = max{k : v_(k) ≥ k·cell} and v_(k) after it; the maximum
    is max(k*·cell, v_(k*+1)).  k* is found by bisection over ranks, so no
    array the size of the sample is allocated.
    """
    k_star = _crossing_rank(descending, cell_area, 0, descending.size)
    return _sugeno_value(k_star, cell_area,
                         descending[k_star] if k_star < descending.size else None)


def sugeno_from_samples(values: np.ndarray, cell_area: float) -> float:
    """sugeno_from_sorted of the finite values sorted descending: _sugeno_scan of one band."""
    flat = _nan_for_failed(np.asarray(values, dtype=float).ravel())
    return _sugeno_scan(lambda: (flat,), lambda nodes: flat[nodes],
                        flat.size, values.shape[-1], cell_area)


def _sugeno_scan(bands, subsample, nodes: int, side: int, cell_area: float) -> float:
    """sugeno_from_sorted of the finite values of bands(), without a full sort.

    bands() yields the values of nodes nodes, NaN where one failed, in arrays
    of any shape, the same values on every call; subsample(flat) gives the
    values at the flat node indices flat (rows of side nodes).

    A cut {v > t} or {v ≥ t} with c members bounds the crossing rank k*: its
    c-th largest value is at least t and every value outside it at most t,
    so c·cell ≤ t gives k* ≥ c (a lower cut) and c·cell > t gives k* ≤ c (an
    upper cut).  Between a lower cut L and an upper cut U lie the ranks
    c_L+1 … c_U, held by the members of U outside L.  Only those are sorted,
    and k* is bisected among them; v_(k*+1) is the next of them or, when
    k* = c_U, the largest value outside U.

    The cuts come from a strided subsample, one node in about isqrt(nodes)/4
    with the stride coprime to side so that every column of a sample grid is
    represented.  Its crossing rank, with each finite value standing for
    nodes/sampled nodes (failed ones included, so a half-failed grid is no
    worse a guess), guesses k*.  One pass over the bands counts a strict cut
    {v > t_hi} about isqrt(subsample)/8 subsample ranks above the guess and
    an inclusive one {v ≥ t_lo} as far below, keeps the values between them
    and the largest value below t_lo.  If the upper probe lands below k*
    (its cut is an upper one), it becomes t_lo and t_hi moves out four times
    as far, and likewise down; each miss costs another pass.  A probe past
    either end of the subsample takes the trivial cut (c = 0 above, every
    value below), which cannot miss; with both trivial every value lies
    between them, a full sort.  When both probes land on one tied value t
    the values between are {v = t}, which is bisected as a constant without
    being kept or sorted.  Fewer than 256 nodes (a stride below 4), or a
    cell_area that is not positive, take the trivial cuts.  Memory is
    O(band) plus the values between the cuts.
    Each rank is tested as sugeno_from_sorted tests it, and the value depends
    only on the multiset of finite values, so it is the same bits.
    """
    t_hi, t_lo = math.inf, -math.inf
    stride = math.isqrt(nodes) // 4
    if stride >= 4 and cell_area > 0.0:
        while math.gcd(stride, side) != 1:
            stride += 1
        sub = subsample(np.arange(0, nodes, stride))
        sampled = sub.size
        sub = np.sort(sub[~np.isnan(sub)])[::-1]
        m = sub.size
        guess = _crossing_rank(sub, nodes / sampled * cell_area, 0, m)
        # the subsample between the trivial cuts' thresholds: ends[i + 1] = sub[i]
        ends = np.concatenate(([math.inf], sub, [-math.inf]))

        def probe(i):
            return ends[min(max(i + 1, 0), m + 1)]

        up = down = max(1, math.isqrt(m) // 8)   # subsample ranks from the guess
        t_hi, t_lo = probe(guess - 1 - up), probe(guess + down)
    while True:
        c_hi = c_lo = 0
        kept, below = [], -math.inf
        for v in bands():
            above = v > t_hi
            upper = v >= t_lo
            c_hi += np.count_nonzero(above)
            c_lo += np.count_nonzero(upper)
            # fmax skips the NaN of failed nodes
            below = max(below, np.fmax.reduce(v, axis=None, where=~upper, initial=-math.inf))
            if t_lo < t_hi:
                upper ^= above          # the members of the upper cut outside the lower
                kept.append(v[upper])
        # a probe that misses is a cut of the other kind, tighter than the
        # other probe's: it takes that one's place, and its own side moves out
        if c_hi * cell_area > t_hi:
            up *= 4
            t_lo, t_hi = t_hi, probe(guess - 1 - up)
        elif c_lo * cell_area <= t_lo:
            down *= 4
            t_hi, t_lo = t_lo, probe(guess + down)
        else:
            break

    if t_lo == t_hi:
        # only a strict lower and an inclusive upper cut share a threshold:
        # the values between are the tie {v = t}
        between = np.broadcast_to(t_lo, (c_lo - c_hi,))
    else:
        between = np.sort(np.concatenate(kept))[::-1]
    k_star = _crossing_rank(between, cell_area, c_hi, c_lo)
    if k_star < c_lo:
        following = between[k_star - c_hi]
    else:
        following = None if below == -math.inf else below
    return _sugeno_value(k_star, cell_area, following)


# entries of the int64 table that one bincount fills before it is narrowed
# into sugeno_prefix_blocks' count table
_SLAB_ENTRIES = 2**14


def _pass_counts(values: np.ndarray, cell_area: float, total: int, dtype) -> np.ndarray:
    """#{K ∈ [0, total] : fl(K·cell) ≤ v} for every v, in dtype (which holds total + 1).

    fl(K·cell) is nondecreasing in K, so the count is q + 1 for the largest
    passing K = q, and 0 when K = 0 already fails.  The correctly rounded
    quotient v/cell has its floor at the floor r of the real quotient or at
    r + 1, and q is r or r + 1, so floor(v/cell), clipped to [−1, total], is
    q after one step up and one step down, each tested with the same
    floating-point product K·cell that sugeno_from_sorted forms.
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


def sugeno_prefix_blocks(F: np.ndarray, row_ends, col_ends, cell_area: float) -> np.ndarray:
    """sugeno_from_sorted of every block F[:row_ends[i], :col_ends[j]], from one sort.

    F holds finite samples; the ends are nondecreasing and cell_area > 0.  The
    samples are sorted once, descending, and the ranks cut into chunks of L
    (n for an n × n grid).  A sample's band on each axis is the number of
    block ends at or below its index, so it lies in block (i, j) iff its bands
    are ≤ (i, j); counting samples by (chunk, row band, column band) and
    summing along all three axes gives K, the size of every block's part of
    every rank prefix that ends a chunk.

    Every test is an integer compare on narrow arrays.  Each sample value v
    gets its pass count Q(v) = #{K ∈ [0, total] : fl(K·cell) ≤ v}
    (_pass_counts), so K·cell ≤ v iff K < Q(v), and v < k·cell iff
    k ≥ Q(v), for the very floating-point products a block's own sort would
    test.  Counts, ranks and pass counts share the narrowest unsigned type
    that holds total + 1 (uint16 up to 65,534 samples); the count table is
    filled from one bincount per slab of chunks and summed by in-place slice
    adds (_prefix_sums), so no int64 table is held.

    A block element's own rank is at most K at its chunk's end and its value
    at least the chunk's smallest value, so the whole chunk passes the test
    v_(k) ≥ k·cell while K·cell does not exceed that smallest value; from the
    first chunk c₀ where it does, no later element passes.  The crossing rank
    k* is therefore found inside c₀, for all blocks at once, from the block
    mask and a running count (one contiguous row of L ranks per block); the
    first element of c₀ that fails is v_(k*+1) (if none fails, the next one
    lies below K·cell and the value is k*·cell).  These are the k* and the
    v_(k*+1) that each block's own sort would give, so the values are the
    same bits.  Tied values are one number in any order, so the sort need not
    be stable.
    """
    row_ends = np.asarray(row_ends, dtype=np.intp)
    col_ends = np.asarray(col_ends, dtype=np.intp)
    rows, cols = len(row_ends), len(col_ends)
    flat = F.ravel()
    total = flat.size
    if total == 0:
        return np.zeros((rows, cols))
    length = math.isqrt(total - 1) + 1
    chunks = -(-total // length)
    padded = chunks * length
    count_type = np.min_scalar_type(total + 1)
    band_type = np.min_scalar_type(max(rows, cols))
    order = np.argsort(flat)[::-1]
    # pass count and bands of each rank, padded to whole chunks with samples in no block
    passes = np.zeros(padded, dtype=count_type)
    passes[:total] = _pass_counts(flat, cell_area, total, count_type)[order]
    band_x = np.full(padded, rows, dtype=band_type)
    band_y = np.full(padded, cols, dtype=band_type)
    row_bands = np.searchsorted(row_ends, np.arange(F.shape[0]), side="right")
    col_bands = np.searchsorted(col_ends, np.arange(F.shape[1]), side="right")
    band_x[:total] = np.repeat(row_bands.astype(band_type), F.shape[1])[order]
    band_y[:total] = np.tile(col_bands.astype(band_type), F.shape[0])[order]

    plane = (rows + 1) * (cols + 1)
    slab = max(1, _SLAB_ENTRIES // plane)        # chunks per bincount
    offsets = np.repeat(np.arange(slab, dtype=np.intp) * plane, length)
    counts = np.empty((chunks, rows + 1, cols + 1), dtype=count_type)
    for start in range(0, chunks, slab):
        stop = min(start + slab, chunks)
        ranks = slice(start * length, stop * length)
        key = band_x[ranks].astype(np.intp)
        key *= cols + 1
        key += band_y[ranks]
        key += offsets[:key.size]
        counts[start:stop] = np.bincount(key, minlength=(stop - start) * plane).reshape(
            stop - start, rows + 1, cols + 1)
    _prefix_sums(counts)
    K = counts[:, :rows, :cols]

    # the smallest value of a chunk has its smallest pass count
    smallest = passes[np.minimum(np.arange(1, chunks + 1) * length, total) - 1]
    # K·cell > smallest holds from c₀ on, so c₀ counts the chunks before it
    c0 = (K < smallest[:, np.newaxis, np.newaxis]).sum(axis=0, dtype=count_type)
    out = K[-1] * cell_area                 # no crossing: every element passes
    bi, bj = np.nonzero(c0 < chunks)
    c0 = c0[bi, bj].astype(np.intp)
    before = np.where(c0 > 0, K[c0 - 1, bi, bj], 0)
    del counts, K

    def in_chunk(a):
        """The per-rank a of each crossing block's c₀, one row per block."""
        return a.reshape(chunks, length)[c0]

    member = in_chunk(band_x) <= bi.astype(band_type)[:, np.newaxis]
    member &= in_chunk(band_y) <= bj.astype(band_type)[:, np.newaxis]
    rank = member.astype(count_type)
    rank[:, 0] += before
    np.add.accumulate(rank, axis=1, out=rank)
    fails = rank >= in_chunk(passes)
    fails &= member
    first = fails.argmax(axis=1)
    blocks = np.arange(bi.size)
    failed = fails[blocks, first]
    k_star = np.where(failed, rank[blocks, first] - 1, rank[:, -1])
    best = k_star * cell_area
    following = flat[order[c0 * length + first]]
    # max(best, v) as sugeno_from_sorted takes it: best unless v is larger
    out[bi, bj] = np.where(failed & (following > best), following, best)
    return out
