"""Pseudo-integral operators: g-integrals, sup-integrals, 2-D Sugeno integral.

The g-integral reduces pseudo-integration to classical quadrature through the
generator:  ∫^⊕ f = g⁻¹(∫ g∘f).  The sup-integral is the idempotent (⊕=max)
counterpart: the sup over the domain of f ⊙ ψ with ψ the density of the
sup-measure.  The Sugeno integral is sup_α min(α, μ{f ≥ α}) with μ the
Lebesgue product measure, taken exactly for the empirical measure of
midpoint samples: sugeno_from_sorted on one sorted sample,
sugeno_from_samples on an unsorted one (a selection that sorts only the
values around the crossing rank), and sugeno_prefix_blocks for all the
nested blocks F[:a, :b] of one sample grid at once (one sort plus 2-D
prefix counts, with every crossing test an integer compare of a count
against a per-value pass count).  All three give the same values bit for
bit.

g_integral_1d_result and g_integral_2d_result also return the classical
integral's result; they raise DivergenceError when it diverges and
DomainError when generators.eval_inverse finds its value out of g's range.

Decreasing generators are accepted: the formulas use g and g⁻¹ directly, the
declared direction only matters for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as expr_mod
from .generators import Generator, RangeError, eval_inverse
from .quadrature import (
    DEFAULT_LEVEL_SET_GRID,
    DEFAULT_MAX_DEPTH,
    DEFAULT_SUP_LEVELS,
    DEFAULT_TOL,
    DIVERGED,
    UNIT_SQUARE,
    QuadratureResult,
    Rect,
    _nan_for_failed,
    eval_nodes,
    integrate_1d,
    integrate_2d,
    level_set_samples,
    sup_scan_2d,
)
from .semiring import SUP_PLUS, SaturationFlags, Semiring, pseudo_mul


class DivergenceError(ArithmeticError):
    """An inner classical integral diverged."""

    def __init__(self, message: str, result: QuadratureResult | None = None):
        super().__init__(message)
        self.result = result


class DomainError(ValueError):
    """g∘f left the generator's domain or range during integration."""

    def __init__(self, message: str, result: QuadratureResult | None = None):
        super().__init__(message)
        self.result = result


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

    def __call__(self, t):
        return expr_mod._evaluator(self.expr)(t, t)


def unit_psi(s: Semiring) -> PsiDensity:
    """Default density: the ⊙-unit constant (0 for sup_plus, else 1)."""
    if s.kind == SUP_PLUS:
        return PsiDensity.constant(0.0)
    return PsiDensity.constant(1.0 if s.unit is None else s.unit)


def _g_of_f(gen: Generator, f):
    """g∘f for an integrand of one or two variables, on floats or node arrays.

    A non-finite f is a failed node (NaN); on floats it raises DomainError.
    g is never applied to an infinite f, since g(±∞) may be finite.
    """

    def gf(*point):
        v = f(*point)
        if np.ndim(v) == 0:
            if not math.isfinite(v):
                raise DomainError(f"f{point!r} is not finite")
            return float(gen.forward(v))
        return gen.forward(_nan_for_failed(np.asarray(v, dtype=float)))

    return gf


def _g_integral(integrate, gen: Generator, f, *domain, tol: float,
                max_depth: int) -> tuple[float, QuadratureResult]:
    """g⁻¹ of the classical integral of g∘f, with that integral's result.

    integrate is integrate_1d (domain low, high) or integrate_2d (domain a
    Rect).  Raises DivergenceError if the integral diverges and DomainError
    if g⁻¹ is undefined at its value; both carry the result.
    """
    res = integrate(_g_of_f(gen, f), *domain, tol, max_depth)
    if res.status == DIVERGED:
        raise DivergenceError("inner classical integral diverged", res)
    try:
        return eval_inverse(gen, res.value), res
    except RangeError as e:
        raise DomainError(str(e), res) from e


def g_integral_1d_result(gen: Generator, f, low: float, high: float,
                         tol: float = DEFAULT_TOL,
                         max_depth: int = DEFAULT_MAX_DEPTH) -> tuple[float, QuadratureResult]:
    """g-integral with its inner quadrature result; raises on divergence or an undefined g⁻¹."""
    return _g_integral(integrate_1d, gen, f, low, high, tol=tol, max_depth=max_depth)


def g_integral_1d(gen: Generator, f, low: float, high: float,
                  tol: float = DEFAULT_TOL) -> float:
    """∫^⊕_[low,high] f dx = g⁻¹(∫ g(f(x)) dx)."""
    return g_integral_1d_result(gen, f, low, high, tol)[0]


def g_integral_2d_result(gen: Generator, f, r: Rect,
                         tol: float = DEFAULT_TOL,
                         max_depth: int = DEFAULT_MAX_DEPTH) -> tuple[float, QuadratureResult]:
    """2-D g-integral with its inner quadrature result; raises as g_integral_1d_result."""
    return _g_integral(integrate_2d, gen, f, r, tol=tol, max_depth=max_depth)


def g_integral_2d(gen: Generator, f, r: Rect, tol: float = DEFAULT_TOL) -> float:
    """∫∫^⊕_r f dtds = g⁻¹(∬_r g(f(s,t)) dt ds)."""
    return g_integral_2d_result(gen, f, r, tol)[0]


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


def sugeno_integral_2d(f, r: Rect = UNIT_SQUARE,
                       grid: int = DEFAULT_LEVEL_SET_GRID, power: float = 1.0) -> float:
    """Sugeno integral sup_α min(α, μ({f^power ≥ α} ∩ r)) for the empirical measure.

    f is sampled once on the grid × grid midpoint cells (one broadcast call,
    see quadrature.grid_eval) into an array this function owns, which is
    raised to power in place: `**=` keeps numpy's scalar-exponent fast paths
    (2 → square), the bits of f(x, y) ** power on an array.  Failed samples
    and non-finite powers (a negative base with a fractional power, an
    overflow) are dropped, and only copied out when there are any;
    sugeno_from_samples then finds the crossing rank by selection instead of
    a full sort.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    samples = level_set_samples(f, r, grid)
    with np.errstate(all="ignore"):  # what fails or overflows here is dropped
        if power != 1.0:
            samples **= power
        # a finite sum has no NaN or infinite term, so one pass rules them out
        if not np.isfinite(np.sum(samples)):
            samples = samples[np.isfinite(samples)]
    return sugeno_from_samples(samples, r.area / (grid * grid))


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
    """sugeno_from_sorted of the finite values sorted descending, without a full sort.

    A cut {v > t} or {v ≥ t} with c members bounds the crossing rank k*: its
    c-th largest value is at least t and every value outside it at most t,
    so c·cell ≤ t gives k* ≥ c (a lower cut) and c·cell > t gives k* ≤ c (an
    upper cut).  Between a lower cut L and an upper cut U lie the ranks
    c_L+1 … c_U, held by the members of U outside L.  Only those are sorted,
    and k* is bisected among them; v_(k*+1) is the next of them or, when
    k* = c_U, the largest value outside U.

    The cuts come from a strided subsample, one value in about isqrt(n)/4
    with the stride coprime to the last axis so that every column of a
    sample grid is represented.  Its own crossing rank guesses k*.  Cuts are
    probed about isqrt(subsample)/8 subsample ranks above and below the
    guess, and a probe that lands on the wrong side moves out four times as
    far, until it reaches the end of the subsample; then the trivial cut
    (c = 0 above, c = n below) stands in, and with both trivial the band is
    the whole sample, a full sort.  Ties have their own rule: the probe
    above the guess is strict (v > t) and the one below inclusive (v ≥ t),
    so when both land on one tied value t the band is {v = t}, which is
    bisected as a constant without being extracted or sorted.  Fewer than
    256 values (a stride below 4), or a cell_area that is not positive, are
    sorted whole.  Each rank is tested as sugeno_from_sorted tests it, so
    the value is the same bits.
    """
    flat = values.ravel()
    n = flat.size
    stride = math.isqrt(n) // 4
    if stride < 4 or not cell_area > 0.0:
        return sugeno_from_sorted(np.sort(flat)[::-1], cell_area)
    side = values.shape[-1]
    while math.gcd(stride, side) != 1:
        stride += 1
    sub = np.sort(flat[::stride])[::-1]
    m = sub.size
    guess = _crossing_rank(sub, n / m * cell_area, 0, m)
    width = max(1, math.isqrt(m) // 8)
    above, below = guess - 1 - width, guess + width   # subsample indices to probe
    # the best (count, threshold, members) lower and upper cut so far,
    # starting from the trivial ones, which need no mask
    lower, upper = (0, math.inf, None), (n, -math.inf, None)
    while True:
        probes = []
        if lower[2] is None and above is not None:
            probes.append((max(above, 0), True))
        if upper[2] is None and below is not None:
            probes.append((min(below, m - 1), False))
        if not probes:
            break
        for index, strict in probes:
            t = float(sub[index])
            mask = flat > t if strict else flat >= t
            c = int(np.count_nonzero(mask))
            if c * cell_area <= t:
                if c >= lower[0]:
                    lower = (c, t, mask)
            elif c <= upper[0]:
                upper = (c, t, mask)
        # a probe still missing its cut moves out, or stops at the end
        if lower[2] is None and above is not None:
            above = None if above <= 0 else guess - 1 - 4 * (guess - 1 - above)
        if upper[2] is None and below is not None:
            below = None if below >= m - 1 else guess + 4 * (below - guess)

    (c_lo, t_lo, in_lower), (c_hi, t_hi, in_upper) = lower, upper
    if t_lo == t_hi:
        # only a strict lower and an inclusive upper cut share a threshold:
        # the band is the tie {v = t}
        band = np.broadcast_to(t_lo, (c_hi - c_lo,))
    else:
        inside = np.ones(n, dtype=bool) if in_upper is None else in_upper
        if in_lower is not None:
            inside = inside & ~in_lower
        band = np.sort(flat[inside])[::-1]
    k_star = _crossing_rank(band, cell_area, c_lo, c_hi)
    if k_star < c_hi:
        following = band[k_star - c_lo]
    elif c_hi < n:
        following = np.max(flat, where=~in_upper, initial=-math.inf)
    else:
        following = None
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
