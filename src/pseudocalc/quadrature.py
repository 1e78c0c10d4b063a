"""Classical numerical integration and grid evaluation on [0,1] and [0,1]².

One adaptive Simpson engine serves every classical integral.  It advances a
batch of independent integrals (each with its own limits, evaluation count,
status and partial sum) one refinement level at a time: all the panels still
active at a depth are evaluated in one integrand call, after the manner of
Gander & Gautschi, "Adaptive quadrature — revisited" (BIT 2000).  A panel is
accepted when its Richardson estimate |S₂ − S₁|/15 is within tol·s/2^depth;
otherwise it is split, up to max_depth.  An integral is converged when its
summed error estimate is within tol·s.  Its scale s = max(1, |(b − a)·f(m)|)
is the midpoint rule's estimate from its first interior node, after QUADPACK's
max(epsabs, epsrel·|I|) with both equal to tol (Piessens et al., 1983): an
integral of size 10⁶ is not refined to an absolute 10⁻⁸, and one within
[−1, 1] keeps the absolute tolerance.  The end values are left out of s: a
failed limit's retry value, or a steep but finite end like (x + 10⁻⁴)^−½'s,
is no sample of the integral's size and would loosen the tolerance past
what the error estimate vouches for.  integrate_1d is a batch of one.
integrate_batch serves integrals of one integrand with varying limits.

Graded restarts.  Where f ~ c·|x − limit|^a with a small or negative a, the
endpoint panel's error shrinks like h^(1+a) against an allowance that
shrinks like h, so plain refinement cannot settle it.  At RESTART_DEPTH
every panel at a limit that is still refining is fitted: a from its values
at the limit and at h/2 and h inward (of |f − f(limit)|, or of |f| where the
limit failed or |f| grows toward it), and again from h/4 and h/2.  Its
integral restarts on the substitution x = limit ± (b − a)·u^k, u ∈ [0, 1],
where the two fits agree within FIT_SPREAD (a power law), a > −1 and a is
not within SMOOTH_END of a non-negative integer (a smooth end), and the
panel would not settle before max_depth: an error 2^L times its allowance
takes about L/a more plain levels, and never settles where a ≤ 0.  k =
(m + 1)/(1 + a) makes the graded integrand f(x(u))·dx/du behave like u^m,
with m = GRADED_ORDER = 3 where k ≤ MAX_GRADING = 25 allows it, else the
largest m that does (x^−0.9: m = 1, k = 20; x^−0.5: k = 8); the cap keeps
BOUNDARY_INSET^k a normal float, so an end with a < −0.96 is not graded.
Where both ends ask, one map grades both: u ≤ 1/2 maps to
low + w₁·(2u)^k_low and u > 1/2 to high − w₂·(2(1 − u))^k_high, with
w₁·k_low = w₂·k_high so that dx/du is continuous at u = 1/2.  A restart
runs once, on what is left of the integral's budget, and the evaluations
spent before it count; an integral that never restarts keeps its nodes and
bits.  An end with a ≤ −1 is left to the endpoint probe and the capped
blow-up rule below.

integrate_2d iterates it (inner in t, outer in s, matching the dtds ordering
of the double integrals it serves; each inner integral and the outer one
restart graded by their own fits), and computes inner integrals ahead of
the outer engine, which shows it each level's nodes and panel ends first.
When a level asks for outer nodes whose inner integrals are not done yet,
one inner batch computes them together with those at the quarter nodes of
the next LOOKAHEAD outer levels below the level's panels, formed with the
engine's own float operations (on a graded outer level, formed in u and
mapped); results are kept by the outer node's exact value.  An inner
integral does not depend on the others in its batch, and
only the inner results the outer engine consumes count toward evaluations
and the status, so every value, error estimate, status and evaluation
count is the same as with one inner batch per outer level.  An inner
integral computed ahead gets SPECULATIVE_BUDGET evaluations instead of
EVAL_BUDGET; one that runs out, or diverges (and so may have run out as
well), is dropped, and from then on that 2-D integral computes only the
nodes its levels ask for.  As an inner level
costs a fixed handful of numpy calls (below), one batch for about three
outer levels is the saving.

Integrands are called on numpy arrays of nodes (eval_nodes); callables that
cannot take arrays are called once per node.  A node fails when the
integrand raises ArithmeticError or ValueError there or returns a non-finite
value.  A failed node at an integration limit is retried once, shifted
inward by BOUNDARY_INSET, so integrable endpoint singularities (x^{1/4},
x^{-1/2}) converge.  A failed interior node makes the integral divergent,
and so does a panel whose Simpson estimate overflows to ±inf (the node
values are finite, but their weighted sum is not): a panel fails when its
estimate is not finite, and an integral with a failed panel is divergent
even if it also ran out of its budget.  The engine runs under one
np.errstate per call, so an overflow adds no RuntimeWarning.  In
integrate_2d a divergent inner integral is a failed outer node, so an
edge where the integrand fails everywhere gets the same inward retry.

Divergence at a limit is read from the integrand's power law there.  A
limit that fails and comes back finite from its retry gets one probe at
PROBE_DISTANCE·(b − a) inside the same limit, and the integral is divergent
when the mass |x − limit|·|f| at the retry node is at least the mass at the
probe (up to rounding): |f| ~ |x − limit|^α with α ≤ -1.  The test is
scale-free, so x^{-1} and 1e-30·x^{-2} diverge while x^{-0.99} does not,
and ∬ (x*y)^(-2) is decided in 30 evaluations; a zero or failed probe
decides nothing.  The probe is evaluated through eval_nodes, under
np.errstate, so it adds no RuntimeWarning.  Every other integral refines
all its unsettled panels level by level, and a panel that reaches the depth
cap with a local error estimate above its tolerance budget makes the
integral divergent iff it also shows blow-up relative to the integral's
scale s (a sampled |f| > 1e12·s or a panel estimate > 1e8·s).  EVAL_BUDGET
bounds the evaluations of each integral (status max_refinement, with the
partial sum of the panels done so far).

Cost of a level: all the panels live in one table, one column per panel,
and a level is a fixed handful of numpy calls on it whatever the number of
panels: the quarter nodes, one integrand call, the Simpson pair, the accept
test and the split, which writes the refined panels' children into the
next level's table.  The integrand's values come back from eval_nodes with
failed nodes already NaN (one finiteness pass), and the engine adds no pass
of its own; a level with no NaN among them skips the failure test.  The
EVAL_BUDGET test and the divergence rule each sit behind a scalar trigger
and run only when it fires: the evaluations spent come within two per panel
of the budget, a panel is capped.  All the panels of a table share one
depth, a Python int, so the accept test compares with one float times each
panel's scale, and the endpoint fit runs at one level only.

Summation: each integral's accepted panel values (S₂ plus the Richardson
correction) are summed sequentially in order of their left endpoints, the
order of a depth-first traversal, so the value does not depend on how the
panels were batched.  One stable argsort of all the left ends and one
np.add.at into +0.0 accumulators do it: np.add.at adds in index order, as a
loop would, where a pairwise np.sum would not give the same bits.

Grids: grid_eval is the one tensor-grid evaluation behind every grid
engine.  It calls the (pointwise) f once on the column xs[:, None] and the
row ys[None, :] and broadcasts the result to the grid, so a monomial
x^a·y^b costs 2n pows and one n² multiply instead of 2n² pows, with the same
bits at every node; callables that reject that call get full coordinate
arrays, then one call per node.  The sup Hardy check
(hardy.sup_kernel_grid), the sup-integral (pseudo_integral.sup_integral_2d),
the Sugeno integral (pseudo_integral.sugeno_integral_2d) and the g-kernel
grid (hardy.GKernelGrid) call grid_eval on row bands of BAND_ELEMENTS nodes
(row_bands) instead of the whole grid: the sup check, the sup-integral and
the Sugeno integral hold O(band) memory, the sup scans in one pass (the
sup-integral then refines in 9×9 windows), the Sugeno integral in one pass
unless a cut of its bracket misses, each with the bits of the whole grid
(for the Sugeno integral, those of a full sort of its samples); the
g-kernel grid fills its held buffers band by band.
level_set_samples gives the whole grid of midpoint samples
(cell_midpoints) that the Sugeno Hardy kernel sorts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_DEPTH = 30
DEFAULT_LEVEL_SET_GRID = 2048

BOUNDARY_INSET = 1e-12
BLOWUP_VALUE = 1e12
BLOWUP_PANEL = 1e8
EVAL_BUDGET = 2_000_000
PROBE_DISTANCE = 2.0**-20  # of the endpoint probe from a limit, per unit of b − a
RESTART_DEPTH = 6  # depth at which an integral still refining a limit panel is refit and graded
GRADED_ORDER = 3  # m: a graded end behaves like u^m, where the cap on k allows it
MAX_GRADING = 25  # largest k: BOUNDARY_INSET^k stays a normal float
SMOOTH_END = 0.02  # a fitted exponent this close to a non-negative integer is a smooth end
FIT_SPREAD = 0.01  # most the fits over [0, h] and [0, h/2] may differ for a power law
BATCH_CHUNK = 1 << 15  # nodes per integrand call when a level batch is large
LOOKAHEAD = 2  # outer levels whose inner integrals integrate_2d computes ahead
SPECULATIVE_BUDGET = 1024  # evaluations of an inner integral computed ahead, ~one level's cost
# nodes per row band of the banded grid scans (the sup kernel, the
# sup-integral, the Sugeno integral): 2^14 floats are 128 KiB, so a band and
# its few temporaries stay in cache and no grid-sized array is made
BAND_ELEMENTS = 2**14

CONVERGED = "converged"
MAX_REFINEMENT = "max_refinement"
DIVERGED = "diverged"


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    status: str


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


def _as_float(v) -> float:
    try:
        return float(v)
    except (TypeError, ValueError):
        return math.nan


def _array_call(f, shape, *args) -> np.ndarray:
    """f(*args) as a new float array of the given shape that the caller owns.

    Raises whatever f raises, and ValueError if its result does not broadcast
    to shape.
    """
    vals = np.asarray(f(*args), dtype=float)
    if vals.shape != shape or not vals.flags.owndata:
        vals = np.array(np.broadcast_to(vals, shape))
    return vals


def _nan_for_failed(vals: np.ndarray) -> np.ndarray:
    # a finite sum has no NaN or infinite term; one pass, no temporary array
    if not np.isfinite(np.add.reduce(vals, axis=None)):
        vals = np.where(np.isfinite(vals), vals, np.nan)
    return vals


def eval_nodes(f, *coords: np.ndarray) -> np.ndarray:
    """f at the nodes given by equal-shape coordinate arrays; NaN marks a failed node.

    f is called once on the arrays.  A callable that cannot take arrays (it
    raises, or returns a value of another shape) is called once per node with
    Python floats instead.  The result is always a new array the caller owns,
    even when f hands back a coordinate array (a broadcast view in grid_eval).
    """
    shape = coords[0].shape
    with np.errstate(all="ignore"):
        try:
            vals = _array_call(f, shape, *coords)
        except Exception:  # whatever the reason, f is retried node by node
            vals = np.full(shape, np.nan)
            for i, point in enumerate(zip(*(c.ravel().tolist() for c in coords))):
                try:
                    vals.flat[i] = _as_float(f(*point))
                except (ArithmeticError, ValueError):
                    pass
        return _nan_for_failed(vals)


# rows of the panel table.  A panel is (owner, a, b, f(a), f(m), f(b), whole-
# panel estimate), and all the panels of a table have one depth; the level
# fills the other rows in place: the
# midpoint and quarter-point values, the half-panel estimates, and for a
# panel that is done its record, the rows [_OWNER, _VAL, _ERR, _A] that
# come first.  a, m, b and f(a), f(m), f(b) are adjacent, so a slice of two
# rows holds the left-half and the right-half operands of one operation
_OWNER, _VAL, _ERR, _A, _M, _B, _FA, _FM, _FB, _FLM, _FRM, _SL, _SR, _S0 = range(14)
_ROWS = _S0 + 1
_CHILD = np.array([_OWNER, _A, _B, _FA, _FM, _FB, _S0])
_LEFT_CHILD = np.array([_OWNER, _A, _M, _FA, _FLM, _FM, _SL])
_RIGHT_CHILD = np.array([_OWNER, _M, _B, _FM, _FRM, _FB, _SR])
# a limit panel's f at its limit and at h/2, h and h/4 from it, at the low end and at the high end
_FITS = np.array([[_FA, _FM, _FB, _FLM], [_FB, _FM, _FA, _FRM]])


def _grading(f0, f_half, f_whole, f_quarter, retried, excess, levels_left):
    """k of the map x = limit ± w·u^k for limit panels of width h, or 1.0 where an end is not graded.

    f0 is f at the limit (its retry value where it failed) and f_quarter,
    f_half, f_whole are f at h/4, h/2 and h from it.  The exponent a of
    |f − f(limit)| ~ |x − limit|^a, or of |f| where the limit failed or |f|
    grows toward it, is fitted over [0, h] and again over [0, h/2]; an end is
    graded where the two fits agree (a power law), a > −1 and a is not a
    non-negative integer (a smooth end), choosing k = (m + 1)/(1 + a) so that
    the graded integrand behaves like u^m.
    """
    base = np.where(retried | ((np.abs(f0) > np.abs(f_half)) & (np.abs(f_half) > np.abs(f_whole))), 0.0, f0)
    a, a_half = np.log2(np.abs([f_whole - base, f_half - base]) / np.abs([f_half - base, f_quarter - base]))
    m = np.minimum(GRADED_ORDER, np.floor(MAX_GRADING * (1.0 + a) - 1.0))
    k = (m + 1.0) / (1.0 + a)
    smooth = (a > -SMOOTH_END) & (np.abs(a - np.round(a)) < SMOOTH_END)
    # a panel whose error exceeds its allowance 2^L-fold settles in about L/a
    # more plain levels, and never where a ≤ 0: restart where that is past the cap
    slow = (a <= 0.0) | (np.log2(excess) > a * levels_left)
    graded = (np.abs(a - a_half) <= FIT_SPREAD) & (m >= 0.0) & (k > 1.0) & ~smooth & slow
    return np.where(graded, k, 1.0)


def _graded_map(low, high, k_low, k_high):
    """x(u) and dx/du of the map of [0, 1] onto [low, high] graded by k_low and k_high (arrays of K).

    Where one end is graded, x = end ± (high − low)·u^k runs from that end to
    the other.  Where both are, u ≤ 1/2 maps to x = low + w₁·(2u)^k_low and
    u > 1/2 to x = high − w₂·(2(1 − u))^k_high, with w₁·k_low = w₂·k_high so
    that dx/du is continuous at u = 1/2, a panel end at every level.  Each
    distance is formed from its own end, and a node that rounds onto its end
    while u is inside moves to the next float inward.
    """
    graded_low, both = k_low > 1.0, (k_low > 1.0) & (k_high > 1.0)
    first = np.where(graded_low, low, high)   # the end at u = 0
    w1 = np.where(both, (high - low) * k_high / (k_low + k_high), high - low)
    table = np.array([np.where(both, 0.5, 1.0), first, low + high - first,
                      np.where(graded_low, k_low, k_high), k_high, w1, high - low - w1])

    def to_x(u, j):
        t, e1, e2, k1, k2, w1, w2 = table[:, j]
        left = u <= t   # every u where t = 1
        span, end, other, k, w = (np.where(left, p, q) for p, q in
                                  ((t, 1.0 - t), (e1, e2), (e2, e1), (k1, k2), (w1, w2)))
        r = np.where(left, u, 1.0 - u) / span
        x = end + np.copysign(w * r**k, other - end)
        return np.where((x == end) & (r > 0.0), np.nextafter(end, other), x), k * w * r ** (k - 1.0) / span

    return to_x


# an overflow makes a Simpson estimate non-finite, which fails its panel, or a
# sum infinite; either shows in the results, so numpy is not asked to warn
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _adaptive(fk, low, high, tol: float, max_depth: int, budget=EVAL_BUDGET,
              ahead=None, scale=None) -> list[QuadratureResult]:
    """Adaptive Simpson estimates of ∫_low[k]^high[k], k < K, advanced level by level.

    fk(x, k) gives the integrand values at nodes x of the integrals k, as a
    new float array with NaN for failed nodes.  budget caps the evaluations
    of each integral: one cap for all, or an array of K.  ahead, if given, is
    called as ahead(x, lo, hi) before the first call and before each level's
    call evaluates the nodes x; lo and hi are the ends of the panels whose
    quarter nodes the next level evaluates if no panel is accepted.  In a
    graded restart of a batch of one, ahead gets the map from u to x as a
    fourth argument.  scale, given by a restart only, is each integral's
    tolerance scale, and a restart is not restarted again.
    """
    if not 0.0 < tol < math.inf:     # a NaN tol would accept no panel and refine to max_depth
        raise ValueError(f"tol must be a positive finite float, got {tol!r}")
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    K = low.size
    evals = np.zeros(K, dtype=np.int64)
    spent = 0  # evaluations of all K integrals: none of them has spent more
    least_budget = int(np.min(budget))

    def call(x, k):
        nonlocal spent
        v = fk(x, k) if x.size <= BATCH_CHUNK else np.concatenate(
            [fk(x[i:i + BATCH_CHUNK], k[i:i + BATCH_CHUNK]) for i in range(0, x.size, BATCH_CHUNK)])
        spent += x.size
        evals[:] += np.bincount(k, minlength=K)
        return v

    ks = np.arange(K)
    x = np.concatenate([low, high, 0.5 * (low + high)])
    if ahead is not None:
        ahead(x, low, high)
    v = call(x, np.concatenate([ks, ks, ks]))
    retry = np.flatnonzero(np.isnan(v[:2 * K]))
    if retry.size:
        # a failed limit is retried once, BOUNDARY_INSET inward.  Where that
        # comes back finite, one probe further in asks whether the mass
        # |x − limit|·|f| shrinks toward the limit, as it does for
        # |f| ~ |x − limit|^α with α > -1 only; where it does not, the limit
        # fails after all, and the integral diverges
        limit, k = x[retry], retry % K
        inward = np.where(retry < K, 1.0, -1.0)
        near = limit + inward * BOUNDARY_INSET
        v[retry] = fn = call(near, k)
        far = limit + inward * (PROBE_DISTANCE * (high - low)[k])
        probe = ~np.isnan(fn) & (np.abs(far - limit) > np.abs(near - limit))
        if probe.any():
            near_mass = np.abs((near - limit) * fn)[probe]
            far_mass = np.abs((far - limit)[probe] * call(far[probe], k[probe]))
            # a zero or failed probe is no evidence; the slack absorbs rounding
            diverges = (far_mass > 0.0) & (near_mass >= far_mass * (1.0 - 1e-9))
            v[retry[probe][diverges]] = np.nan
    fa, fb, fm = v[:K], v[K:2 * K], v[2 * K:]
    started = ~(np.isnan(fa) | np.isnan(fb) | np.isnan(fm))
    panels = np.zeros((_ROWS, K))
    panels[[_OWNER, _A, _B, _FA, _FM, _FB, _S0]] = (
        ks, low, high, fa, fm, fb, (high - low) / 6.0 * (fa + 4.0 * fm + fb))
    # the midpoint rule's estimate sets the scale: a failed limit's retry
    # value, or a steep but finite end, is no sample of the integral's size
    restart = scale is None
    scale = np.fmax(1.0, np.abs((high - low) * fm)) if restart else scale
    panels = panels[:, started]
    divergent, out_of_budget, restarted = np.zeros((3, K), dtype=bool)
    grading = np.ones((2, K))   # k at each integral's low and high end, where it restarts
    parts = []   # the records (owner, value s2 + err, |err|, left end) of the panels that are done
    depth = 0    # of every panel in the table

    while panels.shape[1]:
        owner = panels[_OWNER].astype(np.intp)
        if (spent + 2 * owner.size > least_budget
                and int(np.max(evals - budget)) + 2 * owner.size > 0):
            over = (evals + 2 * np.bincount(owner, minlength=K) > budget)[owner]
            if over.any():
                out_of_budget[owner[over]] = True
                panels, owner = panels[:, ~over], owner[~over]
                if not panels.shape[1]:
                    break
        n = owner.size
        a, m, b = panels[_A], panels[_M], panels[_B]
        np.multiply(a + b, 0.5, out=m)
        x = (panels[_A:_M + 1] + panels[_M:_B + 1]) * 0.5   # rows (a + m)/2 and (m + b)/2
        if ahead is not None:
            # the children: left ends a, m (rows _A, _M) and right ends m, b (rows _M, _B)
            ahead(x.ravel(), panels[_A:_M + 1].ravel(), panels[_M:_B + 1].ravel())
        v = call(x.ravel(), np.concatenate((owner, owner)))
        quarter = panels[_FLM:_FRM + 1]
        quarter[...] = v.reshape(2, n)
        # the Simpson pair: h/6·(f(a) + 4 f(a+h/4) + f(m)) on the left half, likewise on the right
        panels[_SL:_SR + 1] = (4.0 * quarter + panels[_FA:_FM + 1] + panels[_FM:_FB + 1]) * ((m - a) / 6.0)
        s2 = panels[_SL] + panels[_SR]
        err = (s2 - panels[_S0]) / 15.0
        np.add(s2, err, out=panels[_VAL])
        np.abs(err, out=panels[_ERR])
        allowed = tol * 0.5**depth * scale[owner]   # tol·s/2^depth
        accepted = panels[_ERR] <= allowed
        refine = ~accepted
        # a failed node makes its panel's Simpson estimate NaN and an overflow
        # makes it ±inf; a finite sum of the estimates rules both out
        if not np.isfinite(np.add.reduce(s2)):
            failed = ~np.isfinite(s2)
            divergent[owner[failed]] = True  # unresolvable interior singularity or overflow
            refine &= ~failed
        if depth >= max_depth and refine.any():
            # a capped panel that blows up, relative to its integral's scale,
            # makes its integral divergent
            peak = np.abs(panels[[_FA, _FM, _FB, _FLM, _FRM]]).max(axis=0)
            blowup = (peak > BLOWUP_VALUE * scale[owner]) | (np.abs(s2) > BLOWUP_PANEL * scale[owner])
            divergent[owner[refine & blowup]] = True
            accepted |= refine
            refine[:] = False
        if restart and depth == RESTART_DEPTH:
            # the limit panels still refining are fitted, low ends first, and an
            # integral restarts graded where the fit at either end asks for it
            ends = [np.flatnonzero(refine & (a == low[owner])), np.flatnonzero(refine & (b == high[owner]))]
            at, end = np.concatenate(ends), np.repeat([0, 1], [ends[0].size, ends[1].size])
            grading[end, owner[at]] = _grading(*panels[_FITS[end].T, at], np.isin(end * K + owner[at], retry),
                                               (panels[_ERR] / allowed)[at], max_depth - depth)
            restarted = (grading.max(axis=0) > 1.0) & ~divergent & ~out_of_budget
            refine &= ~restarted[owner]
        parts.append(panels[:_A + 1, accepted])
        # a refined panel gives way to its two halves, so each integral's panels stay in order
        split = panels[:, refine]
        panels = np.empty((_ROWS, 2 * split.shape[1]))
        panels[_CHILD, 0::2] = split[_LEFT_CHILD]
        panels[_CHILD, 1::2] = split[_RIGHT_CHILD]
        depth += 1

    restarted = np.flatnonzero(restarted)
    # each integral's terms added left to right from +0.0, as a loop over them
    # would: its panels partition its interval, so their left ends order them
    # depth-first, and np.add.at adds in index order (unbuffered) where np.sum
    # would add pairwise.  The sort is stable: a panel too narrow to split
    # leaves a zero-width half whose left end ties its neighbour's, and the
    # tie keeps the order in which the levels finished them
    sums = np.zeros((2, K))
    if parts:
        records = np.concatenate(parts, axis=1)
        order = np.argsort(records[_A], kind="stable")
        owner = records[_OWNER, order].astype(np.intp)
        np.add.at(sums[0], owner, records[_VAL, order])
        np.add.at(sums[1], owner, records[_ERR, order])
    results = []
    for total, error, count, over, failed, s in zip(*sums.tolist(), evals.tolist(), out_of_budget.tolist(),
                                                    (divergent | ~started).tolist(), scale.tolist()):
        status = CONVERGED if error <= tol * s else MAX_REFINEMENT
        # an integral that never started has no terms, so its total is 0.0
        if over or failed:
            error, status = math.inf, DIVERGED if failed else MAX_REFINEMENT
        results.append(QuadratureResult(total, error, count, status))
    if restarted.size:
        # a restart runs on the graded map with what is left of its budget;
        # the evaluations spent before it still count
        to_x = _graded_map(low[restarted], high[restarted], *grading[:, restarted])

        def graded(u, j):
            x, jac = to_x(u, j)
            return fk(x, restarted[j]) * jac

        first_x = lambda u: to_x(u, np.zeros(u.size, dtype=np.intp))[0]   # ahead serves a batch of one
        again = _adaptive(graded, np.zeros(restarted.size), np.ones(restarted.size), tol, max_depth,
                          np.broadcast_to(budget, K)[restarted] - evals[restarted],
                          ahead and (lambda u, lo, hi: ahead(u, lo, hi, first_x)), scale[restarted])
        for k, res in zip(restarted.tolist(), again):
            results[k] = replace(res, evaluations=results[k].evaluations + res.evaluations)
    return results


def integrate_batch(f, low, high, tol: float = DEFAULT_TOL,
                    max_depth: int = DEFAULT_MAX_DEPTH) -> list[QuadratureResult]:
    """Adaptive Simpson estimates of ∫_low[k]^high[k] f for each k, in one batch."""
    low, high = np.broadcast_arrays(np.atleast_1d(np.asarray(low, dtype=float)),
                                    np.asarray(high, dtype=float))
    if not np.all(low < high):
        raise ValueError("requires low < high")
    return _adaptive(lambda x, k: eval_nodes(f, x), low, high, tol, max_depth)


def integrate_1d(f, low: float, high: float, tol: float = DEFAULT_TOL,
                 max_depth: int = DEFAULT_MAX_DEPTH) -> QuadratureResult:
    """Adaptive Simpson estimate of ∫_low^high f with error estimate and status."""
    return integrate_batch(f, low, high, tol, max_depth)[0]


def integrate_2d(f, r: Rect, tol: float = DEFAULT_TOL,
                 max_depth: int = DEFAULT_MAX_DEPTH) -> QuadratureResult:
    """Iterated adaptive integration of ∫∫_r f(s,t) dt ds (inner in t, outer in s)."""
    inner_tol = tol * 0.1
    done = {}   # outer node -> the QuadratureResult of its inner integral
    speculate = True
    inner_evals = 0
    inner_worst = CONVERGED

    def inner_batch(x: np.ndarray, lo=None, hi=None, to_x=lambda u: u):
        # one inner batch for the outer nodes x not done yet and, while
        # speculating, the quarter nodes of the LOOKAHEAD levels below the
        # panels (lo, hi), formed as the outer engine forms them; on a graded
        # outer level all of them are formed in u and mapped by to_x
        nonlocal speculate
        todo = [node for node in dict.fromkeys(to_x(x).tolist()) if node not in done]
        if not todo:
            return
        wanted = len(todo)
        if speculate and lo is not None:
            for _ in range(LOOKAHEAD):
                m = (lo + hi) * 0.5
                todo += to_x(np.concatenate(((lo + m) * 0.5, (m + hi) * 0.5))).tolist()
                lo, hi = np.concatenate((lo, m)), np.concatenate((m, hi))
            todo = [node for node in dict.fromkeys(todo) if node not in done]
        s = np.array(todo)
        budget = np.where(np.arange(s.size) < wanted, EVAL_BUDGET, SPECULATIVE_BUDGET)
        results = _adaptive(lambda t, j: eval_nodes(f, s[j], t), np.full(s.size, r.y_low),
                            np.full(s.size, r.y_high), inner_tol, max_depth, budget)
        for i, (node, res) in enumerate(zip(todo, results)):
            if i >= wanted and res.error_estimate == math.inf:
                # out of its speculative budget, or divergent, which may have cut
                # its evaluations short as well: dropped
                speculate = False
            else:
                done[node] = res

    def outer_integrand(s: np.ndarray, _owner) -> np.ndarray:
        nonlocal inner_evals, inner_worst
        inner_batch(s)   # the retries at a limit, which come without a level
        results = [done[node] for node in s.tolist()]
        inner_evals += sum(res.evaluations for res in results)
        if any(res.status == MAX_REFINEMENT for res in results):
            inner_worst = MAX_REFINEMENT
        # a divergent inner integral is a failed node: retried inward at an edge, else divergent
        return _nan_for_failed(np.array([math.nan if res.status == DIVERGED else res.value
                                         for res in results]))

    outer = _adaptive(outer_integrand, [r.x_low], [r.x_high], tol, max_depth, ahead=inner_batch)[0]
    evaluations = inner_evals + outer.evaluations
    status = outer.status
    if status == CONVERGED and inner_worst == MAX_REFINEMENT:
        status = MAX_REFINEMENT
    return QuadratureResult(outer.value, outer.error_estimate, evaluations, status)


# --- grid machinery ---------------------------------------------------------


def row_bands(n_rows: int, n_cols: int) -> list[slice]:
    """Slices of consecutive rows, of BAND_ELEMENTS nodes each (at least one row)."""
    step = max(1, BAND_ELEMENTS // n_cols)
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def grid_eval(f, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Evaluate f on the tensor grid xs × ys; failed nodes become NaN.

    f is pointwise, so it is called once on the column xs[:, None] and the row
    ys[None, :] and its result broadcast to the grid: a term in x alone costs
    len(xs) evaluations, not len(xs)·len(ys), and each node gets the same bits
    as on full coordinate arrays.  If f rejects that call or returns a shape
    that does not broadcast to the grid, it gets eval_nodes' path instead:
    full (broadcast-view) coordinate arrays, then one call per node.  Either
    way the result is a new array the caller owns.
    """
    shape = (xs.size, ys.size)
    with np.errstate(all="ignore"):
        try:
            vals = _array_call(f, shape, xs[:, np.newaxis], ys[np.newaxis, :])
        except Exception:  # whatever the reason, f gets the full coordinate arrays
            X, Y = np.meshgrid(xs, ys, indexing="ij", copy=False)
            return eval_nodes(f, X, Y)
        return _nan_for_failed(vals)


def grid_eval_inward(f, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """grid_eval, with failed nodes on the axes retried once BOUNDARY_INSET inward.

    The grid engines' form of the adaptive engine's retry at its limits: a
    failed node with x = 0 or y = 0 is evaluated again with that coordinate
    at BOUNDARY_INSET.  Failed interior nodes stay NaN.
    """
    vals = grid_eval(f, xs, ys)
    # failed nodes are NaN, so a sum that is not NaN rules them out in one pass
    if np.isnan(np.sum(vals)):
        on_axis = (xs == 0.0)[:, np.newaxis] | (ys == 0.0)[np.newaxis, :]
        ix, iy = np.nonzero(np.isnan(vals) & on_axis)
        inset_x = np.where(xs == 0.0, BOUNDARY_INSET, xs)
        inset_y = np.where(ys == 0.0, BOUNDARY_INSET, ys)
        vals[ix, iy] = eval_nodes(f, inset_x[ix], inset_y[iy])
    return vals


def cell_midpoints(low: float, high: float, grid: int) -> np.ndarray:
    """The midpoints of the grid equal cells of [low, high]."""
    return low + (np.arange(grid) + 0.5) * ((high - low) / grid)


def level_set_samples(f, r: Rect, grid: int) -> np.ndarray:
    """Midpoint-cell samples of f on r (grid × grid), NaN where evaluation fails."""
    return grid_eval(f, cell_midpoints(r.x_low, r.x_high, grid),
                     cell_midpoints(r.y_low, r.y_high, grid))


def cumulative_simpson(values: np.ndarray, h: float, axis: int = -1,
                       scratch: np.ndarray | None = None) -> np.ndarray:
    """Fourth-order cumulative integral of sampled values on a uniform mesh, in place.

    values, a float64 array, must have an odd length (even panel count) along
    axis; it is overwritten by its integral and returned (integrate a copy to
    keep it).  Even-index prefixes use composite Simpson; odd-index prefixes
    add a half-panel three-point Newton-Cotes correction, keeping O(h⁴)
    accuracy at every node.  The two half-length temporaries live in
    scratch, a flat float64 array of at least values.size·(n−1)/n elements
    for n nodes along axis, or in a new one.  Each node gets the same float
    operations in the same order whatever the scratch or the memory layout.
    """
    v = np.moveaxis(values, axis, -1)
    n = v.shape[-1]
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd number of nodes (even panel count)")
    # the halves are laid out as values is, so each operation walks both in step
    half = list(values.shape)
    half[axis] = n // 2
    halves = np.empty((2, *half)) if scratch is None else scratch[:2 * math.prod(half)]
    blocks, odd = (np.moveaxis(part, axis, -1) for part in halves.reshape(2, *half))
    left, mid, right = v[..., 0:-2:2], v[..., 1:-1:2], v[..., 2::2]
    # even nodes: the Simpson rules h/3·((v[k-1] + 4v[k]) + v[k+1]), summed (a
    # float sum of two terms is the same in either order)
    np.multiply(4.0, mid, out=blocks)
    blocks += left
    blocks += right
    blocks *= h / 3.0
    # odd nodes: I[k] = I[k-1] + h/12·((5v[k-1] + 8v[k]) − v[k+1]), the
    # integral over [x_{k-1}, x_k] of the quadratic through k-1, k, k+1
    np.multiply(5.0, left, out=odd)
    odd += np.multiply(8.0, mid, out=mid)
    odd -= right
    odd *= h / 12.0
    v[..., 0] = 0.0
    np.cumsum(blocks, axis=-1, out=right)
    np.add(left, odd, out=mid)
    return values
