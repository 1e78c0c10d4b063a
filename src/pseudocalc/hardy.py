"""Hardy kernels, Hardy constants, and the four inequality verifiers.

Checks:

    g_hardy       ∫∫^⊕ R^p ≤ (p/(p-1))^{2p} ∫∫^⊕ f^p          (g-integrals, p>1)
    sup_hardy     same shape with iterated sup-integrals          (p>1)
    sugeno_hardy  (∫∫ f^p dμ²)^{1/(2p+1)} ≥ (4/5)^{16p/(9(2p+1))} ∫∫ (R/xy)^p dμ²
                  with Sugeno integrals                           (p≥1)
    classical     (p/(p-1))^p ∫ f^p > ∫ (F/x)^p on [low,high]     (p>1)

The g-kernel is R(x,y) = (1/(xy)) ∫∫^⊕_{[0,x]×[0,y]} f.  One prefix-grid
class, GKernelGrid, holds 4th-order cumulative Simpson prefix integrals of
g∘f on a cubic-graded tensor grid (it concentrates nodes near the axes where
monomial integrands have unbounded derivatives, and its Jacobian vanishes on
the axes, so the 1/(xy) factor needs no boundary handling).  The grid forms R
once on its interior nodes; the check's double integral of R^p and the
pointwise R ≤ f proof step both read it.  It works in four buffers held for
one panel count at a time (about 2.1 MB at the default 256 panels): the two
Simpson passes run in place, and every other stage over row bands of
BAND_ELEMENTS nodes, so a check allocates no grid-sized array, and every
figure has the bits of the whole-grid arrays.  The public
hardy_kernel_g and the right-hand side use adaptive quadrature directly.
Exact for polynomial data, O(h⁴) otherwise.

The sup-kernel is the ψ-weighted running sup
R(x,y) = sup_{s≤x,t≤y} f(s,t)⊙ψ(t)⊙ψ(s): the idempotent analogue of the
averaging operator (the 1/(xy) normalization cancels against the sup-measure
of the rectangle, which the proof chain of the sup theorem equates with xy).
Reports note this convention.  sup_kernel_grid forms it, and the check's
maxima from it, in one pass over cache-sized row bands of the grid.  A
weighted band that is nondecreasing along its rows and columns, starts at or
above the column maxima of the rows above and holds no −0.0 is its own
running max, so its scan is skipped; under the unit ψ every campaign f
gives such bands.  Both
kernel grids retry failed nodes on the axes once, BOUNDARY_INSET inward
(quadrature.grid_eval_inward); a failed interior node makes the check not
evaluable.

The Sugeno kernel R(x,y) = ∫∫_{[0,x]×[0,y]} f dμ² is exact for the
empirical measure of one n×n grid of midpoint samples.  One sort of the
samples plus 2-D prefix counts bound every nested block's R between two rank
products (pseudo_integral.sugeno_block_bounds).  The right-hand side is one
Sugeno integral of h = (R/xy)^p, and the Sugeno integrals of the h bounds
bracket it: only the blocks whose h bounds meet that bracket [S_lo, S_hi]
(13.6 % of the 48² on average over the default campaign) are resolved exactly,
and the crossing is taken among them (pseudo_integral.sugeno_of_block_powers).
The value is the same bits as sorting every block and every h.

The right-hand side combines the constant with the integral by ordinary real
multiplication, exactly as the worked examples do, not by ⊙.

Every g⁻¹ of a classical integral goes through generators.eval_inverse, so
one range rule holds in the g check and in all three branches of the p ≤ 1
remark_diagnostics (0<p<1, p<0, p=0): a side whose integral diverges, or
whose g⁻¹ is undefined, leaves the report not evaluable with the reason as
its last note.  pseudo_integral.g_integral_2d returns that reason as a value
next to the missing one, and the checks read it; nothing is caught.  A check
whose f fails to evaluate, or whose kernel grid overflows (g∘f, or its prefix
integrals, not finite), is not evaluable too.

A report with both sides comes from one builder, _report: rhs is
constant · rhs_integral, and the verdict is the one of the kind's direction
(DIRECTIONS): "le" (g, sup) holds when lhs ≤ rhs·(1 + VERDICT_REL) +
VERDICT_ABS, "ge" (Sugeno) when lhs ≥ rhs − SUGENO_SLACK, and "lt"
(classical) when lhs < rhs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import expr as expr_mod
from .generators import Generator, RangeError, eval_inverse, make_generator, outside_range
from .pseudo_integral import (
    DomainError,
    PsiDensity,
    _power_of,
    g_integral_2d,
    psi_weighted,
    sugeno_integral_2d,
    sugeno_of_block_powers,
    unit_psi,
)
from .quadrature import (
    CONVERGED,
    DIVERGED,
    UNIT_SQUARE,
    Rect,
    cumulative_simpson,
    eval_nodes,
    grid_eval_inward,
    integrate_1d,
    integrate_batch,
    level_set_samples,
    row_bands,
)
from .semiring import G_GENERATED, SUP_PLUS, SaturationFlags, Semiring, parse_semiring

# verdict tolerances: shield quadrature noise without masking real violations
VERDICT_REL = 1e-9
VERDICT_ABS = 1e-12
SUGENO_SLACK = 1e-6

G_HARDY = "g_hardy"
SUP_HARDY = "sup_hardy"
SUGENO_HARDY = "sugeno_hardy"
CLASSICAL = "classical"

CHECK_KINDS = (G_HARDY, SUP_HARDY, SUGENO_HARDY, CLASSICAL)
DIRECTIONS = {G_HARDY: "le", SUP_HARDY: "le", SUGENO_HARDY: "ge", CLASSICAL: "lt"}


class HypothesisError(ValueError):
    """A theorem hypothesis is violated (e.g. p outside the admissible range)."""


class Record:
    """Base of the dataclass records: to_dict gives JSON-ready data, one key per
    field in field order.

    Tuples become lists, dicts are sorted by key, and values with their own
    to_dict (scenarios) use it.  from_dict is the inverse for flat records;
    absent keys keep their defaults.
    """

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if hasattr(value, "to_dict"):
                value = value.to_dict()
            elif isinstance(value, (list, tuple)):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(sorted(value.items()))
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, d: dict):
        kwargs = {}
        for f in fields(cls):
            if f.name in d:
                value = d[f.name]
                if isinstance(value, list):
                    value = tuple(value) if "tuple" in str(f.type) else list(value)
                elif isinstance(value, dict):
                    value = dict(value)
                kwargs[f.name] = value
        return cls(**kwargs)


@dataclass
class HardyConfig:
    quad_tol: float = 1e-8
    max_depth: int = 30             # adaptive refinement depth cap
    kernel_panels: int = 256        # graded prefix grid for the lhs and the R≤f check
    sup_level: int = 9              # 2^level+1 nodes per axis for sup checks
    sugeno_outer: int = 48          # outer Sugeno grid for the kernel side (4× as many samples)
    sugeno_lhs_grid: int = 1024     # grid for the f^p Sugeno side


DEFAULT_CONFIG = HardyConfig()


@dataclass
class HardyReport(Record):
    kind: str
    p: float
    lhs: float | None
    rhs_integral: float | None
    constant: float
    rhs: float | None
    holds: bool | None          # None when not evaluable (divergence)
    direction: str              # "le" (g/sup), "ge" (sugeno), "lt" (classical, strict)
    pointwise_max: float | None = None
    pointwise_location: tuple[float, float] | None = None
    statuses: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    not_evaluable: bool = False


def _not_evaluable(kind: str, p: float, constant: float, statuses: dict, note: str,
                   lhs=None, rhs_integral=None, rhs=None) -> HardyReport:
    """The report of a check whose sides cannot be compared, with the reason as its note."""
    return HardyReport(kind=kind, p=p, lhs=lhs, rhs_integral=rhs_integral, constant=constant,
                       rhs=rhs, holds=None, direction=DIRECTIONS[kind], statuses=statuses,
                       notes=[note], not_evaluable=True)


# the verdict of each direction, given lhs and rhs
_VERDICTS = {
    "le": lambda lhs, rhs: lhs <= rhs * (1.0 + VERDICT_REL) + VERDICT_ABS,
    "ge": lambda lhs, rhs: lhs >= rhs - SUGENO_SLACK,
    "lt": lambda lhs, rhs: lhs < rhs,
}


def _report(kind: str, p: float, lhs: float, rhs_integral: float, constant: float,
            statuses: dict, notes: list, **pointwise) -> HardyReport:
    """The report of a check whose sides both have values.

    rhs is constant · rhs_integral, and the verdict is the one of the kind's
    direction (DIRECTIONS, _VERDICTS).
    """
    direction = DIRECTIONS[kind]
    rhs = constant * rhs_integral
    return HardyReport(kind=kind, p=p, lhs=lhs, rhs_integral=rhs_integral, constant=constant,
                       rhs=rhs, holds=bool(_VERDICTS[direction](lhs, rhs)), direction=direction,
                       statuses=statuses, notes=notes, **pointwise)


# scenario field -> JSON key, in the order of the scenario's keys in a report
# (and of its `hardy --format csv` columns); g, semiring and psi appear when set
_SCENARIO_KEYS = {"f_src": "f", "check_kind": "kind", "p": "p", "domain": "domain",
                  "gen_spec": "g", "semiring_spec": "semiring", "psi_src": "psi"}


@dataclass(frozen=True)
class HardyScenario:
    """Bundle of check inputs. domain must be anchored at the origin for 2-D kinds;
    classical checks reuse (x_low, x_high) as the 1-D interval."""

    f_src: str
    check_kind: str
    p: float
    gen_spec: str | None = None
    semiring_spec: str | None = None
    psi_src: str | None = None
    domain: Rect = Rect(0.0, 1.0, 0.0, 1.0)

    def __post_init__(self):
        if self.check_kind not in CHECK_KINDS:
            raise ValueError(f"unknown check kind {self.check_kind!r}")
        expr_mod.parse(self.f_src)  # f must parse; evaluation errors surface later
        if not math.isfinite(self.p):
            raise ValueError("p must be finite")

    @functools.cached_property      # trees are immutable, so one parse serves every check
    def f(self) -> expr_mod.Expr:
        return expr_mod.parse(self.f_src)

    @property
    def generator(self) -> Generator:
        if self.gen_spec is None:
            raise ValueError("scenario has no generator")
        return make_generator(self.gen_spec)

    @property
    def semiring(self) -> Semiring:
        if self.semiring_spec is None:
            raise ValueError("scenario has no semiring")
        return parse_semiring(self.semiring_spec)

    @property
    def psi(self) -> PsiDensity | None:
        if self.psi_src is None:
            return None
        return PsiDensity.from_string(self.psi_src)

    def to_dict(self) -> dict:
        d = {key: getattr(self, name) for name, key in _SCENARIO_KEYS.items()}
        d["domain"] = self.domain.as_list()
        return {key: value for key, value in d.items() if value is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "HardyScenario":
        """The scenario of a JSON object; ValueError names what it lacks."""
        if not isinstance(d, dict):
            raise ValueError(f"a scenario is a JSON object, not {type(d).__name__}")
        missing = [key for key in ("f", "kind", "p") if key not in d]
        if missing:
            raise ValueError(f"the scenario lacks {', '.join(map(repr, missing))}")
        kwargs = {name: d[key] for name, key in _SCENARIO_KEYS.items() if key in d}
        kwargs["p"] = float(d["p"])
        if "domain" in d:
            kwargs["domain"] = Rect(*[float(v) for v in d["domain"]])
        return cls(**kwargs)


# --- constants ---------------------------------------------------------------


def hardy_constant(p: float) -> float:
    """(p/(p-1))^{2p}, the two-dimensional Hardy constant; always ≥ 1 for p>1.

    The ratio is formed first, so the evaluation lives in the log domain of
    pow: finite (no inf) for any p ≥ 1+1e-6 and exact on integer cases.
    """
    if p <= 1.0:
        raise HypothesisError(
            "hardy_constant requires p > 1; use remark_diagnostics for p <= 1"
        )
    return (p / (p - 1.0)) ** (2.0 * p)


def classical_hardy_constant(p: float) -> float:
    """(p/(p-1))^p, the one-dimensional classical constant."""
    if p <= 1.0:
        raise HypothesisError("classical constant requires p > 1")
    return (p / (p - 1.0)) ** p


def sugeno_hardy_constant(p: float) -> float:
    """(4/5)^{16p/(9(2p+1))}; valid for p ≥ 1."""
    if p < 1.0:
        raise HypothesisError("sugeno_hardy_constant requires p >= 1")
    return (4.0 / 5.0) ** (16.0 * p / (9.0 * (2.0 * p + 1.0)))


# --- kernels -----------------------------------------------------------------


def hardy_kernel_g(gen: Generator, f, x: float, y: float, tol: float = 1e-9) -> float:
    """R(x,y) = (1/(xy)) ∫∫^⊕_{[0,x]×[0,y]} f, via adaptive quadrature.

    Raises DomainError, with the g-integral's reason, where it has no value.
    """
    if not (0.0 < x <= 1.0 and 0.0 < y <= 1.0):
        raise ValueError("hardy_kernel_g requires 0 < x, y <= 1")
    value, _, reason = g_integral_2d(gen, f, Rect(0.0, x, 0.0, y), tol)
    if value is None:
        raise DomainError(reason)
    return value / (x * y)


@functools.lru_cache(maxsize=1)
def _kernel_buffers(panels: int) -> tuple[np.ndarray, ...]:
    """GKernelGrid's f, P, R and Simpson scratch, held for one panel count at a time."""
    n = panels + 1
    return tuple(np.empty(shape) for shape in ((n, n), (n, n), (panels, panels), n * panels))


class GKernelGrid:
    """Prefix g-integrals P = ∬_{[0,x]×[0,y]} g∘f on a graded grid over [0,X]×[0,Y].

    Nodes are x_i = X·(i/M)³: they pack toward the axes and the substitution
    Jacobian 9XY·u²v² vanishes there, so integrals of R-based integrands need
    no boundary values of R.  R = g⁻¹(P)/(xy), with P clamped to g's range, is
    formed once on the M² interior nodes (i, j ≥ 1); the lhs integral and the
    pointwise R ≤ f check both read it.  clipped flags a P outside the slack
    of generators.outside_range; the rule is monotone in P, so testing the
    smallest and the largest P decides it for all.

    A grid allocates no grid-sized array, so no check hands such arrays'
    pages back to the system and faults them in again.  Its state lives in
    four buffers held for one panel count at a time (_kernel_buffers, about
    2.1 MB at M = 256): fv, P, R and the scratch of the two cumulative
    Simpson passes, which run in place on P.  P is the lhs integrand
    afterwards, and the scratch holds R − f.  The other stages run over row
    bands of BAND_ELEMENTS nodes (f; g∘f·jac; g⁻¹ and ÷xy; g(R^p)·jac),
    with the Jacobian and xy formed per band.  Each node gets the float
    operations of the whole-grid arrays in the same order, so every figure
    keeps its bits.  A grid's arrays (fv, R) and methods are valid only
    until another grid of its size is made (whether or not that one raises),
    and the library is single-threaded.
    """

    def __init__(self, gen: Generator, f, x_high: float, y_high: float, panels: int = 256):
        if panels % 2 != 0 or panels < 8:
            raise ValueError("panels must be even and >= 8")
        self.fv, self._P, self.R, self._scratch = _kernel_buffers(panels)
        self.gen, self.h = gen, 1.0 / panels
        u = np.linspace(0.0, 1.0, panels + 1)
        self.x, self.y = x_high * u**3, y_high * u**3
        # a band's Jacobian 9XY·u_i²·u_j² is 9XY times its outer product
        self._scale, self._u2 = 9 * x_high * y_high, u**2
        for rows in row_bands(len(u), len(u)):
            self.fv[rows] = grid_eval_inward(f, self.x[rows], self.y)
        if not np.all(np.isfinite(self.fv)):
            raise DomainError("f failed to evaluate on the kernel grid")
        P = self._P
        with np.errstate(over="ignore", invalid="ignore"):   # an overflow is a DomainError below
            for rows in row_bands(len(u), len(u)):
                W = np.asarray(gen.forward(self.fv[rows]), dtype=float)
                if not np.all(np.isfinite(W)):
                    raise DomainError("g∘f is not finite on the kernel grid")
                self._times_jac(W, rows, self._u2, P)
            for axis in (1, 0):
                cumulative_simpson(P, self.h, axis, self._scratch)
        # an infinite W·jac leaves the prefixes that sum it infinite too, and
        # a NaN or an infinity is the min or the max
        low, high = float(P.min()), float(P.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            raise DomainError("prefix integrals of g∘f are not finite on the kernel grid")
        self.clipped = outside_range(gen, low) or outside_range(gen, high)
        np.clip(P[1:, 1:], gen.range_low, gen.range_high, out=self.R)
        for rows in row_bands(panels, panels):
            np.divide(np.asarray(gen.inverse(self.R[rows]), dtype=float),
                      np.multiply.outer(self.x[1:][rows], self.y[1:]), out=self.R[rows])

    def _times_jac(self, values: np.ndarray, rows: slice, u2: np.ndarray, out: np.ndarray):
        np.multiply(values, self._scale * np.multiply.outer(u2[rows], u2), out=out[rows])

    def integral_of_g_of_R_pow(self, p: float) -> float:
        """Classical value ∬ g(R^p) dxdy over [0,X]×[0,Y] (Simpson on the grid)."""
        # the prefix buffer: its border, the prefixes on the axes, is +0 already,
        # as 0·jac, so only the interior is written
        integrand, u2 = self._P, self._u2[1:]
        for rows in row_bands(len(u2), len(u2)):
            with np.errstate(over="ignore"):   # an overflow is the DomainError below
                values = np.asarray(self.gen.forward(self.R[rows] ** p), dtype=float)
            if not np.all(np.isfinite(values)):
                raise DomainError("g(R^p) is not finite on the kernel grid")
            self._times_jac(values, rows, u2, integrand[1:, 1:])
        w = np.r_[1.0, np.tile([4.0, 2.0], len(u2) // 2)[:-1], 1.0] * self.h / 3.0   # Simpson
        return float(w @ integrand @ w)

    def pointwise_max(self) -> tuple[float, tuple[float, float]]:
        """max of R − f over the interior nodes and its location."""
        diff = np.subtract(self.R, self.fv[1:, 1:],
                           out=self._scratch[:self.R.size].reshape(self.R.shape))
        i, j = np.unravel_index(np.argmax(diff), diff.shape)
        return float(diff[i, j]), (float(self.x[i + 1]), float(self.y[j + 1]))


# --- checks ------------------------------------------------------------------


def _require_origin_anchor(r: Rect):
    if r.x_low != 0.0 or r.y_low != 0.0:
        raise ValueError("Hardy checks require a domain anchored at the origin")


def check_hardy_g(scn: HardyScenario, config: HardyConfig = DEFAULT_CONFIG) -> HardyReport:
    """Verify the g-integral Hardy inequality for one scenario."""
    if scn.p <= 1.0:
        raise HypothesisError("g_hardy requires p > 1; use remark_diagnostics for p <= 1")
    _require_origin_anchor(scn.domain)
    gen = scn.generator
    f = expr_mod.as_function(scn.f)
    p = scn.p
    constant = hardy_constant(p)
    notes: list[str] = []
    rhs_integral, rhs_quad, reason = g_integral_2d(
        gen, lambda s, t: f(s, t) ** p, scn.domain, config.quad_tol, config.max_depth)
    statuses = {"rhs": rhs_quad.status}
    if rhs_integral is None:
        # the inner integral diverged, or g⁻¹ is undefined at its value
        return _not_evaluable(G_HARDY, p, constant, statuses, reason)

    try:
        kernel = GKernelGrid(gen, f, scn.domain.x_high, scn.domain.y_high,
                             config.kernel_panels)
        lhs = eval_inverse(gen, kernel.integral_of_g_of_R_pow(p))
        statuses["lhs"] = CONVERGED
        if np.any(kernel.fv < 0):
            notes.append("f takes negative values: theorem hypotheses not met")
        if kernel.clipped:
            notes.append("kernel prefix integrals clamped to the generator range")
    except (DomainError, RangeError) as e:
        # f or g(R^p) failed on the kernel grid, or g⁻¹ is undefined at the lhs
        return _not_evaluable(G_HARDY, p, constant, {**statuses, "lhs": DIVERGED}, str(e),
                              rhs_integral=rhs_integral, rhs=constant * rhs_integral)

    pw_max, pw_loc = kernel.pointwise_max()
    return _report(G_HARDY, p, lhs, rhs_integral, constant, statuses, notes,
                   pointwise_max=pw_max, pointwise_location=pw_loc)


def sup_kernel_grid(s: Semiring, f, psi: PsiDensity, domain: Rect, level: int, p: float,
                    flags: SaturationFlags | None = None):
    """The sup check's maxima of R, the ψ-weighted running sup of f over [0,x]×[0,y].

    One pass over row bands of the (2^level+1)² grid, BAND_ELEMENTS
    nodes each, so no array is grid-sized.  Returns max(R − f), its (x, y),
    max R^p ⊙ ψ(y) ⊙ ψ(x), max f^p ⊙ ψ(y) ⊙ ψ(x) and whether f < 0 somewhere;
    raises DomainError if f fails at a node.  The bits are those of the whole
    grid: a band carries the column maxima on from the rows above before its
    row maxima, as the two accumulates over the grid do, the pointwise max
    keeps np.argmax's first location, and a max is exact in any order.

    Under the unit ψ (ψ = s.unit at every node, with the carrier [0, 1]
    inside g's domain), a band whose f lies in [0, 1] is not raised to p:
    its max R^p ⊙ ψ ⊙ ψ is its largest R, R[-1, -1], raised and weighted
    alone, and its max f^p ⊙ ψ ⊙ ψ is its largest f, raised and weighted
    alone.  t ↦ t^p and ⊙ by the unit are nondecreasing there and clamp
    nothing, one value raised alone has the bits it has inside a band, and a
    positive max has the bits of every value equal to it.  A max of 0 (equal
    zeros may differ in sign) and every other band raise the whole band.
    Under suptimes and maxmin such a band is also its own weighted surface
    (F ⊙ 1 ⊙ 1 = F bit for bit), and under supplus, whose unit ψ is +0.0 at
    every node, it is F + 0.0 (no clamp, and −0.0 turns +0.0, as ⊙ does).

    A weighted band W is its own running max R, and the scan is skipped,
    when W is nondecreasing along its rows and its columns, W[0] is at least
    the column maxima carried in, and W holds no −0.0 (np.maximum keeps
    either of two equal zeros).  A NaN fails the comparisons; the cheap edge
    tests come first.  If W has F's values, R − f is +0.0 at every node, so
    the band's share of max(R − f) is +0.0 at its first node.
    """
    n = 2**level + 1
    xs = np.linspace(domain.x_low, domain.x_high, n)
    ys = np.linspace(domain.y_low, domain.y_high, n)
    # ψ(x) as a column and ψ(y) as a row, ready to broadcast against a band
    psix, psiy = psi.on(xs)[:, np.newaxis], psi.on(ys)[np.newaxis, :]
    unit = (s.unit is not None and (s.gen is None or s.gen.domain_low <= 0.0)
            and bool(np.all(psix == s.unit) and np.all(psiy == s.unit))
            and not (np.signbit(psix).any() or np.signbit(psiy).any()))
    column_max = np.full(n, -np.inf)    # of the weighted surface, over the rows so far
    best, negative, lhs, rhs = None, False, [], []
    # inf ⊙ 0 and overflows in the weighting are NaN or inf values, reported, not warned
    with np.errstate(all="ignore"):
        for band in row_bands(n, n):
            F = grid_eval_inward(f, xs[band], ys)
            f_low, f_high = F.min(), F.max()
            # a NaN node makes both NaN, an infinite one the min or the max
            if not (np.isfinite(f_low) and np.isfinite(f_high)):
                raise DomainError("f failed to evaluate on the sup grid")
            negative = negative or bool(f_low < 0)
            in_carrier = unit and f_low >= 0 and f_high <= 1
            # R starts as the weighted band W; under the unit ψ W has F's values:
            # F itself, or F + 0.0 under supplus (−0.0 turns +0.0, as ⊙ +0 does)
            same = in_carrier and s.kind != G_GENERATED
            R = ((F + 0.0 if s.kind == SUP_PLUS else F) if same
                 else psi_weighted(s, F, psix[band], psiy, flags))
            # a W nondecreasing along rows and columns, and from the column maxima
            # above, with no −0.0 (np.maximum keeps either zero), is its own
            # running max; the cheap edge tests turn most other bands away
            own = bool((R[0] >= column_max).all() and (R[-1, 1:] >= R[-1, :-1]).all()
                       and (R[1:, -1] >= R[:-1, -1]).all() and (R[1:] >= R[:-1]).all()
                       and (R[:, 1:] >= R[:, :-1]).all() and not np.signbit(R).any())
            if own:
                column_max = R[-1].copy()
            else:
                R = F.copy() if R is F else R       # the running maxima overwrite R
                column_max = _running_max(R, column_max)
            # R with F's values (F finite) makes R − F +0.0 at every node: its first wins
            diff = np.zeros((1, 1)) if own and same else R - F
            k = np.unravel_index(np.argmax(diff), diff.shape)
            # np.argmax's first-location rule across bands: a later band wins only if greater
            if best is None or diff[k] > best[0]:
                best = (float(diff[k]), (float(xs[band.start + k[0]]), float(ys[k[1]])))
            # R is a running max, so R[-1, -1] is the band's largest
            tops = (0.0, 0.0)
            if in_carrier:
                raised = _power_of(np.array([R[-1, -1], f_high]), p)
                tops = psi_weighted(s, raised, psix[band][:1], psiy[:, :1], flags)[0]
            # if R is F, the lhs raises a view of F, which _power_of copies
            for top, V, maxima in ((tops[0], F[:] if R is F else R, lhs), (tops[1], F, rhs)):
                if not top > 0:
                    # another band, or a max of 0 or NaN: V is not needed past
                    # here, so the whole band is raised to p in place
                    top = np.max(psi_weighted(s, _power_of(V, p), psix[band], psiy, flags))
                maxima.append(top)
    return *best, float(np.max(lhs)), float(np.max(rhs)), negative


def _running_max(R: np.ndarray, column_max: np.ndarray) -> np.ndarray:
    """R's running max from the column maxima above, in place; returns R's column maxima.

    Down the columns a maximum per row is the accumulate's own step, at a
    third of its time.
    """
    for i, row in enumerate(R):
        np.maximum(R[i - 1] if i else column_max, row, out=row)
    column_max = R[-1].copy()
    np.maximum.accumulate(R, axis=1, out=R)
    return column_max


def check_hardy_sup(scn: HardyScenario, config: HardyConfig = DEFAULT_CONFIG) -> HardyReport:
    """Verify the sup-integral Hardy inequality for one scenario."""
    if scn.p <= 1.0:
        raise HypothesisError("sup_hardy requires p > 1")
    _require_origin_anchor(scn.domain)
    s = scn.semiring
    psi = scn.psi or unit_psi(s)
    f = expr_mod.as_function(scn.f)
    p = scn.p
    constant = hardy_constant(p)
    flags = SaturationFlags()
    notes = [
        "sup kernel: psi-weighted running sup (the 1/(xy) normalization cancels "
        "against the sup-measure of the rectangle)",
        "rhs combines constant and integral by real multiplication",
    ]

    try:
        pointwise_max, location, lhs, rhs_integral, negative = sup_kernel_grid(
            s, f, psi, scn.domain, config.sup_level, p, flags
        )
    except DomainError as e:
        return _not_evaluable(SUP_HARDY, p, constant, {"lhs": DIVERGED}, str(e))
    # a NaN side (f^p of an f < 0 under a fractional p, or inf ⊙ 0) has no value to compare
    nan = {"lhs": math.isnan(lhs), "rhs": math.isnan(rhs_integral)}
    if any(nan.values()):
        return _not_evaluable(SUP_HARDY, p, constant,
                              {side: DIVERGED if v else CONVERGED for side, v in nan.items()},
                              "f^p is not real where f < 0" if negative else "a side is NaN",
                              lhs=None if nan["lhs"] else lhs,
                              rhs_integral=None if nan["rhs"] else rhs_integral)
    if negative:
        notes.append("f takes negative values: theorem hypotheses not met")
    if flags.saturated:
        notes.append(
            f"saturation: {flags.add_saturations} add / {flags.mul_saturations} mul clamps"
        )
    return _report(SUP_HARDY, p, lhs, rhs_integral, constant,
                   {"lhs": CONVERGED, "rhs": CONVERGED}, notes,
                   pointwise_max=pointwise_max, pointwise_location=location)


def check_hardy_sugeno(scn: HardyScenario, config: HardyConfig = DEFAULT_CONFIG) -> HardyReport:
    """Verify the Sugeno Hardy inequality (direction ≥, p ≥ 1)."""
    if scn.p < 1.0:
        raise HypothesisError("sugeno_hardy requires p >= 1")
    _require_origin_anchor(scn.domain)
    f = expr_mod.as_function(scn.f)
    p = scn.p
    constant = sugeno_hardy_constant(p)
    X, Y = scn.domain.x_high, scn.domain.y_high
    m = config.sugeno_outer
    stride = 4                      # f samples per outer cell along each axis
    n = stride * m
    F = level_set_samples(f, scn.domain, n)
    if not np.all(np.isfinite(F)):
        # midpoint samples never lie on the axes, so there is no inward retry
        return _not_evaluable(SUGENO_HARDY, p, constant, {"rhs": DIVERGED},
                              "f failed to evaluate on the Sugeno sample grid")
    notes = ["kernel Sugeno integrals use the empirical measure of midpoint samples"]
    if np.any(F < 0):
        notes.append("f takes negative values: theorem hypotheses not met")

    lhs_integral = sugeno_integral_2d(scn.f, scn.domain, grid=config.sugeno_lhs_grid, power=p)
    lhs = lhs_integral ** (1.0 / (2.0 * p + 1.0))

    # outer midpoints (i+1/2)/m align exactly with sample-cell boundaries
    ends = stride * np.arange(m) + stride // 2
    mids = (np.arange(m) + 0.5) / m
    xy = np.multiply.outer(mids * X, mids * Y)
    rhs_integral = sugeno_of_block_powers(F, ends, scn.domain.area / (n * n), xy, p,
                                          scn.domain.area / (m * m))
    return _report(SUGENO_HARDY, p, lhs, rhs_integral, constant,
                   {"lhs": CONVERGED, "rhs": CONVERGED}, notes)


def check_hardy_classical(f, p: float, low: float, high: float,
                          tol: float = 1e-9) -> HardyReport:
    """Classical baseline: (p/(p-1))^p ∫ f^p > ∫ (F/x)^p on [low, high], F(x)=∫₀ˣf."""
    if p <= 1.0:
        raise HypothesisError("classical Hardy requires p > 1")
    if not (0.0 < low < high):
        raise HypothesisError("requires 0 < low < high")
    constant = classical_hardy_constant(p)
    vals = eval_nodes(f, np.linspace(low, high, 101))
    if np.isnan(np.sum(vals)):
        return _not_evaluable(CLASSICAL, p, constant, {"rhs": DIVERGED},
                              f"f failed to evaluate on [{low}, {high}]")
    if np.any(vals < -1e-12):
        raise HypothesisError("classical Hardy requires f >= 0")
    if np.max(np.abs(vals)) <= 1e-12:
        raise HypothesisError("classical Hardy requires f not identically zero")

    def mean_pow(xs: np.ndarray) -> np.ndarray:
        # F(x) = ∫₀ˣ f for every node of the level, as one batch; a divergent
        # F(x) is a failed node
        F = integrate_batch(f, np.zeros(xs.size), xs, tol * 0.01)
        values = np.array([math.nan if r.status == DIVERGED else r.value for r in F])
        return (values / xs) ** p

    lhs_res = integrate_1d(mean_pow, low, high, tol)
    rhs_res = integrate_1d(lambda x: f(x) ** p, low, high, tol)
    statuses = {"lhs": lhs_res.status, "rhs": rhs_res.status}
    if DIVERGED in statuses.values():
        return _not_evaluable(CLASSICAL, p, constant, statuses, "divergent side",
                              lhs=lhs_res.value, rhs_integral=rhs_res.value)
    report = _report(CLASSICAL, p, lhs_res.value, rhs_res.value, constant, statuses, [])
    report.notes.append(f"strictness margin {report.rhs - report.lhs!r}")
    return report


def run_check(scn: HardyScenario, config: HardyConfig = DEFAULT_CONFIG) -> HardyReport:
    """Dispatch a scenario to its verifier."""
    if scn.check_kind == G_HARDY:
        return check_hardy_g(scn, config)
    if scn.check_kind == SUP_HARDY:
        return check_hardy_sup(scn, config)
    if scn.check_kind == SUGENO_HARDY:
        return check_hardy_sugeno(scn, config)
    f = expr_mod.as_function(scn.f)
    return check_hardy_classical(
        lambda x: f(x, 0.0), scn.p, scn.domain.x_low, scn.domain.x_high
    )


# --- the non-theorem regime (p ≤ 1) ------------------------------------------


@dataclass
class DiagnosticsReport(Record):
    p: float
    branch: str                     # "0<p<1" | "p<0" | "p=0"
    constant: float | None
    constant_defined: bool
    lhs_inner: float | None = None   # classical value before g⁻¹
    rhs_inner: float | None = None
    lhs_value: float | None = None   # after g⁻¹
    rhs_value: float | None = None
    lhs_status: str | None = None
    inequality_fails: bool | None = None
    criterion_value: float | None = None   # p=0 branch: ∫∫^⊕ f
    criterion_met: bool | None = None
    notes: list = field(default_factory=list)

    @property
    def not_evaluable(self) -> bool:
        """No side has a value: an integral diverged before one could be found, or
        g⁻¹ is undefined at it (the reason is the last note)."""
        return (self.inequality_fails, self.lhs_value, self.criterion_value) == (None, None, None)


def odd_denominator_rational(x: float, max_den: int = 1000,
                             tol: float = 1e-9) -> tuple[int, int] | None:
    """x as num/den in lowest terms with den odd, or None."""
    frac = Fraction(x).limit_denominator(max_den)
    if abs(float(frac) - x) > tol or frac.denominator % 2 == 0:
        return None
    return frac.numerator, frac.denominator


def signed_real_root(base: float, num: int, den: int) -> float:
    """base^{num/den} over the reals for odd den (e.g. (-1/5)^{1/3})."""
    if den % 2 == 0:
        raise ValueError("denominator must be odd")
    mag = abs(base) ** (num / den)
    if base < 0 and num % 2 == 1:
        return -mag
    return mag


def remark_diagnostics(gen: Generator, f, p: float,
                       config: HardyConfig = DEFAULT_CONFIG) -> DiagnosticsReport:
    """Diagnose why p ≤ 1 breaks the g-Hardy inequality (three branches)."""
    if p > 1.0:
        raise HypothesisError("remark_diagnostics covers the p <= 1 regime")
    if p == 1.0:
        raise HypothesisError("p = 1 boundary: the constant (p/(p-1))^{2p} is undefined")

    if 0.0 < p < 1.0:
        rat = odd_denominator_rational(2.0 * p)
        base = p / (p - 1.0)
        if rat is None:
            constant, defined = None, False
            notes = ["(p/(p-1))^{2p} is undefined over the reals "
                     "(2p has no odd-denominator rational form)"]
        else:
            constant = signed_real_root(base, *rat)
            defined = True
            notes = [f"constant via real root: ({base!r})^{{{rat[0]}/{rat[1]}}}"]
        try:
            kernel = GKernelGrid(gen, f, 1.0, 1.0, config.kernel_panels)
            lhs_inner = kernel.integral_of_g_of_R_pow(p)
        except DomainError as e:        # f or g(R^p) failed on the kernel grid
            return DiagnosticsReport(p=p, branch="0<p<1", constant=constant,
                                     constant_defined=defined, lhs_status=DIVERGED,
                                     notes=[*notes, str(e)])
        rhs_value, res, reason = g_integral_2d(gen, lambda s, t: f(s, t) ** p, UNIT_SQUARE,
                                               config.quad_tol, config.max_depth)
        rhs_inner_val = None if res.status == DIVERGED else res.value
        # the rhs first, so that a divergent rhs keeps its own note
        if reason is None:
            try:
                lhs_value = eval_inverse(gen, lhs_inner)
            except RangeError as e:
                reason = str(e)
        if reason is not None:
            # no value to compare: the rhs diverged, or g⁻¹ is undefined at a side
            return DiagnosticsReport(p=p, branch="0<p<1", constant=constant,
                                     constant_defined=defined, lhs_inner=lhs_inner,
                                     rhs_inner=rhs_inner_val, lhs_status=CONVERGED,
                                     notes=[*notes, reason])
        fails = (constant is None) or (constant * rhs_value < lhs_value)
        notes.append("right side is non-positive while the left side is positive"
                     if constant is not None and constant * rhs_value <= 0 < lhs_value else
                     "inequality direction checked against the recomputed sides")
        return DiagnosticsReport(
            p=p, branch="0<p<1", constant=constant, constant_defined=defined,
            lhs_inner=lhs_inner, rhs_inner=rhs_inner_val,
            lhs_value=lhs_value, rhs_value=rhs_value,
            lhs_status=CONVERGED, inequality_fails=fails, notes=notes,
        )

    # p < 0: the lhs ∫∫^⊕ f^p, which the remark says diverges.  p = 0: both
    # sides reduce to the pseudo-integral of f⁰ ≡ 1, and the criterion checked
    # is the asserted ∫∫^⊕ f ≥ 1
    value, res, reason = g_integral_2d(gen, (lambda s, t: f(s, t) ** p) if p < 0.0 else f,
                                       UNIT_SQUARE, config.quad_tol, config.max_depth)
    if p < 0.0:
        diag = DiagnosticsReport(p=p, branch="p<0", constant=None, constant_defined=False,
                                 lhs_value=value, lhs_status=res.status, notes=[reason])
        if value is not None:
            diag.notes = ["lhs integral converged unexpectedly"]
        elif res.status == DIVERGED:
            diag.inequality_fails, diag.notes = True, ["the lhs integral does not converge"]
        return diag
    met = None if value is None else bool(value >= 1.0)
    return DiagnosticsReport(
        p=0.0, branch="p=0", constant=1.0, constant_defined=True,
        criterion_value=value, criterion_met=met, lhs_status=res.status,
        inequality_fails=None if met is None else not met,
        notes=[reason] if met is None else ["criterion ∫∫^⊕ f ≥ 1 is asserted, not derived"],
    )
