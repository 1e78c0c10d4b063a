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
pointwise R ≤ f proof step both read it.  The public hardy_kernel_g and the
right-hand side use adaptive quadrature directly.  Exact for polynomial data,
O(h⁴) otherwise.

The sup-kernel is the ψ-weighted running sup
R(x,y) = sup_{s≤x,t≤y} f(s,t)⊙ψ(t)⊙ψ(s): the idempotent analogue of the
averaging operator (the 1/(xy) normalization cancels against the sup-measure
of the rectangle, which the proof chain of the sup theorem equates with xy).
Reports note this convention.  sup_kernel_grid forms it, and the check's
maxima from it, in one pass over cache-sized row bands of the grid.  Both
kernel grids retry failed nodes on the axes once, BOUNDARY_INSET inward
(quadrature.grid_eval_inward); a failed interior node makes the check not
evaluable.

The Sugeno kernel R(x,y) = ∫∫_{[0,x]×[0,y]} f dμ² is exact for the
empirical measure of one n×n grid of midpoint samples: the values of all the
nested blocks behind the outer grid's midpoints come from one sort of the
samples plus 2-D prefix counts (pseudo_integral.sugeno_prefix_blocks), whose
crossing tests are integer compares on narrow count tables; the values are
the same bits as sorting every block.

The right-hand side combines the constant with the integral by ordinary real
multiplication, exactly as the worked examples do, not by ⊙.

Every g⁻¹ of a classical integral goes through generators.eval_inverse, so
one range rule holds in the g check and in all three branches of the p ≤ 1
remark_diagnostics (0<p<1, p<0, p=0): a side whose integral diverges, or
whose g⁻¹ is undefined, leaves the report not evaluable with the reason as
its last note.  A check whose f fails to evaluate is not evaluable too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import expr as expr_mod
from .generators import Generator, RangeError, eval_inverse, make_generator, outside_range
from .pseudo_integral import (
    DivergenceError,
    DomainError,
    PsiDensity,
    g_integral_2d_result,
    psi_weighted,
    sugeno_from_samples,
    sugeno_integral_2d,
    sugeno_prefix_blocks,
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
)
from .semiring import SaturationFlags, Semiring, parse_semiring

# verdict tolerances: shield quadrature noise without masking real violations
VERDICT_REL = 1e-9
VERDICT_ABS = 1e-12
SUGENO_SLACK = 1e-6
# nodes per row band of the sup kernel: 2^14 floats are 128 KiB, so a band
# and its few temporaries stay in cache and no grid-sized array is made
SUP_BAND_ELEMENTS = 2**14

G_HARDY = "g_hardy"
SUP_HARDY = "sup_hardy"
SUGENO_HARDY = "sugeno_hardy"
CLASSICAL = "classical"

CHECK_KINDS = (G_HARDY, SUP_HARDY, SUGENO_HARDY, CLASSICAL)
DIRECTIONS = {G_HARDY: "le", SUP_HARDY: "le", SUGENO_HARDY: "ge", CLASSICAL: "lt"}


class HypothesisError(ValueError):
    """A theorem hypothesis is violated (e.g. p outside the admissible range)."""


def record_to_dict(record) -> dict:
    """A dataclass record as JSON-ready data, one key per field in field order.

    Tuples become lists, dicts are sorted by key, and values with their own
    to_dict (scenarios) use it.
    """
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if hasattr(value, "to_dict"):
            value = value.to_dict()
        elif isinstance(value, (list, tuple)):
            value = list(value)
        elif isinstance(value, dict):
            value = dict(sorted(value.items()))
        out[f.name] = value
    return out


def record_from_dict(cls, d: dict):
    """Inverse of record_to_dict for flat records; absent keys keep their defaults."""
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
class HardyReport:
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

    def to_dict(self) -> dict:
        return record_to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "HardyReport":
        return record_from_dict(cls, d)


def _not_evaluable(kind: str, p: float, constant: float, statuses: dict, note: str,
                   lhs=None, rhs_integral=None, rhs=None) -> HardyReport:
    """The report of a check whose sides cannot be compared, with the reason as its note."""
    return HardyReport(kind=kind, p=p, lhs=lhs, rhs_integral=rhs_integral, constant=constant,
                       rhs=rhs, holds=None, direction=DIRECTIONS[kind], statuses=statuses,
                       notes=[note], not_evaluable=True)


def _le_verdict(lhs: float, rhs: float) -> bool:
    return lhs <= rhs * (1.0 + VERDICT_REL) + VERDICT_ABS


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

    @property
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
        d = {
            "f": self.f_src,
            "kind": self.check_kind,
            "p": self.p,
            "domain": self.domain.as_list(),
        }
        if self.gen_spec is not None:
            d["g"] = self.gen_spec
        if self.semiring_spec is not None:
            d["semiring"] = self.semiring_spec
        if self.psi_src is not None:
            d["psi"] = self.psi_src
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "HardyScenario":
        dom = d.get("domain", [0.0, 1.0, 0.0, 1.0])
        return cls(
            f_src=d["f"],
            check_kind=d["kind"],
            p=float(d["p"]),
            gen_spec=d.get("g"),
            semiring_spec=d.get("semiring"),
            psi_src=d.get("psi"),
            domain=Rect(*[float(v) for v in dom]),
        )


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
    """R(x,y) = (1/(xy)) ∫∫^⊕_{[0,x]×[0,y]} f, via adaptive quadrature."""
    if not (0.0 < x <= 1.0 and 0.0 < y <= 1.0):
        raise ValueError("hardy_kernel_g requires 0 < x, y <= 1")
    value, _ = g_integral_2d_result(gen, f, Rect(0.0, x, 0.0, y), tol)
    return value / (x * y)


class GKernelGrid:
    """Prefix g-integrals P = ∬_{[0,x]×[0,y]} g∘f on a graded grid over [0,X]×[0,Y].

    Nodes are x_i = X·(i/M)³: they pack toward the axes and the substitution
    Jacobian 9XY·u²v² vanishes there, so integrals of R-based integrands need
    no boundary values of R.  R = g⁻¹(P)/(xy), with P clamped to g's range, is
    formed once on the M² interior nodes (i, j ≥ 1); the lhs integral and the
    pointwise R ≤ f check both read it.  clipped flags a P outside the slack
    of generators.outside_range; the rule is monotone in P, so testing the
    smallest and the largest P decides it for all.
    """

    def __init__(self, gen: Generator, f, x_high: float, y_high: float, panels: int = 256):
        if panels % 2 != 0 or panels < 8:
            raise ValueError("panels must be even and >= 8")
        self.gen = gen
        self.u = np.linspace(0.0, 1.0, panels + 1)
        self.h = 1.0 / panels
        self.x = x_high * self.u**3
        self.y = y_high * self.u**3
        self.jac = 9 * x_high * y_high * np.outer(self.u**2, self.u**2)
        self.fv = grid_eval_inward(f, self.x, self.y)
        if not np.all(np.isfinite(self.fv)):
            raise DomainError("f failed to evaluate on the kernel grid")
        W = np.asarray(gen.forward(self.fv), dtype=float)
        if not np.all(np.isfinite(W)):
            raise DomainError("g∘f is not finite on the kernel grid")
        inner = cumulative_simpson(W * self.jac, self.h, axis=1)
        self.prefix = cumulative_simpson(inner, self.h, axis=0)
        self.clipped = (outside_range(gen, float(self.prefix.min()))
                        or outside_range(gen, float(self.prefix.max())))
        pref = np.clip(self.prefix[1:, 1:], gen.range_low, gen.range_high)
        self.R = np.asarray(gen.inverse(pref), dtype=float) / np.outer(self.x[1:], self.y[1:])

    def integral_of_g_of_R_pow(self, p: float) -> float:
        """Classical value ∬ g(R^p) dxdy over [0,X]×[0,Y] (Simpson on the grid)."""
        values = np.asarray(self.gen.forward(self.R ** p), dtype=float)
        if not np.all(np.isfinite(values)):
            raise DomainError("g(R^p) is not finite on the kernel grid")
        integrand = np.zeros_like(self.prefix)
        integrand[1:, 1:] = values
        w = _simpson_weights(len(self.u), self.h)
        return float(w @ (integrand * self.jac) @ w)

    def pointwise_max(self) -> tuple[float, tuple[float, float]]:
        """max of R − f over the interior nodes and its location."""
        diff = self.R - self.fv[1:, 1:]
        i, j = np.unravel_index(np.argmax(diff), diff.shape)
        return float(diff[i, j]), (float(self.x[i + 1]), float(self.y[j + 1]))


def _simpson_weights(n_nodes: int, h: float) -> np.ndarray:
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * h / 3.0


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
    statuses: dict[str, str] = {}

    try:
        rhs_integral, rhs_quad = g_integral_2d_result(
            gen, lambda s, t: f(s, t) ** p, scn.domain, config.quad_tol,
            config.max_depth,
        )
        statuses["rhs"] = rhs_quad.status
    except (DivergenceError, DomainError) as e:
        # the inner integral diverged, or g⁻¹ is undefined at its value
        return _not_evaluable(G_HARDY, p, constant, {"rhs": e.result.status}, str(e))

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
    rhs = constant * rhs_integral
    return HardyReport(
        kind=G_HARDY, p=p, lhs=lhs, rhs_integral=rhs_integral, constant=constant,
        rhs=rhs, holds=_le_verdict(lhs, rhs), direction="le",
        pointwise_max=pw_max, pointwise_location=pw_loc,
        statuses=statuses, notes=notes,
    )


def sup_kernel_grid(s: Semiring, f, psi: PsiDensity, domain: Rect, level: int, p: float,
                    flags: SaturationFlags | None = None):
    """The sup check's maxima of R, the ψ-weighted running sup of f over [0,x]×[0,y].

    One pass over row bands of the (2^level+1)² grid, SUP_BAND_ELEMENTS
    nodes each, so no array is grid-sized.  Returns max(R − f), its (x, y),
    max R^p ⊙ ψ(y) ⊙ ψ(x), max f^p ⊙ ψ(y) ⊙ ψ(x) and whether f < 0 somewhere;
    raises DomainError if f fails at a node.  The bits are those of the whole
    grid: a band carries the column maxima on from the rows above before its
    row maxima, as the two accumulates over the grid do, the pointwise max
    keeps np.argmax's first location, and a max is exact in any order.
    """
    n = 2**level + 1
    xs = np.linspace(domain.x_low, domain.x_high, n)
    ys = np.linspace(domain.y_low, domain.y_high, n)
    # ψ(x) as a column and ψ(y) as a row, ready to broadcast against a band
    psix = np.broadcast_to(np.asarray(psi(xs), dtype=float), xs.shape)[:, np.newaxis]
    psiy = np.broadcast_to(np.asarray(psi(ys), dtype=float), ys.shape)[np.newaxis, :]
    rows = max(1, SUP_BAND_ELEMENTS // n)
    column_max = np.full(n, -np.inf)    # of the weighted surface, over the rows so far
    best, negative, lhs, rhs = None, False, [], []
    for start in range(0, n, rows):
        band = slice(start, start + rows)
        F = grid_eval_inward(f, xs[band], ys)
        if not np.all(np.isfinite(F)):
            raise DomainError("f failed to evaluate on the sup grid")
        negative = negative or bool(np.any(F < 0))
        # the running maxima overwrite the weighted band; down the columns a
        # maximum per row is the accumulate's own step, at a third of its time
        R = psi_weighted(s, F, psix[band], psiy, flags)
        for i, row in enumerate(R):
            np.maximum(R[i - 1] if i else column_max, row, out=row)
        column_max = R[-1].copy()
        np.maximum.accumulate(R, axis=1, out=R)
        diff = R - F
        k = np.unravel_index(np.argmax(diff), diff.shape)
        # np.argmax's first-location rule across bands: a later band wins only if greater
        if best is None or diff[k] > best[0]:
            best = (float(diff[k]), (float(xs[start + k[0]]), float(ys[k[1]])))
        # R and F are not needed past here, so they are raised to p in place
        R **= p
        F **= p
        lhs.append(np.max(psi_weighted(s, R, psix[band], psiy, flags)))
        rhs.append(np.max(psi_weighted(s, F, psix[band], psiy, flags)))
    return *best, float(np.max(lhs)), float(np.max(rhs)), negative


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
    if negative:
        notes.append("f takes negative values: theorem hypotheses not met")
    rhs = constant * rhs_integral
    if flags.saturated:
        notes.append(
            f"saturation: {flags.add_saturations} add / {flags.mul_saturations} mul clamps"
        )
    return HardyReport(
        kind=SUP_HARDY, p=p, lhs=lhs, rhs_integral=rhs_integral, constant=constant,
        rhs=rhs, holds=_le_verdict(lhs, rhs), direction="le",
        pointwise_max=pointwise_max, pointwise_location=location,
        statuses={"lhs": CONVERGED, "rhs": CONVERGED}, notes=notes,
    )


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

    lhs_integral = sugeno_integral_2d(f, scn.domain, grid=config.sugeno_lhs_grid, power=p)
    lhs = lhs_integral ** (1.0 / (2.0 * p + 1.0))

    # outer midpoints (i+1/2)/m align exactly with sample-cell boundaries
    ends = stride * np.arange(m) + stride // 2
    R = sugeno_prefix_blocks(F, ends, ends, scn.domain.area / (n * n))
    xs = [(i + 0.5) / m * X for i in range(m)]
    ys = [(j + 0.5) / m * Y for j in range(m)]
    # a Python-float pow per element: numpy's array pow can differ by an ulp
    h_vals = np.array([[(r / (x * y)) ** p for r, y in zip(row, ys)]
                       for row, x in zip(R.tolist(), xs)])
    rhs_integral = sugeno_from_samples(h_vals, scn.domain.area / (m * m))
    rhs = constant * rhs_integral
    return HardyReport(
        kind=SUGENO_HARDY, p=p, lhs=lhs, rhs_integral=rhs_integral, constant=constant,
        rhs=rhs, holds=bool(lhs >= rhs - SUGENO_SLACK), direction="ge",
        statuses={"lhs": CONVERGED, "rhs": CONVERGED}, notes=notes,
    )


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
    lhs = lhs_res.value
    rhs_integral = rhs_res.value
    rhs = constant * rhs_integral
    margin = rhs - lhs
    return HardyReport(
        kind=CLASSICAL, p=p, lhs=lhs, rhs_integral=rhs_integral, constant=constant,
        rhs=rhs, holds=bool(margin > 0.0), direction="lt",
        statuses=statuses, notes=[f"strictness margin {margin!r}"],
    )


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
class DiagnosticsReport:
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

    def to_dict(self) -> dict:
        return record_to_dict(self)


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
        # the rhs first, so that a divergent rhs keeps its own note
        rhs_inner_val = None
        try:
            rhs_value, res = g_integral_2d_result(gen, lambda s, t: f(s, t) ** p, UNIT_SQUARE,
                                                  config.quad_tol, config.max_depth)
            rhs_inner_val = res.value
            lhs_value = eval_inverse(gen, lhs_inner)
        except (DivergenceError, DomainError, RangeError) as e:
            # no value to compare: the rhs diverged, or g⁻¹ is undefined at a side
            if isinstance(e, DomainError):
                rhs_inner_val = e.result.value
            return DiagnosticsReport(p=p, branch="0<p<1", constant=constant,
                                     constant_defined=defined, lhs_inner=lhs_inner,
                                     rhs_inner=rhs_inner_val, lhs_status=CONVERGED,
                                     notes=[*notes, str(e)])
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

    if p < 0.0:
        try:
            value, res = g_integral_2d_result(
                gen, lambda s, t: f(s, t) ** p, UNIT_SQUARE,
                config.quad_tol, config.max_depth,
            )
            return DiagnosticsReport(
                p=p, branch="p<0", constant=None, constant_defined=False,
                lhs_value=value, lhs_status=res.status,
                inequality_fails=None,
                notes=["lhs integral converged unexpectedly"],
            )
        except DivergenceError:
            return DiagnosticsReport(
                p=p, branch="p<0", constant=None, constant_defined=False,
                lhs_status=DIVERGED, inequality_fails=True,
                notes=["the lhs integral does not converge"],
            )
        except DomainError as e:  # g⁻¹ is undefined at the lhs inner integral
            return DiagnosticsReport(p=p, branch="p<0", constant=None, constant_defined=False,
                                     lhs_status=e.result.status, notes=[str(e)])

    # p == 0: both sides reduce to the pseudo-integral of f⁰ ≡ 1;
    # the criterion checked is the asserted ∫∫^⊕ f ≥ 1
    try:
        value, res = g_integral_2d_result(gen, f, UNIT_SQUARE, config.quad_tol, config.max_depth)
    except (DivergenceError, DomainError) as e:
        # the integral diverged, or g⁻¹ is undefined at its value
        return DiagnosticsReport(p=0.0, branch="p=0", constant=1.0, constant_defined=True,
                                 lhs_status=e.result.status, notes=[str(e)])
    return DiagnosticsReport(
        p=0.0, branch="p=0", constant=1.0, constant_defined=True,
        criterion_value=value, criterion_met=bool(value >= 1.0),
        lhs_status=res.status,
        inequality_fails=not bool(value >= 1.0),
        notes=["criterion ∫∫^⊕ f ≥ 1 is asserted, not derived"],
    )
