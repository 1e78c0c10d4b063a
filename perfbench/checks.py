"""Output checks made apart from the program.

Nothing here imports pseudocalc.  The integrands are rebuilt from the scenario
source text by a parser of the three fuzz families, evaluated with numpy, and
integrated by closed forms or by a quadrature written here (tensor
Gauss-Legendre on panels graded geometrically toward the axes, with spectral
prefix integrals for the Hardy kernel).  Each check returns a list of
problems; an empty list means the output is correct.

Tolerances come from the program's documented accuracy contract, not from its
current output:

* adaptive sides: the default ``quad_tol`` 1e-8 is an absolute bound on the
  classical integral before g⁻¹; ten times that, carried through the slope of
  g⁻¹, bounds the reported value.
* graded kernel grid (lhs of g checks): O(h⁴) with h = 1/256 for smooth data;
  the fractional powers x^a at the axes cost up to two orders, so the
  relative bound is h² ≈ 1.5e-5.
* Sugeno lhs: the empirical measure of midpoint samples, recomputed here
  exactly from a sort, matches the program's bisection to its 1e-9 step.  For
  the continuous measure a monotone level set's boundary crosses fewer than
  2n of the n² cells, so μ and the Sugeno value move by less than 2/n.
"""

from __future__ import annotations

import math
import re

import numpy as np

QUAD_TOL = 1e-8            # HardyConfig.quad_tol and the CLI's default tol
CLASSICAL_TOL = 1e-9       # check_hardy_classical's default tol
KERNEL_PANELS = 256        # HardyConfig.kernel_panels
SUGENO_LHS_GRID = 1024     # HardyConfig.sugeno_lhs_grid
CLI_SUGENO_GRID = 2048     # `pseudocalc integrate --sugeno` default grid
BISECTION_STEP = 1e-9      # resolution of the program's Sugeno bisection

ADAPTIVE_SLACK = 10.0 * QUAD_TOL
KERNEL_REL = 1.0 / KERNEL_PANELS**2
# R ≤ f holds exactly for nondecreasing f; the uniform 512-panel prefix grid
# behind the check is O(h⁴) away from the axes and the grid's first interior
# node sits 8 panels in, so allow h² there as well.
POINTWISE_TOL = 1.0 / 512**2
REL_EXACT = 1e-12          # quantities the program forms by plain arithmetic

_TERM = re.compile(r"^(?:([0-9.eE+-]+)\*)?x\^([0-9.eE+-]+)\*y\^([0-9.eE+-]+)$")
_AFFINE = re.compile(r"^([0-9.eE+-]+)\*\(x\+y\)/2$")


# --- the fuzz families --------------------------------------------------------

FAMILIES = ("monomial", "affine", "mixture")


def parse_family(src: str):
    """("affine", c), ("monomial", [(1, a, b)]) or ("mixture", [(c, a, b), ...])."""
    m = _AFFINE.match(src)
    if m:
        return "affine", float(m.group(1))
    terms = []
    for part in _split_terms(src):
        t = _TERM.match(part)
        if t is None:
            raise ValueError(f"not a fuzz-family source: {src!r}")
        c = float(t.group(1)) if t.group(1) else 1.0
        terms.append((c, float(t.group(2)), float(t.group(3))))
    return ("monomial" if src.startswith("x^") else "mixture"), terms


def _split_terms(src: str) -> list[str]:
    # numbers are float reprs, so '+' appears only between terms or in an
    # exponent such as 1e+20
    parts, start = [], 0
    for i, ch in enumerate(src):
        if ch == "+" and src[i - 1] not in "eE":
            parts.append(src[start:i])
            start = i + 1
    parts.append(src[start:])
    return parts


def evaluate(spec, x, y):
    kind, params = spec
    if kind == "affine":
        return params * (x + y) / 2
    total = 0.0
    for c, a, b in params:
        total = total + c * np.power(x, a) * np.power(y, b)
    return total


# --- generators as the program documents them ---------------------------------

GENERATORS = {
    # name: (g, g⁻¹, slope of g⁻¹)
    "identity": (lambda v: v, lambda u: u, lambda u: 1.0),
    "half": (lambda v: v / 2.0, lambda u: 2.0 * u, lambda u: 2.0),
    "sqrt": (np.sqrt, lambda u: u * u, lambda u: 2.0 * abs(u)),
}


def hardy_constant(p: float) -> float:
    return (p / (p - 1.0)) ** (2.0 * p)


def sugeno_constant(p: float) -> float:
    return (4.0 / 5.0) ** (16.0 * p / (9.0 * (2.0 * p + 1.0)))


# --- graded Gauss-Legendre quadrature -----------------------------------------


class GradedGauss:
    """Composite Gauss-Legendre on [0,1] with panels [r^{k+1}, r^k] toward 0.

    x^γ singularities at the origin are integrated to near machine precision.
    `prefix` gives ∫₀^{x_i} of sampled values at every node (spectral
    integration matrix inside a panel plus the sums of earlier panels).
    """

    def __init__(self, panels: int = 24, order: int = 20, ratio: float = 0.25):
        t, w = np.polynomial.legendre.leggauss(order)
        edges = np.concatenate(([0.0], ratio ** np.arange(panels - 1, -1, -1.0)))
        lo, hi = edges[:-1], edges[1:]
        half = (hi - lo) / 2.0
        self.x = ((lo + hi) / 2.0)[:, None] + half[:, None] * t[None, :]
        self.x = self.x.ravel()
        self.w = (half[:, None] * w[None, :]).ravel()
        self.half = half
        self.order = order
        self.panel_w = w
        # S[i, j] = ∫_{-1}^{t_i} ℓ_j
        vander = np.polynomial.legendre.legvander(t, order - 1)
        integ = np.empty_like(vander)
        for j in range(order):
            e = np.zeros(order)
            e[j] = 1.0
            integ[:, j] = np.polynomial.legendre.legval(
                t, np.polynomial.legendre.legint(e, lbnd=-1.0))
        self.cumulative = integ @ np.linalg.inv(vander)

    def integrate2(self, values: np.ndarray) -> float:
        return float(self.w @ values @ self.w)

    def prefix(self, values: np.ndarray, axis: int) -> np.ndarray:
        v = np.moveaxis(values, axis, 0)
        k, m = len(self.half), self.order
        blocks = v.reshape((k, m) + v.shape[1:])
        scale = self.half.reshape((k, 1) + (1,) * (v.ndim - 1))
        partial = np.einsum("ij,kj...->ki...", self.cumulative, blocks) * scale
        totals = np.einsum("j,kj...->k...", self.panel_w, blocks) * scale[:, 0]
        before = np.cumsum(totals, axis=0) - totals
        out = (partial + before[:, None]).reshape(v.shape)
        return np.moveaxis(out, 0, axis)


# --- g-generated Hardy check --------------------------------------------------


def g_reference(src: str, gen: str, p: float, q: GradedGauss) -> tuple[float, float]:
    """(lhs, rhs_integral) of the g-Hardy check, closed form where one exists."""
    spec = parse_family(src)
    kind, params = spec
    if kind == "monomial":
        _, a, b = params[0]
        if gen == "sqrt":
            rhs = (1.0 / ((a * p / 2 + 1) * (b * p / 2 + 1))) ** 2
            c = ((a / 2 + 1) * (b / 2 + 1)) ** 2
            lhs = (c ** (-p / 2) / (((a + 1) * p / 2 + 1) * ((b + 1) * p / 2 + 1))) ** 2
        else:
            rhs = 1.0 / ((a * p + 1) * (b * p + 1))
            lhs = 1.0 / (((a + 1) * (b + 1)) ** p * (a * p + 1) * (b * p + 1))
        return lhs, rhs
    if kind == "affine" and gen != "sqrt":
        # ∬ (x+y)^p = (2^{p+2} − 2)/((p+1)(p+2)); R = c(x+y)/4
        square = (2.0 ** (p + 2) - 2.0) / ((p + 1) * (p + 2))
        return (params / 4) ** p * square, (params / 2) ** p * square
    g, ginv, _ = GENERATORS[gen]
    X, Y = np.meshgrid(q.x, q.x, indexing="ij")
    F = evaluate(spec, X, Y)
    rhs = ginv(q.integrate2(g(F ** p)))
    # prefixes of a nonnegative integrand; rounding leaves ~-1e-70 at the
    # nodes nearest the origin, where the values themselves are ~1e-60
    P = np.maximum(q.prefix(q.prefix(g(F), axis=1), axis=0), 0.0)
    R = ginv(P) / (X * Y)
    lhs = ginv(q.integrate2(g(R ** p)))
    return float(lhs), float(rhs)


def _close(name, got, want, tol, problems):
    if got is None or not math.isfinite(got) or abs(got - want) > tol:
        problems.append(f"{name} {got!r} != {want!r} (tol {tol:.3g})")


def _adaptive_tol(gen: str, value: float) -> float:
    g, _, slope = GENERATORS[gen]
    return ADAPTIVE_SLACK * slope(float(g(value))) + REL_EXACT * abs(value)


def _common(report, constant: float, problems: list):
    if report.holds is not True:
        problems.append(f"verdict {report.holds!r}, expected holds")
    _close("constant", report.constant, constant, REL_EXACT * constant, problems)
    if report.rhs is not None and report.rhs_integral is not None:
        _close("rhs", report.rhs, constant * report.rhs_integral,
               REL_EXACT * abs(report.rhs), problems)


def check_g(src: str, gen: str, p: float, report, reference) -> list[str]:
    problems: list[str] = []
    _common(report, hardy_constant(p), problems)
    lhs, rhs = reference
    _close("rhs_integral", report.rhs_integral, rhs, _adaptive_tol(gen, rhs), problems)
    _close("lhs", report.lhs, lhs, KERNEL_REL * lhs, problems)
    if report.pointwise_max is None or report.pointwise_max > POINTWISE_TOL:
        problems.append(f"pointwise_max {report.pointwise_max!r} > {POINTWISE_TOL:.3g} (R <= f)")
    return problems


# --- Sugeno Hardy check ---------------------------------------------------------


def _monomial_mu(A: float, B: float, alpha: float) -> float:
    """Area of {x^A y^B ≥ alpha} in the unit square (A, B ≥ 0)."""
    if alpha <= 0.0:
        return 1.0
    if A == 0.0 and B == 0.0:
        return 1.0 if alpha <= 1.0 else 0.0
    if A == 0.0 or B == 0.0:
        return 1.0 - alpha ** (1.0 / max(A, B))
    x0 = alpha ** (1.0 / A)
    r = A / B
    if x0 <= 0.0:
        integral = 1.0 / (1.0 - r) if r < 1.0 else math.inf
    else:
        # ∫_{x0}^1 x^{-r} dx, stable near r = 1
        integral = -math.expm1((1.0 - r) * math.log(x0)) / (1.0 - r) if r != 1.0 else -math.log(x0)
    return (1.0 - x0) - alpha ** (1.0 / B) * integral


def sugeno_monomial(A: float, B: float) -> float:
    """The Sugeno value sup_α min(α, μ{x^A y^B ≥ α}): the root of μ(α) = α."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _monomial_mu(A, B, mid) >= mid:
            lo = mid
        else:
            hi = mid
    return lo


def sugeno_empirical(values: np.ndarray, cell: float) -> float:
    """Exact Sugeno value of the empirical measure: max_k min(v_(k), k·cell)."""
    v = np.sort(values, axis=None)[::-1]
    k = np.arange(1, v.size + 1) * cell
    return float(np.max(np.minimum(v, k)))


def _midpoint_samples(spec, grid: int, p: float) -> np.ndarray:
    mids = (np.arange(grid) + 0.5) / grid
    X, Y = np.meshgrid(mids, mids, indexing="ij")
    return evaluate(spec, X, Y) ** p


def _power_band(value: float, delta: float, q: float) -> tuple[float, float]:
    return max(value - delta, 0.0) ** q, min(value + delta, 1.0) ** q


def sugeno_reference(src: str, p: float) -> dict:
    spec = parse_family(src)
    grid = SUGENO_LHS_GRID
    ref = {"empirical": sugeno_empirical(_midpoint_samples(spec, grid, p), 1.0 / grid**2)}
    kind, params = spec
    if kind == "monomial":
        _, a, b = params[0]
        ref["continuous"] = sugeno_monomial(a * p, b * p)
    return ref


def check_sugeno(src: str, p: float, report, reference: dict) -> list[str]:
    problems: list[str] = []
    _common(report, sugeno_constant(p), problems)
    q = 1.0 / (2.0 * p + 1.0)
    lhs = report.lhs if report.lhs is not None else math.nan
    low, high = _power_band(reference["empirical"], 2 * BISECTION_STEP, q)
    if not (low * (1 - REL_EXACT) <= lhs <= high * (1 + REL_EXACT)):
        problems.append(f"lhs {lhs!r} outside the empirical-measure band [{low!r}, {high!r}]")
    if "continuous" in reference:
        low, high = _power_band(reference["continuous"], 2.0 / SUGENO_LHS_GRID, q)
        if not (low <= lhs <= high):
            problems.append(f"lhs {lhs!r} outside the closed-form band [{low!r}, {high!r}]")
    return problems


# --- sup Hardy check ------------------------------------------------------------


def check_sup(src: str, p: float, report) -> list[str]:
    """f nondecreasing and ψ the unit: R = f, so lhs = rhs_integral = f(1,1)^p."""
    problems: list[str] = []
    _common(report, hardy_constant(p), problems)
    top = float(evaluate(parse_family(src), 1.0, 1.0)) ** p
    if report.lhs != report.rhs_integral:
        problems.append(f"lhs {report.lhs!r} != rhs_integral {report.rhs_integral!r}")
    _close("lhs", report.lhs, top, 4 * np.finfo(float).eps * top, problems)
    if report.pointwise_max != 0.0:
        problems.append(f"pointwise_max {report.pointwise_max!r} != 0 (R = f)")
    return problems


# --- the paper workload ---------------------------------------------------------


def _values(result: dict) -> dict:
    return {v["name"]: v["recomputed"] for v in result["values"]}


def check_paper(out: dict) -> list[str]:
    """The worked examples and the README integrate examples, in closed form."""
    problems: list[str] = []

    def close(label, got, want, tol):
        _close(label, got, want, tol, problems)

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: {got!r}, expected {want!r}")

    v = _values(out["ex33"])
    close("ex33 lhs", v["lhs"], 7 / 96, KERNEL_REL * 7 / 96)
    close("ex33 rhs_integral", v["rhs_integral"], 7 / 24, _adaptive_tol("half", 7 / 24))
    close("ex33 constant", v["constant"], 16.0, REL_EXACT * 16)
    expect("ex33 conclusion", out["ex33"]["computed_conclusion"], "holds")

    v = _values(out["ex32"])
    close("ex32 lhs", v["lhs"], 1 / 65536, KERNEL_REL / 65536)
    close("ex32 rhs_integral", v["rhs_integral"], 1 / 81, _adaptive_tol("sqrt", 1 / 81))
    expect("ex32 conclusion", out["ex32"]["computed_conclusion"], "holds")

    v = _values(out["remark35a"])
    close("remark35a constant", v["constant"], -(0.2 ** (1 / 3)), REL_EXACT)
    lhs_inner = 16 ** (-1 / 12) / (5 / 4) ** 2
    close("remark35a lhs_inner", v["lhs_inner_integral"], lhs_inner, KERNEL_REL * lhs_inner)
    close("remark35a rhs_inner", v["rhs_inner_integral"], 36 / 49, ADAPTIVE_SLACK)
    expect("remark35a conclusion", out["remark35a"]["computed_conclusion"], "fails")

    expect("remark35b lhs_status", _values(out["remark35b"])["lhs_status"], "diverged")

    v = _values(out["remark35c"])
    close("remark35c criterion", v["pseudo_integral_of_f"], 1 / 16, _adaptive_tol("sqrt", 1 / 16))
    expect("remark35c conclusion", out["remark35c"]["computed_conclusion"], "fails")

    for name in ("ex38", "ex39"):
        v = _values(out[name])
        close(f"{name} lhs", v["lhs"], 1.0, REL_EXACT)
        close(f"{name} rhs", v["rhs"], 16.0, REL_EXACT * 16)
        expect(f"{name} conclusion", out[name]["computed_conclusion"], "holds")

    v = _values(out["classical"])
    close("classical lhs", v["lhs_integral"], 1 / 12, 10 * CLASSICAL_TOL)
    close("classical rhs", v["rhs"], 4 / 3, 4 * 10 * CLASSICAL_TOL)
    expect("classical conclusion", out["classical"]["computed_conclusion"], "holds strictly")

    code, doc = out["g_sqrt"]
    expect("integrate g_sqrt exit", code, 0)
    close("integrate g_sqrt", doc.get("value"), 1 / 16, _adaptive_tol("sqrt", 1 / 16))
    code, doc = out["divergent"]
    expect("integrate divergent exit", code, 2)
    expect("integrate divergent status", doc.get("status"), "diverged")
    code, doc = out["sugeno_min"]
    expect("integrate sugeno_min exit", code, 0)
    close("integrate sugeno_min", doc.get("value"), (3 - math.sqrt(5)) / 2,
          2.0 / CLI_SUGENO_GRID + BISECTION_STEP)
    code, doc = out["sup_psi"]
    expect("integrate sup_psi exit", code, 0)
    close("integrate sup_psi", doc.get("value"), 1 / 16, REL_EXACT)
    return problems
