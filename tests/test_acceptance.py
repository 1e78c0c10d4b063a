"""End-to-end acceptance checks.

One test per criterion, each printing an `ACCEPTANCE <n> ...: PASS/FAIL` line
(visible with `pytest -s`; also written to acceptance_report.txt).  Criterion
6's sqrt/power cases are strict xfails: the constant-integrand area identity
∫∫^⊕ 1 dtds = xy holds only for linear generators: under the g-integral
definition g⁻¹(∬ g∘f) that all other criteria and the worked examples pin
down, a nonlinear generator gives g⁻¹(g(1)·xy) instead.  The failure is
executed and reported rather than hidden.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from pseudocalc import expr
from pseudocalc import generators as G
from pseudocalc import hardy as H
from pseudocalc import harness as HA
from pseudocalc import pseudo_integral as P
from pseudocalc.cli import REPRODUCE
from pseudocalc.quadrature import Rect

LINES: list[str] = []
DEFAULT_CAMPAIGN_SHA256 = "628a185dcecee01121a304241563d75180d49a3057c12cf0bd9405b7717f7f65"


def record(n, name, ok, detail=""):
    line = f"ACCEPTANCE {n:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    LINES.append(line)
    print(line)
    return ok


@pytest.fixture(scope="module", autouse=True)
def write_summary():
    yield
    path = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
    path.write_text("\n".join(LINES) + "\n")


@pytest.fixture(scope="module")
def default_campaign():
    cfg = HA.FuzzConfig()
    start = time.perf_counter()
    report = HA.run_campaign(cfg)
    elapsed = time.perf_counter() - start
    return cfg, report, elapsed


def test_criterion_01_worked_half_scenario_exact():
    start = time.perf_counter()
    scn = H.HardyScenario(f_src="(x+y)/2", check_kind="g_hardy", p=2.0, gen_spec="half")
    rep = H.check_hardy_g(scn)
    elapsed = time.perf_counter() - start
    ok = (
        abs(rep.lhs - 14.0 / 192.0) <= 1e-6
        and abs(rep.rhs_integral - 7.0 / 24.0) <= 1e-6
        and rep.constant == 16.0
        and abs(rep.rhs - 14.0 / 3.0) <= 1e-5
        and rep.holds is True
        and elapsed < 5.0
    )
    record(1, "g=x/2 f=(x+y)/2 p=2 exact reproduction", ok,
           f"lhs={rep.lhs:.9f} rhs_int={rep.rhs_integral:.9f} t={elapsed:.2f}s")
    assert ok


def test_criterion_02_sqrt_kernel_and_recomputed_check():
    gen = G.sqrt_gen()
    f = expr.as_function(expr.parse("x^2*y^2"))
    rng = HA.SplitMix64(20260808)
    kernel_ok = True
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(0.05, 1.0)
        y = rng.uniform(0.05, 1.0)
        diff = abs(H.hardy_kernel_g(gen, f, x, y) - x**3 * y**3 / 16.0)
        worst = max(worst, diff)
        kernel_ok = kernel_ok and diff <= 1e-6
    scn = H.HardyScenario(f_src="x^2*y^2", check_kind="g_hardy", p=2.0, gen_spec="sqrt")
    rep = H.check_hardy_g(scn)
    # closed-form oracle: lhs = (∬ x³y³/16)² = (1/256)², rhs integral = (1/9)²
    values_ok = (
        abs(rep.lhs - 1.0 / 65536.0) <= 1e-8
        and abs(rep.rhs_integral - 1.0 / 81.0) <= 1e-8
        and rep.holds is True
    )
    fixture = REPRODUCE["ex32"]()
    note_ok = len(fixture["discrepancies"]) >= 2 and fixture["verdict_matches"]
    ok = kernel_ok and values_ok and note_ok
    record(2, "g=sqrt kernel x^3y^3/16 + recomputed check + discrepancy notes", ok,
           f"max kernel err={worst:.2e} lhs={rep.lhs:.3e}")
    assert ok


def test_criterion_03_fractional_p_diagnostics():
    gen = G.sqrt_gen()
    f = expr.as_function(expr.parse("x^2*y^2"))
    diag = H.remark_diagnostics(gen, f, 1.0 / 6.0)
    ok = (
        abs(diag.lhs_inner - 0.507968) <= 1e-4
        and abs(diag.rhs_inner - 0.734694) <= 1e-4
        and abs(diag.constant - (-0.584804)) <= 1e-4
        and diag.inequality_fails is True
    )
    record(3, "p=1/6 diagnostics (inner integrals + real cube root)", ok,
           f"inner=({diag.lhs_inner:.6f}, {diag.rhs_inner:.6f}) c={diag.constant:.6f}")
    assert ok


def test_criterion_04_negative_p_divergence():
    gen = G.sqrt_gen()
    f = expr.as_function(expr.parse("x^2*y^2"))
    start = time.perf_counter()
    diag = H.remark_diagnostics(gen, f, -2.0)
    elapsed = time.perf_counter() - start
    ok = diag.lhs_status == "diverged" and elapsed < 10.0
    record(4, "p=-2 diverges within the 30-level budget", ok, f"t={elapsed:.2f}s")
    assert ok


def test_criterion_05_zero_p_criterion():
    gen = G.sqrt_gen()
    f = expr.as_function(expr.parse("x^2*y^2"))
    diag = H.remark_diagnostics(gen, f, 0.0)
    fixture = REPRODUCE["remark35c"]()
    note_ok = any("0.25" in d for d in fixture["discrepancies"])
    ok = (
        abs(diag.criterion_value - 1.0 / 16.0) <= 1e-8
        and diag.criterion_met is False
        and note_ok
    )
    record(5, "p=0 pseudo-integral 1/16, criterion >= 1 fails, printed 0.25 noted", ok,
           f"value={diag.criterion_value:.9f}")
    assert ok


_C6_CASES = [
    pytest.param("identity", id="identity"),
    pytest.param("sqrt", id="sqrt", marks=pytest.mark.xfail(
        strict=True,
        reason="area identity needs a linear generator: g⁻¹(g(1)·xy) = (xy)² for g=√x")),
    pytest.param("half", id="half"),
    pytest.param("power:3", id="power:3", marks=pytest.mark.xfail(
        strict=True,
        reason="area identity needs a linear generator: g⁻¹(g(1)·xy) = (xy)^{1/3} for g=x³")),
]


@pytest.mark.parametrize("gen_spec", _C6_CASES)
def test_criterion_06_unit_integrand_area_identity(gen_spec):
    gen = G.make_generator(gen_spec)
    rng = HA.SplitMix64(6)
    worst = 0.0
    for _ in range(25):
        x = rng.uniform(0.02, 1.0)
        y = rng.uniform(0.02, 1.0)
        got = P.g_integral_2d(gen, lambda s, t: 1.0, Rect(0.0, x, 0.0, y), 1e-10)[0]
        worst = max(worst, abs(got - x * y))
    ok = worst <= 1e-9
    record(6, f"∫∫⊕ 1 over [0,x]×[0,y] = xy for {gen_spec}", ok, f"max err={worst:.2e}")
    assert ok


def test_criterion_07_pointwise_proof_step():
    gens = [G.identity(), G.sqrt_gen(), G.half()]
    worst = -math.inf
    ok = True
    for i in range(50):
        rng = HA.trial_rng(777, i)
        family = HA.FAMILIES[i % 3]
        f_src = HA.random_function(rng, family)
        f = expr.as_function(expr.parse(f_src))
        for gen in gens:
            diff, _loc = H.GKernelGrid(gen, f, 1.0, 1.0).pointwise_max()
            worst = max(worst, diff)
            ok = ok and diff <= 1e-8
    record(7, "R ≤ f on the 256² interior nodes of the cubic kernel grid "
              "(50 fuzzed f × 3 generators)", ok,
           f"max R-f = {worst:.2e}")
    assert ok


def test_criterion_08_theorem_regime_campaign(default_campaign):
    cfg, report, elapsed = default_campaign
    ok = (
        cfg.trials == 500
        and report.violations == 0
        and report.not_evaluable == 0
        and report.holds == 500
        and elapsed < 600.0
    )
    record(8, "500-trial campaign: zero violations", ok,
           f"holds={report.holds} t={elapsed:.0f}s")
    assert ok


def test_criterion_09_power_inequality_suites():
    # (∫^⊕ f)^s ≤ ∫^⊕ f^s over 200 random pairs
    gens = [G.identity(), G.sqrt_gen(), G.half(), G.power(2.0)]
    rng = HA.SplitMix64(909)
    worst_g = -math.inf
    for i in range(200):
        gen = gens[i % 4]
        a = rng.uniform(0.0, 4.0)
        c = rng.uniform(0.0, 1.0)
        s_exp = rng.choice((1.0, 1.5, 2.0, 3.0))
        f = lambda x: c * x**a
        lhs = P.g_integral_1d(gen, f, 0.0, 1.0, 1e-10)[0] ** s_exp
        rhs = P.g_integral_1d(gen, lambda x: f(x) ** s_exp, 0.0, 1.0, 1e-10)[0]
        worst_g = max(worst_g, lhs - rhs)
    # (sup-integral f)^s ≤ sup-integral f^s over 200 random pairs
    from pseudocalc.semiring import sup_times

    st = sup_times()
    worst_sup = -math.inf
    for i in range(200):
        a = rng.uniform(0.0, 3.0)
        b = rng.uniform(0.0, 3.0)
        c = rng.uniform(0.0, 1.0)
        s_exp = rng.choice((1.0, 1.5, 2.0, 3.0))
        f2 = lambda x, y: c * x**a * y**b
        lhs = P.sup_integral_2d(st, f2) ** s_exp
        rhs = P.sup_integral_2d(st, lambda x, y: f2(x, y) ** s_exp)
        worst_sup = max(worst_sup, lhs - rhs)
    ok = worst_g <= 1e-8 and worst_sup <= 1e-8
    record(9, "power-inequality suites (200 g-integral + 200 sup-integral pairs)", ok,
           f"worst slacks: {worst_g:.2e}, {worst_sup:.2e}")
    assert ok


def test_criterion_10_sugeno_oracle_equivalence():
    # independent oracle: bisection on the exact level-set area (1-α)²
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (1.0 - mid) ** 2 - mid >= 0.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    got = P.sugeno_integral_2d(lambda x, y: np.minimum(x, y), grid=2048)
    min_ok = abs(got - oracle) <= 1e-3 and abs(oracle - (3 - math.sqrt(5)) / 2) < 1e-12
    const_ok = True
    for c in (0.0, 0.3, 0.725, 1.0):
        v = P.sugeno_integral_2d(lambda x, y: c + 0.0 * x, grid=512)
        const_ok = const_ok and abs(v - c) <= 1e-9
    ok = min_ok and const_ok
    record(10, "Sugeno oracle equivalence (min fixed point + exact constants)", ok,
           f"min err={abs(got - oracle):.2e}")
    assert ok


def test_criterion_11_classical_baseline():
    rep = H.check_hardy_classical(lambda x: x, 2.0, 1e-6, 1.0)
    margin = rep.rhs - rep.lhs
    ok = abs(rep.lhs - 1.0 / 12.0) <= 1e-6 and rep.holds is True and margin > 1.0
    record(11, "classical baseline f=x p=2 (1/12 and strict margin)", ok,
           f"lhs={rep.lhs:.9f} margin={margin:.4f}")
    assert ok


def test_criterion_12_campaign_determinism(default_campaign):
    cfg, first, _elapsed = default_campaign
    again = HA.run_campaign(cfg)
    # the bytes scripts/run_fuzz_campaign.py writes; a change to them is named in CHANGES.md
    digest = hashlib.sha256((first.to_json() + "\n").encode()).hexdigest()
    ok = first.to_json() == again.to_json() and digest == DEFAULT_CAMPAIGN_SHA256
    record(12, "same seed: byte-identical campaign report", ok,
           f"bytes={len(first.to_json())} sha256={digest[:8]}")
    assert ok
