"""g-integrals, sup-integrals, Sugeno integral: values and order properties."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudocalc import expr
from pseudocalc import generators as G
from pseudocalc import pseudo_integral as P
from pseudocalc import semiring as S
from pseudocalc.harness import FuzzConfig, SplitMix64, build_trial_scenario
from pseudocalc.quadrature import (
    BAND_ELEMENTS,
    UNIT_SQUARE,
    Rect,
    integrate_1d,
    integrate_2d,
    level_set_samples,
)


def sugeno_from_sorted(descending: np.ndarray, cell_area: float) -> float:
    """The oracle of a full sort: max_k min(v_(k), k·cell) for v_(k) = descending[k - 1].

    max(k*·cell, v_(k*+1)) at the crossing rank k* = max{k : v_(k) ≥ k·cell},
    with k* bisected over every rank, as the library's selection paths test it.
    """
    k_star = P._crossing_rank(descending, cell_area, 0, descending.size)
    return P._sugeno_value(k_star, cell_area,
                           descending[k_star] if k_star < descending.size else None)


def sugeno_prefix_blocks(F: np.ndarray, row_ends, col_ends, cell_area: float) -> np.ndarray:
    """max_k min(v_(k), k·cell) of every block F[:row_ends[i], :col_ends[j]], from one sort.

    The all-blocks oracle: sugeno_block_bounds with every block resolved,
    the same bits as sorting each block.
    """
    lo, _, resolve = P.sugeno_block_bounds(F, row_ends, col_ends, cell_area)
    bi, bj = np.indices(lo.shape).reshape(2, -1)
    return resolve(bi, bj).reshape(lo.shape)


class TestGIntegral1D:
    def test_identity_reduces_to_riemann(self):
        assert P.g_integral_1d(G.identity(), lambda x: x, 0, 1)[0] == pytest.approx(0.5, abs=1e-10)

    def test_sqrt_of_square(self):
        # closed form: g⁻¹(∫ x dx) = (1/2)² = 1/4
        got = P.g_integral_1d(G.sqrt_gen(), lambda x: x * x, 0, 1)[0]
        assert got == pytest.approx(0.25, abs=1e-10)

    def test_half_linear(self):
        # closed form: 2·(1/4) = 1/2
        got = P.g_integral_1d(G.half(), lambda x: x, 0, 1)[0]
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_divergence_error(self):
        value, res, reason = P.g_integral_1d(G.sqrt_gen(), lambda x: x**-4.0, 0, 1)
        assert (value, res.status, reason) == (None, "diverged", "inner classical integral diverged")


class TestGIntegralReturn:
    """(value, classical result, reason): the reason is None when there is a value."""

    def test_value(self):
        value, res, reason = P.g_integral_1d(G.sqrt_gen(), lambda x: x * x, 0, 1)
        assert (value, res.status, reason) == (res.value**2, "converged", None)

    def test_diverged_side(self):
        for value, res, reason in (
                P.g_integral_1d(G.identity(), lambda x: x**-1.0, 0.0, 1.0),
                P.g_integral_2d(G.sqrt_gen(), lambda s, t: (s * t) ** -2.0, UNIT_SQUARE)):
            assert (value, res.status, reason) == (None, "diverged", "inner classical integral diverged")

    def test_out_of_range_side(self):
        # ∫ √2 = √2 lies outside [0, 1], the range of sqrt
        gen = G.sqrt_gen()
        for value, res, reason in (P.g_integral_1d(gen, lambda x: 2.0, 0.0, 1.0),
                                   P.g_integral_2d(gen, lambda s, t: 2.0, UNIT_SQUARE)):
            assert value is None and res.status == "converged"
            with pytest.raises(G.RangeError) as err:
                G.eval_inverse(gen, res.value)
            assert reason == str(err.value) == f"sqrt: y={res.value!r} outside range [0.0, 1.0]"

    @pytest.mark.parametrize("f", [
        lambda x: np.where(x == 0.5, np.inf, x),
        # the `if` rejects arrays, so the quadrature calls it once per node on floats
        lambda x: math.inf if x == 0.5 else x,
    ], ids=["array", "scalar_only"])
    def test_infinite_f_is_a_failed_node(self, f):
        # tanh(∞) = 1 is finite: g must not see the infinite f, on arrays or floats
        gen = G.Generator("tanh", np.tanh, np.arctanh)
        value, res, reason = P.g_integral_1d(gen, f, 0.0, 1.0)
        assert (value, res.status, reason) == (None, "diverged", "inner classical integral diverged")


class TestGIntegral2D:
    def test_sqrt_squares(self):
        # ∬ st = 1/4, then inverse squares: 1/16
        got = P.g_integral_2d(G.sqrt_gen(), lambda s, t: (s * t) ** 2, UNIT_SQUARE)[0]
        assert got == pytest.approx(1.0 / 16.0, abs=1e-10)

    def test_half_mean(self):
        # ∬ (s+t)/4 = 1/4, inverse doubles: 1/2
        got = P.g_integral_2d(G.half(), lambda s, t: (s + t) / 2.0, UNIT_SQUARE)[0]
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_identity_constant(self):
        assert P.g_integral_2d(G.identity(), lambda s, t: 1.0, UNIT_SQUARE)[0] == pytest.approx(1.0, abs=1e-12)

    def test_identity_oracle_equivalence(self):
        rng = SplitMix64(21)
        for _ in range(10):
            a = rng.uniform(0.1, 3.0)
            b = rng.uniform(0.1, 3.0)
            f2 = lambda s, t: s**a * t**b
            direct = integrate_2d(f2, UNIT_SQUARE, 1e-10).value
            assert P.g_integral_2d(G.identity(), f2, UNIT_SQUARE, 1e-10)[0] == pytest.approx(
                direct, abs=1e-10
            )
            f1 = lambda x: x**a
            d1 = integrate_1d(f1, 0.0, 1.0, 1e-10).value
            assert P.g_integral_1d(G.identity(), f1, 0.0, 1.0, 1e-10)[0] == pytest.approx(
                d1, abs=1e-10
            )


GENS = [G.identity(), G.sqrt_gen(), G.half(), G.power(2.0)]


class TestIntegralOrderProperties:
    """Additivity, homogeneity, monotonicity, and domain monotonicity."""

    def test_oplus_additivity(self):
        rng = SplitMix64(31)
        for gen in GENS:
            s = S.g_generated(gen)
            for _ in range(25):
                a1, a2 = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
                # scaled small so g(f1)+g(f2) stays inside the generator range
                c1, c2 = rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2)
                f1 = lambda x: c1 * x**a1
                f2 = lambda x: c2 * x**a2
                fsum = lambda x: float(S.pseudo_add(s, f1(x), f2(x)))
                left = P.g_integral_1d(gen, fsum, 0, 1, 1e-10)[0]
                right = float(S.pseudo_add(
                    s,
                    P.g_integral_1d(gen, f1, 0, 1, 1e-10)[0],
                    P.g_integral_1d(gen, f2, 0, 1, 1e-10)[0],
                ))
                assert left == pytest.approx(right, abs=1e-8)

    def test_odot_homogeneity(self):
        rng = SplitMix64(32)
        for gen in GENS:
            s = S.g_generated(gen)
            for _ in range(25):
                lam = rng.uniform(0.1, 1.0)
                a = rng.uniform(0.5, 3.0)
                f = lambda x: x**a
                scaled = lambda x: float(S.pseudo_mul(s, lam, f(x)))
                left = P.g_integral_1d(gen, scaled, 0, 1, 1e-10)[0]
                right = float(S.pseudo_mul(s, lam, P.g_integral_1d(gen, f, 0, 1, 1e-10)[0]))
                assert left == pytest.approx(right, abs=1e-8)

    def test_pointwise_monotone(self):
        rng = SplitMix64(33)
        for gen in GENS:
            for _ in range(25):
                a = rng.uniform(0.5, 3.0)
                c = rng.uniform(0.0, 1.0)
                bump = rng.uniform(0.0, 1.0 - c)
                f1 = lambda x: c * x**a
                f2 = lambda x: (c + bump) * x**a
                v1 = P.g_integral_1d(gen, f1, 0, 1, 1e-10)[0]
                v2 = P.g_integral_1d(gen, f2, 0, 1, 1e-10)[0]
                assert v1 <= v2 + 1e-10

    def test_domain_monotone(self):
        rng = SplitMix64(34)
        for gen in GENS:
            for _ in range(15):
                a = rng.uniform(0.5, 2.0)
                f = lambda s, t: (s * t) ** a
                x1, y1 = rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.6)
                x2 = x1 + rng.uniform(0.05, 1.0 - x1)
                y2 = y1 + rng.uniform(0.05, 1.0 - y1)
                small = P.g_integral_2d(gen, f, Rect(0, x1, 0, y1), 1e-10)[0]
                large = P.g_integral_2d(gen, f, Rect(0, x2, 0, y2), 1e-10)[0]
                assert small <= large + 1e-10


class TestPowerInequalities:
    def test_g_integral_power_bound(self):
        # (∫^⊕ f)^s ≤ ∫^⊕ f^s for f into [0,1], s ≥ 1 (fuller sweep in acceptance)
        rng = SplitMix64(41)
        for _ in range(50):
            gen = [G.identity(), G.sqrt_gen(), G.half(), G.power(2.0)][rng.next_u64() % 4]
            a = rng.uniform(0.0, 4.0)
            c = rng.uniform(0.0, 1.0)
            s_exp = rng.choice((1.0, 1.5, 2.0, 3.0))
            f = lambda x: c * x**a
            lhs = P.g_integral_1d(gen, f, 0, 1, 1e-10)[0] ** s_exp
            rhs = P.g_integral_1d(gen, lambda x: f(x) ** s_exp, 0, 1, 1e-10)[0]
            assert lhs <= rhs + 1e-8

    def test_sup_integral_power_bound(self):
        # (sup-integral f)^s ≤ sup-integral f^s for sup_times with unit density
        st = S.sup_times()
        rng = SplitMix64(42)
        for _ in range(50):
            a = rng.uniform(0.0, 3.0)
            b = rng.uniform(0.0, 3.0)
            c = rng.uniform(0.0, 1.0)
            s_exp = rng.choice((1.0, 1.5, 2.0, 3.0))
            f = lambda x, y: c * x**a * y**b
            lhs = P.sup_integral_2d(st, f) ** s_exp
            rhs = P.sup_integral_2d(st, lambda x, y: f(x, y) ** s_exp)
            assert lhs <= rhs + 1e-8


class TestSupIntegral:
    def test_psi_compiles_once(self, monkeypatch):
        compiled = []
        as_function = expr.as_function
        monkeypatch.setattr(expr, "as_function", lambda node: compiled.append(node) or as_function(node))
        psi = P.PsiDensity.from_string("1-x")   # validate() calls it once
        assert psi(0.25) == 0.75
        assert list(psi(np.array([0.0, 0.5]))) == [1.0, 0.5]
        assert compiled == [psi.expr]

    def test_unit_density_gives_sup(self):
        got = P.sup_integral_2d(S.sup_times(), lambda x, y: x * y)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_sup_plus_zero_density(self):
        got = P.sup_integral_2d(S.sup_plus(), lambda x, y: x * y)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_interior_peak(self):
        got = P.sup_integral_2d(S.sup_times(), lambda x, y: x * y * (1 - x) * (1 - y))
        assert got == pytest.approx(1.0 / 16.0, abs=1e-10)

    def test_nonunit_density(self):
        # psi(x)=x with product: sup of xy·x·y = 1 at the corner; on [0,1/2]²: (1/4)²
        psi = P.PsiDensity.from_string("x")
        got = P.sup_integral_2d(S.sup_times(), lambda x, y: x * y, psi,
                                Rect(0.0, 0.5, 0.0, 0.5))
        assert got == pytest.approx((0.25) ** 2, abs=1e-10)

    def test_default_density_is_unit(self):
        assert P.unit_psi(S.sup_plus())(0.3) == 0.0
        assert P.unit_psi(S.sup_times())(0.3) == 1.0
        assert P.unit_psi(S.g_generated(G.sqrt_gen()))(0.3) == 1.0

    def test_saturation_propagates(self):
        flags = S.SaturationFlags()
        P.sup_integral_2d(S.sup_plus(), lambda x, y: (x + y) / 2.0,
                          P.PsiDensity.constant(0.9), flags=flags)
        assert flags.saturated

    @pytest.mark.parametrize("semiring", [S.sup_times(), S.sup_plus(), S.max_min(),
                                          S.g_generated(G.sqrt_gen())])
    def test_1d_takes_a_float_only_callable(self, semiring):
        # as integrate_1d and sup_integral_2d do, a callable that refuses arrays
        # is evaluated node by node; the node at 0.5 fails and is skipped
        f = expr.as_function(expr.parse("x*(1-x)+1/(x-0.5)"))

        def floats_only(x):  # branching on an array raises ValueError
            return f(x, 0.0) if x >= 0.0 else math.nan

        want = P.sup_integral_1d(semiring, lambda x: f(x, 0.0))
        assert math.isfinite(want)
        assert P.sup_integral_1d(semiring, floats_only) == want

    @pytest.mark.parametrize("low, high", [(0.8, 0.2), (0.5, 0.5), (-1.0, 0.5), (0.5, 1.5),
                                           (math.nan, 1.0)])
    def test_1d_rejects_an_interval_outside_the_unit_interval(self, low, high):
        # ψ is validated on [0, 1] only, and a reversed interval has no nodes to scan
        with pytest.raises(ValueError):
            P.sup_integral_1d(S.sup_times(), lambda x: x, None, low, high)

    def test_an_infinite_f_is_a_failed_node(self):
        # under maxmin inf ⊙ ψ = ψ is finite: the node is skipped before it is weighted
        assert P.sup_integral_1d(S.max_min(), lambda x: math.inf) == -math.inf
        assert P.sup_integral_2d(S.max_min(), lambda x, y: 1.0 / (x - x)) == -math.inf

    def test_psi_on_gives_every_node(self):
        ts = np.linspace(0.0, 1.0, 5)
        assert P.PsiDensity.from_string("1-x").on(ts).tolist() == [1.0, 0.75, 0.5, 0.25, 0.0]
        const = P.PsiDensity.constant(0.9).on(ts[:, np.newaxis])
        assert const.shape == (5, 1) and const.dtype == np.float64
        assert np.all(const == 0.9)

    def test_2d_peak_memory_is_banded(self):
        # the (2^9 + 1)² grid is 2 MiB a copy; its row bands are 128 KiB each
        f, psi = _parsed("x*y"), P.PsiDensity.from_string("1-x")
        P.sup_integral_2d(S.sup_times(), f, psi)     # warm any first-call caches
        tracemalloc.start()
        try:
            P.sup_integral_2d(S.sup_times(), f, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _scalar_only(x, y):
    # a branch on a float: an array raises, so f is evaluated node by node;
    # the nodes on x = 1/4 raise ZeroDivisionError and are skipped
    if x >= 0.5:
        return math.sqrt(x) + y * 0.25
    return 1.0 / (x - 0.25) * 0.01 + y * 0.5


# sup_integral_2d's value, as float.hex, for scans whose bits are pinned
SUP_HEX = {
    # the peak lies between nodes: the 513² pass alone gives 0x1.ffffa44fa8870p-1
    "off-grid bump": (S.sup_times(), "exp(-50*((x-0.3137)^2+(y-0.7071)^2))", None,
                      UNIT_SQUARE, "0x1.fffffa82d38c0p-1"),
    # failed nodes on x ≤ 0.3, whose weighting warns unless it runs under errstate
    "g:sqrt with failed nodes": (S.g_generated(G.sqrt_gen()), "ln(x-0.3)+y", None,
                                 UNIT_SQUARE, "0x1.4961e6d8f6059p-1"),
    "psi = x on [0, 1/2]^2": (S.sup_times(), "x*y", "x", Rect(0.0, 0.5, 0.0, 0.5),
                             "0x1.0000000000000p-4"),
    "supplus, psi = 0.9": (S.sup_plus(), "(x+y)/2", "0.9", UNIT_SQUARE,
                           "0x1.0000000000000p+0"),
    "scalar-only callable": (S.max_min(), _scalar_only, "1-x/2", UNIT_SQUARE,
                             "0x1.bff8000000000p-1"),
}


@pytest.mark.parametrize("case", SUP_HEX)
def test_sup_integral_2d_bits(case):
    s, f, psi, r, want = SUP_HEX[case]
    f = _parsed(f) if isinstance(f, str) else f
    psi = None if psi is None else P.PsiDensity.from_string(psi)
    assert float.hex(P.sup_integral_2d(s, f, psi, r)) == want


def _bisect(fn, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSugeno:
    def test_constant_is_fixed_point(self):
        for c in (0.0, 0.25, 0.37, 1.0):
            got = P.sugeno_integral_2d(lambda x, y: c + 0.0 * x, grid=256)
            assert got == pytest.approx(c, abs=1e-9)

    def test_min_against_level_set_oracle(self):
        # independent oracle: bisection on the exact area (1-α)² = α
        oracle = _bisect(lambda a: (1 - a) ** 2 - a, 0.0, 1.0)
        assert oracle == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)
        got = P.sugeno_integral_2d(lambda x, y: np.minimum(x, y), grid=2048)
        assert got == pytest.approx(oracle, abs=1e-3)

    def test_product_against_level_set_oracle(self):
        # exact area of {xy ≥ α} on the unit square is 1 - α + α·ln α
        oracle = _bisect(lambda a: (1 - a + a * math.log(a)) - a, 1e-12, 1.0)
        got = P.sugeno_integral_2d(lambda x, y: x * y, grid=2048)
        assert got == pytest.approx(oracle, abs=1e-3)

    def test_bounded_by_sup_and_area(self):
        rng = SplitMix64(55)
        for _ in range(10):
            a = rng.uniform(0.2, 3.0)
            c = rng.uniform(0.1, 1.0)
            x_hi = rng.uniform(0.3, 1.0)
            y_hi = rng.uniform(0.3, 1.0)
            r = Rect(0.0, x_hi, 0.0, y_hi)
            f = lambda x, y: c * (x * y) ** a
            got = P.sugeno_integral_2d(f, r, grid=256)
            assert got <= min(c, r.area) + 1e-9

    def test_subrectangle(self):
        got = P.sugeno_integral_2d(lambda x, y: 1.0 + 0.0 * x, Rect(0, 0.5, 0, 0.5), grid=256)
        assert got == pytest.approx(0.25, abs=1e-9)

    def test_sorted_helper_matches(self):
        from pseudocalc.quadrature import level_set_samples

        f = lambda x, y: np.minimum(x, y)
        samples = level_set_samples(f, UNIT_SQUARE, 512)
        emp = sugeno_from_sorted(np.sort(samples, axis=None)[::-1], 1.0 / 512**2)
        assert P.sugeno_integral_2d(f, grid=512) == emp

    def test_rank_search_matches_reference(self):
        def reference(descending, cell):
            if descending.size == 0:
                return 0.0
            k = np.arange(1, descending.size + 1) * cell
            return float(np.max(np.minimum(descending, k)))

        rng = np.random.default_rng(7)
        cases = [np.array([]), np.full(1, 0.3), np.full(1000, 0.25), np.full(64, 2.0)]
        for n in (1, 2, 3, 17, 1000):
            cases.append(rng.random(n))
            cases.append(rng.integers(0, 5, n) / 4.0)    # ties
            cases.append(rng.random(n) * 3.0 - 1.0)      # outside [0, 1]
        for values in cases:
            descending = np.sort(values)[::-1]
            for cell in (1.0 / max(values.size, 1), 1e-3, 0.37):
                assert sugeno_from_sorted(descending, cell) == reference(descending, cell)


def _sorted_sugeno(values, cell):
    return sugeno_from_sorted(np.sort(values, axis=None)[::-1], cell)


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestSugenoFromSamples:
    """Selection around the crossing rank against a full sort, bit for bit."""

    @staticmethod
    def assert_exact(values, cells=None):
        n = max(values.size, 1)
        for cell in cells or (1.0 / n, 0.1 / n, 10.0 / n, 1e-3, 0.37):
            got = P.sugeno_from_samples(values, cell)
            assert _same_bits(got, _sorted_sugeno(values, cell)), (values.shape, cell)

    @pytest.mark.parametrize("shape", [(1024, 1024), (300, 257), (5000,)])
    def test_random(self, shape):
        rng = np.random.default_rng(sum(shape))
        self.assert_exact(rng.random(shape))
        self.assert_exact(rng.random(shape) ** 6)        # crossing among small values

    @pytest.mark.parametrize("levels", [2, 3, 17, 1000])
    def test_heavy_ties(self, levels):
        rng = np.random.default_rng(levels)
        self.assert_exact(rng.integers(0, levels, (256, 256)) / (levels - 1))
        # the affine-mean family on a midpoint grid: every anti-diagonal is one value
        xs = (np.arange(512) + 0.5) / 512
        self.assert_exact(0.8 * np.add.outer(xs, xs) / 2)

    @pytest.mark.parametrize("value", [0.0, 0.3, 0.999, 1.0, 2.0, -0.5])
    def test_constant(self, value):
        # above the area every rank passes (k* = n); below it the tie rule
        # decides, down to k* = n - 1 (the cell value/(n - 1/2))
        values = np.full((128, 128), value)
        n = values.size
        self.assert_exact(values, (1.0 / n, 0.5 / n, 2.0 / n, 1e-6, abs(value) / (n - 0.5) or 1.0))

    def test_failed_samples_are_dropped(self):
        from pseudocalc.quadrature import level_set_samples

        f = lambda x, y: np.log(x - 0.3) + 2.0 * y      # NaN on the columns x ≤ 0.3
        samples = level_set_samples(f, UNIT_SQUARE, 256)
        assert np.isnan(samples).any()
        want = _sorted_sugeno(samples[~np.isnan(samples)], 1.0 / 256**2)
        assert _same_bits(P.sugeno_integral_2d(f, grid=256), want)

    def test_empty_and_all_failed(self):
        assert P.sugeno_from_samples(np.zeros(0), 0.1) == 0.0
        assert P.sugeno_integral_2d(lambda x, y: np.log(x - 2.0), grid=64) == 0.0
        assert P.sugeno_integral_2d(lambda x, y: x / (x - x), grid=64) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 17, 255, 256, 257, 1023])
    def test_around_the_stride_threshold(self, n):
        rng = np.random.default_rng(n)
        self.assert_exact(rng.random(n))
        self.assert_exact(rng.integers(0, 4, n) / 3.0)

    def test_values_outside_the_unit_interval(self):
        rng = np.random.default_rng(3)
        self.assert_exact(rng.random((200, 200)) * 3.0 - 1.0)
        self.assert_exact(-rng.random((200, 200)))
        self.assert_exact(rng.random((200, 200)) + 5.0)

    def test_crossing_at_rank_zero_and_at_n(self):
        rng = np.random.default_rng(4)
        values = rng.random((100, 100))
        # every value below one cell: k* = 0 and the value is the largest sample
        cell = 2.0
        assert P.sugeno_from_samples(values, cell) == float(values.max())
        self.assert_exact(values, [cell, 1.0 + 1e-12])
        # every rank passes: k* = n
        values = rng.random((100, 100)) * 0.5 + 0.5
        cell = 0.5 / values.size
        assert P.sugeno_from_samples(values, cell) == values.size * cell
        self.assert_exact(values, [cell, 0.99 / values.size])

    def test_signed_zeros(self):
        values = np.zeros((64, 64))
        values[::3] = -0.0
        self.assert_exact(values)
        self.assert_exact(np.where(np.arange(4096) % 2 == 0, 0.0, -0.0) * 1.0)

    def test_subsample_that_misleads_the_guess(self):
        # only the subsampled positions are large, so the first guess is far
        # off and the probes have to move out
        for n in (4096, 65536):
            stride = math.isqrt(n) // 4
            while math.gcd(stride, n) != 1:
                stride += 1
            values = np.zeros(n)
            values[::stride] = 1.0
            self.assert_exact(values)
            values = np.ones(n)
            values[::stride] = 0.0
            self.assert_exact(values)

    @given(
        st.integers(0, 3000), st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 5, 100, 10**6]), st.sampled_from([1.0, 0.1, 0.5, 3.0, 1e-3]),
        st.booleans(),
    )
    def test_property(self, n, seed, levels, cell_scale, outside):
        # levels = 1 is a constant array, small levels heavy ties, 10^6 nearly distinct
        rng = np.random.default_rng(seed)
        values = rng.integers(0, levels, n) / max(levels - 1, 1)
        if outside:
            values = values * 2.5 - 0.5
        cell = cell_scale / max(n, 1)
        assert _same_bits(P.sugeno_from_samples(values, cell), _sorted_sugeno(values, cell))


@pytest.fixture
def sorted_sizes(monkeypatch):
    """The sizes of the arrays np.sort is asked to sort while the test runs."""
    sizes = []
    real_sort = np.sort

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return real_sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", spy)
    return sizes


class TestSelectionWork:
    """The selection sorts a subsample and a band, not the sample."""

    def test_tie_at_the_crossing_is_not_sorted(self, sorted_sizes):
        values = np.full((256, 256), 0.3)
        got = P.sugeno_from_samples(values, 1.0 / values.size)
        # one sort, of a subsample of about 4·256 values: the tie is bisected as a constant
        assert len(sorted_sizes) == 1 and sorted_sizes[0] <= 4 * 256 + 1
        assert _same_bits(got, _sorted_sugeno(values, 1.0 / values.size))

    @pytest.mark.parametrize("bias", [0.05, -0.05])
    def test_probes_move_out_when_the_guess_is_off(self, sorted_sizes, bias):
        # the subsampled positions read off by the bias, so the guess misses
        # k* by more than the first probes reach: one of them has to move out
        n = 65536
        stride = math.isqrt(n) // 4 + 1              # 65, coprime to n
        rng = np.random.default_rng(8)
        values = rng.random(n)
        values[::stride] += bias
        got = P.sugeno_from_samples(values, 1.0 / n)
        assert sum(sorted_sizes) < n // 4
        assert _same_bits(got, _sorted_sugeno(values, 1.0 / n))


# sugeno_integral_2d of f^p on the default 1024² lhs grid, recorded when the
# whole finite sample was sorted: the first default-campaign Sugeno trial of
# each (family, p) cell
LHS_BY_FULL_SORT = {
    ("0.273355237703685*(x+y)/2", 1.5): 0.0981360665405548,  # affine-mean
    ("0.21446861009434826*(x+y)/2", 2.0): 0.0346681832250376,
    ("0.8110920929506024*(x+y)/2", 3.0): 0.18182086944580078,
    ("x^2.5057546815834546*y^0.33032148405336637", 1.5): 0.22931508525282387,  # monomial
    ("x^3.149996216594045*y^3.0615785330599126", 2.0): 0.06954669952392578,
    ("x^1.9213746415248831*y^0.779093692412514", 3.0): 0.11474895477294922,
    ("0.46915844908869275*x^2.5057546815834546*y^0.33032148405336637", 1.5):  # product
        0.12563610076904297,
    ("0.6037129040992009*x^0.5343968246065969*y^3.6913235546128953", 2.0): 0.08419418334960938,
    ("0.3689448892419728*x^1.876633796354771*y^2.5057546815834546"
     "+0.31718750422482817*x^0.33032148405336637*y^0.08182447617138511"
     "+0.20176990243597703*x^0.8849779823065504*y^0.14488974404277588", 3.0): 0.13896690567349837,
}


@pytest.mark.parametrize("f_src,p", sorted(LHS_BY_FULL_SORT))
def test_lhs_matches_full_sort(f_src, p, sorted_sizes):
    f = expr.as_function(expr.parse(f_src))
    got = P.sugeno_integral_2d(lambda x, y: f(x, y) ** p, UNIT_SQUARE, grid=1024)
    assert got == LHS_BY_FULL_SORT[f_src, p]
    # a subsample of about 4·1024 values and a band of a few thousand
    assert sum(sorted_sizes) <= 16 * 1024
    # f raised by the scan, over row bands, and the call the Hardy check
    # makes, with f's tree, over staircases
    assert P.sugeno_integral_2d(f, UNIT_SQUARE, grid=1024, power=p) == LHS_BY_FULL_SORT[f_src, p]
    got = P.sugeno_integral_2d(expr.parse(f_src), UNIT_SQUARE, grid=1024, power=p)
    assert got == LHS_BY_FULL_SORT[f_src, p]


def _parsed(src):
    return expr.as_function(expr.parse(src))


def _counted(f):
    """f, and a list whose length is the number of calls made to it."""
    calls = []

    def counting(*point):
        calls.append(np.shape(point[0]))
        return f(*point)

    return counting, calls


def _family(f_src):
    """The campaign family that random_function draws f_src from."""
    if "(x+y)/2" in f_src:
        return "affine-mean"
    return "monomial" if f_src.startswith("x^") else "product"


def _full_grid_sugeno(f, r, grid, power):
    """sugeno_from_sorted of every f^power sample of the whole grid, raised in place.

    Failed samples (f NaN or ±inf) and NaN powers are dropped; a power that
    overflows is kept as ±inf.
    """
    samples = level_set_samples(f, r, grid)
    with np.errstate(all="ignore"):
        samples **= power
    return _sorted_sugeno(samples[~np.isnan(samples)], r.area / grid**2)


class TestStreamedSugeno:
    """sugeno_integral_2d scans row bands; the value is a full sort's, bit for bit."""

    @pytest.mark.parametrize("f_src,grid,power,r", [
        ("min(x,y)", 2048, 1.0, UNIT_SQUARE),        # ties
        ("x*y", 2048, 1.0, UNIT_SQUARE),
        ("x*y+0.1", 256, 1.5, Rect(0.5, 1.0, 0.25, 0.75)),  # a domain off the origin
        ("max(x,y)", 2048, 1.0, UNIT_SQUARE),
        ("0*x", 256, 1.0, UNIT_SQUARE),
        ("ln(x-0.3)", 512, 1.0, UNIT_SQUARE),        # failed nodes
        ("1/(x-0.5)", 512, 1.0, UNIT_SQUARE),
        ("exp(800*x)", 512, 1.0, UNIT_SQUARE),       # overflow
        ("x^200*y^200", 512, 1.0, UNIT_SQUARE),
        ("-x", 512, 1.0, UNIT_SQUARE),               # negatives
        ("x-0.5", 512, 1.5, UNIT_SQUARE),
        ("x-0.5", 512, 2.0, UNIT_SQUARE),
        ("x-0.5", 512, 3.0, UNIT_SQUARE),
        ("x*y+0.1", 15, 1.0, UNIT_SQUARE),           # 225 samples: a whole sort
        ("x+y", 64, 2.0, Rect(0.0, 1e-200, 0.0, 1e-200)),  # an area that underflows to 0
        ("exp(300*x)", 512, 3.0, UNIT_SQUARE),       # bands whose power overflows
        ("1/(x-0.5)", 511, 2.0, UNIT_SQUARE),        # a failed column, f of both signs
        ("x^400", 512, 1.5, UNIT_SQUARE),            # powers that underflow to a tie at 0
        ("x^200*y^200", 512, 2.0, UNIT_SQUARE),
        ("0.7", 512, 1.5, UNIT_SQUARE),              # a constant
        ("min(x,y)", 1024, 2.5, UNIT_SQUARE),        # ties
        ("0.3-2*x", 512, 2.0, UNIT_SQUARE),          # the largest powers at negative f
        ("x-y", 512, 2.0, UNIT_SQUARE),              # bands of both signs under even powers
        ("(x-0.5)*(y-0.5)", 512, 4.0, UNIT_SQUARE),
        ("0.5+1e-12*x*y", 512, 0.01, UNIT_SQUARE),   # distinct f whose powers tie
    ])
    def test_matches_full_grid_sort(self, f_src, grid, power, r):
        f = _parsed(f_src)
        want = _full_grid_sugeno(f, r, grid, power)
        assert _same_bits(P.sugeno_integral_2d(f, r, grid=grid, power=power), want)
        # the tree: staircase counts where expr.nondecreasing proves f, else the bands
        assert _same_bits(P.sugeno_integral_2d(expr.parse(f_src), r, grid=grid, power=power),
                          want)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_campaign_cells_match_full_grid_sort(self, seed):
        # the first Sugeno trial of every (family, p) cell of the campaign,
        # on the lhs grid the check uses
        cfg = FuzzConfig(seed=seed)
        cells = {}
        for index in range(cfg.kinds.index("sugeno_hardy"), 300, len(cfg.kinds)):
            scn = build_trial_scenario(cfg, index)
            cells.setdefault((_family(scn.f_src), scn.p), scn.f_src)
        assert len(cells) == len(cfg.families) * len(cfg.p_values)
        for (_, p), f_src in sorted(cells.items()):
            f = _parsed(f_src)
            want = _full_grid_sugeno(f, UNIT_SQUARE, 1024, p)
            got = P.sugeno_integral_2d(f, UNIT_SQUARE, grid=1024, power=p)
            assert _same_bits(got, want), (f_src, p)
            got = P.sugeno_integral_2d(expr.parse(f_src), UNIT_SQUARE, grid=1024, power=p)
            assert _same_bits(got, want), (f_src, p)

    @pytest.mark.parametrize("power", [2.0, 3.0])
    def test_scalar_callable_of_both_signs(self, power):
        # f taken node by node, of both signs: every band is raised as it is read
        f = lambda x, y: math.sin(7.0 * float(x)) + 0.25 * float(y)
        got = P.sugeno_integral_2d(f, grid=64, power=power)
        assert _same_bits(got, _full_grid_sugeno(f, UNIT_SQUARE, 64, power))

    def test_overflowing_powers_are_values(self):
        # exp(300x)³ = exp(900x) overflows from x = ln(max float)/900 = 0.789,
        # rows 808 on of 1024: f is finite there, so grid_eval keeps it, and
        # its power +inf is a value in every level set; each band is read once
        f, calls = _counted(_parsed("exp(300*x)"))
        got = P.sugeno_integral_2d(f, grid=1024, power=3.0)
        assert len(calls) == 1 + 64
        assert got == 1.0 == _full_grid_sugeno(_parsed("exp(300*x)"), UNIT_SQUARE, 1024, 3.0)

    @pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf, 0.0, -1.0, -2.5])
    def test_power_must_be_positive_and_finite(self, power):
        with pytest.raises(ValueError, match="power"):
            P.sugeno_integral_2d(lambda x, y: x * y, grid=64, power=power)

    @pytest.mark.parametrize("f_src,grid,power", [("min(x,y)", 2048, 1.0), ("x-0.5", 1024, 1.5)])
    def test_one_pass(self, f_src, grid, power):
        # one call for the subsample, then one per row band; x − 0.5 fails on
        # half the grid at p = 1.5, which must not throw the guess off
        f, calls = _counted(_parsed(f_src))
        got = P.sugeno_integral_2d(f, grid=grid, power=power)
        rows = BAND_ELEMENTS // grid
        assert len(calls) == 1 + grid // rows
        assert calls[1:] == [(rows, 1)] * (grid // rows)
        assert _same_bits(got, _full_grid_sugeno(_parsed(f_src), UNIT_SQUARE, grid, power))

    @pytest.mark.parametrize("f,grid,power,limit", [
        (lambda x, y: np.minimum(x, y), 2048, 1.0, 4 * 2**20),     # 44.3 MiB whole
        (_parsed("0.273355237703685*(x+y)/2"), 1024, 1.5, 3 * 2**20),  # a default lhs: 11.1 MiB
    ])
    def test_footprint(self, f, grid, power, limit):
        # a scan holds a band, its masks and the values between the cuts
        P.sugeno_integral_2d(f, grid=grid, power=power)
        tracemalloc.start()
        try:
            P.sugeno_integral_2d(f, grid=grid, power=power)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


def _sugeno_trials(seed: int) -> list:
    cfg = FuzzConfig(seed=seed)
    return [build_trial_scenario(cfg, index)
            for index in range(cfg.kinds.index("sugeno_hardy"), cfg.trials, len(cfg.kinds))]


class TestStaircaseSugeno:
    """A tree that expr.nondecreasing proves is counted along staircases, with the bands' bits."""

    def test_default_campaign_matches_the_band_scan(self):
        trials = _sugeno_trials(FuzzConfig().seed)
        assert len(trials) == 166
        for scn in trials:
            assert expr.nondecreasing(scn.f, 1.0, 1.0)
            got = P.sugeno_integral_2d(scn.f, scn.domain, grid=1024, power=scn.p)
            bands = P.sugeno_integral_2d(expr.as_function(scn.f), scn.domain, grid=1024,
                                         power=scn.p)
            assert got.hex() == bands.hex(), (scn.f_src, scn.p)

    def test_a_default_lhs_evaluates_under_5_percent_of_its_grid(self, monkeypatch):
        points = []
        compile_tree = expr.as_function

        def counting(node):
            f = compile_tree(node)

            def counted(x, y):
                points[-1] += np.broadcast(x, y).size
                return f(x, y)
            return counted

        monkeypatch.setattr(expr, "as_function", counting)
        for scn in _sugeno_trials(FuzzConfig().seed):
            points.append(0)
            P.sugeno_integral_2d(scn.f, scn.domain, grid=1024, power=scn.p)
        assert 0 < max(points) < 0.05 * 1024**2

    @staticmethod
    def _monotone(n, levels, seed):
        # a grid nondecreasing along both axes, with `levels` distinct row and column steps
        rng = np.random.default_rng(seed)
        a, b = (np.sort(rng.integers(0, levels, n)) / levels for _ in range(2))
        return np.add.outer(a, b * 0.5)

    @pytest.mark.parametrize("levels", [1, 3, 50, 10**6])
    def test_counts_match_the_band_counts(self, levels):
        n = 37
        V = self._monotone(n, levels, levels)
        staircase = P._staircase_counts(lambda i, j: V[i, j], n, n)
        bands = P._band_counts(lambda: (V,))
        values = np.unique(V)
        thresholds = [math.inf, -math.inf, *values[::max(1, values.size // 7)], 0.3, 2.0, -1.0]
        for t_hi in thresholds:
            for t_lo in thresholds:
                if t_lo > t_hi:
                    continue
                got, want = staircase(t_hi, t_lo), bands(t_hi, t_lo)
                assert got[:2] == want[:2]
                assert (np.sort(np.concatenate([np.empty(0), *got[2]])).tolist()
                        == np.sort(np.concatenate([np.empty(0), *want[2]])).tolist())

    @pytest.mark.parametrize("bias", [0.05, -0.05])
    def test_probes_move_out_when_the_guess_is_off(self, bias):
        # a subsample that reads off by the bias throws the guess past the
        # first probes: the staircase counts again, as the bands do
        n = 256
        V = self._monotone(n, 10**6, 4)
        counts = []
        count = P._staircase_counts(lambda i, j: V[i, j], n, n)

        def counting(t_hi, t_lo):
            counts.append((t_hi, t_lo))
            return count(t_hi, t_lo)

        cell = 1.0 / n**2
        got = P._sugeno_scan(counting, lambda nodes: V.ravel()[nodes] + bias, n * n, n, cell)
        assert len(counts) > 1
        assert _same_bits(got, _sorted_sugeno(V, cell))


# exponents of the expression pow x^e by a constant e > 0: drawn over (0, 4],
# and 0.5, 2 and 3, where numpy's pow has its own paths
EXPONENTS = sorted({0.5, 2.0, 3.0,
                    *(4.0 - np.random.default_rng(31).uniform(0.0, 4.0, 9)).tolist()})


class TestPowerAssumptions:
    """What the staircase's bits rest on: properties of numpy's pow on values ≥ +0.

    Two pows are pinned: the in-place `**=` that raises a sample to the
    Sugeno power (_power_of), and np.power(a, e) by a scalar exponent, as
    expr._compile calls it for ^ by a positive constant.  Each must be
    nondecreasing, so that a cut of a proved f's values is a staircase and
    expr.nondecreasing's finite largest node bounds every other node, and
    each element must get the same bits in any array, so that a cell the
    staircase gathers has the bits it has in the whole grid.
    """

    @pytest.mark.parametrize("power", [1.5, 2.0, 2.5, 3.0])
    def test_nondecreasing_on_non_negative_inputs(self, power):
        rng = np.random.default_rng(int(power * 10))
        a = np.sort(rng.random(1 << 16))
        a[:3] = [0.0, 5e-324, 1e-300]
        raised = P._power_of(a.copy(), power)
        assert np.all(raised[1:] >= raised[:-1])
        # each value against the next float up
        assert np.all(P._power_of(np.nextafter(a, 2.0), power) >= raised)

    @pytest.mark.parametrize("power", [1.5, 2.0, 2.5, 3.0])
    def test_one_value_has_its_bits_inside_a_band(self, power):
        rng = np.random.default_rng(int(power * 10) + 1)
        band = rng.random(BAND_ELEMENTS) * rng.choice([1e-3, 1.0, 1e3], BAND_ELEMENTS)
        raised = P._power_of(band.copy(), power)
        for i in np.linspace(0, band.size - 1, 997).astype(int):
            alone = P._power_of(np.array([band[i]]), power)
            assert alone.tobytes() == raised[i:i + 1].tobytes()

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_expression_pow_is_nondecreasing(self, e):
        rng = np.random.default_rng(int(e * 1000))
        a = np.sort(np.concatenate([rng.random(1 << 15), rng.random(1 << 12) * 1e3,
                                    [0.0, 5e-324, 1e-300, 1e-10]]))
        raised = np.power(a, e)
        assert np.all(raised[1:] >= raised[:-1])
        # each value against the next float up
        assert np.all(np.power(np.nextafter(a, np.inf), e) >= raised)

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_gathered_element_has_its_grid_bits(self, e):
        # grid_eval hands a term in x the column xs[:, None] and a term in y
        # the row ys[None, :]; the staircase hands either the cells it
        # gathers, in any order and number
        rng = np.random.default_rng(int(e * 1000) + 1)
        n = 1024
        base = np.concatenate([(np.arange(n) + 0.5) / n, rng.random(n) * rng.choice([1e-3, 1e3], n)])
        column, row = np.power(base[:, np.newaxis], e), np.power(base[np.newaxis, :], e)
        for size in (1, 7, 1000, 5000):
            i = rng.integers(0, base.size, size)
            gathered = np.power(base[i], e)
            assert gathered.tobytes() == column[i, 0].tobytes() == row[0, i].tobytes()


def _blocks_by_sorting(F, row_ends, col_ends, cell):
    return np.array([[sugeno_from_sorted(np.sort(F[:a, :b], axis=None)[::-1], cell)
                      for b in col_ends] for a in row_ends]).reshape(len(row_ends), len(col_ends))


def _assert_blocks_exact(F, row_ends, col_ends, cell):
    got = sugeno_prefix_blocks(F, row_ends, col_ends, cell)
    want = _blocks_by_sorting(F, row_ends, col_ends, cell)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()      # the same bits, signed zeros included
    return got


class TestSugenoPrefixBlocks:
    """One sort plus prefix counts against a sort of every block, bit for bit."""

    ENDS = [0, 1, 2, 5, 6, 13, 24]

    @pytest.mark.parametrize("kind", ["random", "ties", "constant", "outside"])
    def test_matches_block_sorts(self, kind):
        rng = np.random.default_rng(11)
        F = {
            "random": rng.random((24, 24)),
            "ties": rng.integers(0, 5, (24, 24)) / 4.0,
            "constant": np.full((24, 24), 0.3),
            "outside": rng.random((24, 24)) * 3.0 - 1.0,
        }[kind]
        for cell in (1.0 / 24**2, 1e-3, 0.37):
            _assert_blocks_exact(F, self.ENDS, self.ENDS, cell)
            _assert_blocks_exact(F, [24], [3, 24], cell)

    def test_every_element_passes(self):
        # v_(k) = 1 ≥ k·cell for every k, so k* is the block size
        n = 16
        got = _assert_blocks_exact(np.ones((n, n)), self.ENDS[:5], self.ENDS[:5], 1.0 / n**2)
        sizes = np.outer(self.ENDS[:5], self.ENDS[:5])
        assert got.tolist() == (sizes * (1.0 / n**2)).tolist()

    @pytest.mark.parametrize("crossing", [31, 32, 33, 63, 64, 65, 223, 224, 225])
    def test_crossing_at_chunk_boundary(self, crossing):
        # chunks hold 2⌈√256⌉ = 32 ranks, the last from rank 225 on; the top
        # `crossing` samples share the value
        # crossing·cell, so v_(k) ≥ k·cell holds up to k = crossing, with
        # equality there, and fails from the next rank on
        n = 16
        cell = 1.0 / n**2
        F = np.zeros(n * n)
        F[np.random.default_rng(crossing).permutation(n * n)[:crossing]] = crossing * cell
        F = F.reshape(n, n)
        got = _assert_blocks_exact(F, [3, 8, 16], [5, 16], cell)
        assert got[-1, -1] == crossing * cell

    @pytest.mark.parametrize("shape", [(7, 11), (13, 5), (1, 9), (9, 1)])
    def test_sample_count_not_a_multiple_of_the_chunk(self, shape):
        rng = np.random.default_rng(sum(shape))
        F = rng.integers(0, 7, shape) / 6.0
        rows = sorted({0, 1, shape[0] // 2, shape[0]})
        cols = sorted({0, 1, shape[1] // 2, shape[1]})
        for cell in (1.0 / F.size, 0.05, 0.4):
            _assert_blocks_exact(F, rows, cols, cell)

    def test_one_block_is_the_whole_sample(self):
        rng = np.random.default_rng(5)
        F = rng.random((30, 30))
        cell = 1.0 / 900
        got = sugeno_prefix_blocks(F, [30], [30], cell)
        assert got.shape == (1, 1)
        assert got[0, 0] == sugeno_from_sorted(np.sort(F, axis=None)[::-1], cell)

    def test_empty_sample(self):
        assert sugeno_prefix_blocks(np.zeros((0, 0)), [0, 0], [0], 0.1).tolist() == [[0.0], [0.0]]

    @pytest.mark.parametrize("cell", [1.0 / 24**2, 0.1 / 24**2, 3e-3])
    def test_values_on_and_next_to_rank_products(self, cell):
        # every value is a product K·cell itself or one ulp above or below it,
        # so each test v_(k) ≥ k·cell is decided by the last bit
        rng = np.random.default_rng(7)
        K = rng.integers(0, 24 * 24 + 2, (24, 24)).astype(float)
        on = K * cell
        F = np.choose(rng.integers(0, 3, on.shape),
                      [on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf)])
        _assert_blocks_exact(F, self.ENDS, self.ENDS, cell)
        _assert_blocks_exact(on, self.ENDS, self.ENDS, cell)

    @pytest.mark.parametrize("cell", [0.1 / 24**2, 1.0 / 3.0 / 24**2, 0.3, 1e-300, 5e-324])
    def test_pass_counts_match_their_definition(self, cell):
        # Q(v) = #{K ∈ [0, total] : fl(K·cell) ≤ v}, counted by brute force
        total = 24 * 24
        products = np.arange(total + 1) * cell
        on = products[1:]
        v = np.concatenate([on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
                            [-1.0, -0.0, 0.0, 1e300, 5e-324, -5e-324]])
        got = P._pass_counts(v, cell, total, np.min_scalar_type(total + 1))
        assert got.tolist() == np.searchsorted(products, v, side="right").tolist()

    @pytest.mark.parametrize("cell", [0.1 / 24**2, 1.0 / 3.0 / 24**2, 0.3])
    def test_crossing_on_a_rounded_product(self, cell):
        # the top k samples share the value fl(k·cell), or one ulp below or
        # above it, so the crossing is decided at rank k by the last bit; the
        # ranks taken are those where floor(v/cell) is one off: below k for
        # v = fl(k·cell), which rank k passes, and k for the ulp below it,
        # which rank k fails
        n = 24
        ks = np.arange(1, n * n + 1)
        on = ks * cell
        below, above = np.nextafter(on, -np.inf), np.nextafter(on, np.inf)
        ranks = np.concatenate([np.flatnonzero(np.floor(on / cell) < ks)[:2],
                                np.flatnonzero(np.floor(below / cell) >= ks)[:2]])
        assert ranks.size == 4
        for i in ranks:
            for v in (on[i], below[i], above[i]):
                F = np.zeros(n * n)
                F[np.random.default_rng(int(i)).permutation(n * n)[:ks[i]]] = v
                _assert_blocks_exact(F.reshape(n, n), [3, 8, 17, 24], [5, 24], cell)

    @pytest.mark.parametrize("scale,cell", [
        (1.0, 1e-12),           # v/cell far above the sample count
        (1e10, 1e-300),         # v/cell overflows to inf
        (1.0, 5e-324),          # subnormal cell, quotient overflows
        (5e-324, 5e-324),       # subnormal values and cell: v/cell is an exact integer
        (1e-320, 3e-323),       # subnormal values and a subnormal cell of a few ulps
    ])
    def test_tiny_cells(self, scale, cell):
        rng = np.random.default_rng(3)
        F = rng.integers(0, 2 * 24 * 24, (24, 24)) * scale
        _assert_blocks_exact(F, self.ENDS, self.ENDS, cell)

    def test_all_negative(self):
        # no rank passes v_(k) ≥ k·cell, so every block is k* = 0 and the value 0
        F = -np.random.default_rng(2).random((24, 24)) - 1e-3
        got = _assert_blocks_exact(F, self.ENDS, self.ENDS, 1.0 / 24**2)
        assert got.tolist() == np.zeros((len(self.ENDS), len(self.ENDS))).tolist()

    @pytest.mark.parametrize("shape", [(151, 434), (255, 257), (256, 256)])
    def test_count_type_boundary(self, shape):
        # 65,534, 65,535 and 65,536 samples: the pass counts reach total + 1,
        # which needs uint16 for the first and uint32 for the other two
        rng = np.random.default_rng(shape[1])
        cell = 1.0 / (shape[0] * shape[1])
        rows, cols = [0, 7, shape[0] // 2, shape[0]], [3, shape[1] - 1, shape[1]]
        _assert_blocks_exact(rng.random(shape), rows, cols, cell)
        # constant samples: the whole sample, or all but one rank, passes
        got = _assert_blocks_exact(np.ones(shape), rows, cols, cell)
        assert got[-1, -1] >= (shape[0] * shape[1] - 1) * cell

    def test_footprint(self):
        # the check's shape: 192² samples, 48 × 48 blocks; no 8-byte table of
        # (chunk, row band, column band) counts and no 8-byte per-rank copies
        # of the crossing chunks, which took the peak to 14.4 MiB
        n = 192
        xs = (np.arange(n) + 0.5) / n
        F = np.add.outer(xs**1.3, xs**0.4) * 0.4
        ends = 4 * np.arange(48) + 2
        tracemalloc.start()
        try:
            sugeno_prefix_blocks(F, ends, ends, 1.0 / n**2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20


    @given(
        st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1),
        st.sampled_from([1, 3, 1000]), st.sampled_from([1.0, 0.1, 1e-3]),
    )
    def test_property(self, nrows, ncols, seed, levels, cell_scale):
        # levels = 1 is a constant array, 3 heavy ties, 1000 nearly distinct;
        # values reach below 0 and above 1
        rng = np.random.default_rng(seed)
        F = rng.integers(0, levels, (nrows, ncols)) / max(levels - 1, 1) * 2.5 - 0.5
        rows = np.sort(rng.integers(0, nrows + 1, rng.integers(1, 5)))
        cols = np.sort(rng.integers(0, ncols + 1, rng.integers(1, 5)))
        _assert_blocks_exact(F, rows, cols, cell_scale / F.size)
