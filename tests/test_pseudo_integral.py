"""g-integrals, sup-integrals, Sugeno integral: values and order properties."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudocalc import generators as G
from pseudocalc import pseudo_integral as P
from pseudocalc import semiring as S
from pseudocalc.harness import SplitMix64
from pseudocalc.quadrature import UNIT_SQUARE, Rect, integrate_1d, integrate_2d, sup_scan_2d


class TestGIntegral1D:
    def test_identity_reduces_to_riemann(self):
        assert P.g_integral_1d(G.identity(), lambda x: x, 0, 1) == pytest.approx(0.5, abs=1e-10)

    def test_sqrt_of_square(self):
        # closed form: g⁻¹(∫ x dx) = (1/2)² = 1/4
        got = P.g_integral_1d(G.sqrt_gen(), lambda x: x * x, 0, 1)
        assert got == pytest.approx(0.25, abs=1e-10)

    def test_half_linear(self):
        # closed form: 2·(1/4) = 1/2
        got = P.g_integral_1d(G.half(), lambda x: x, 0, 1)
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_divergence_error(self):
        with pytest.raises(P.DivergenceError):
            P.g_integral_1d(G.sqrt_gen(), lambda x: x**-4.0, 0, 1)


class TestGIntegral2D:
    def test_sqrt_squares(self):
        # ∬ st = 1/4, then inverse squares: 1/16
        got = P.g_integral_2d(G.sqrt_gen(), lambda s, t: (s * t) ** 2, UNIT_SQUARE)
        assert got == pytest.approx(1.0 / 16.0, abs=1e-10)

    def test_half_mean(self):
        # ∬ (s+t)/4 = 1/4, inverse doubles: 1/2
        got = P.g_integral_2d(G.half(), lambda s, t: (s + t) / 2.0, UNIT_SQUARE)
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_identity_constant(self):
        assert P.g_integral_2d(G.identity(), lambda s, t: 1.0, UNIT_SQUARE) == pytest.approx(1.0, abs=1e-12)

    def test_identity_oracle_equivalence(self):
        rng = SplitMix64(21)
        for _ in range(10):
            a = rng.uniform(0.1, 3.0)
            b = rng.uniform(0.1, 3.0)
            f2 = lambda s, t: s**a * t**b
            direct = integrate_2d(f2, UNIT_SQUARE, 1e-10).value
            assert P.g_integral_2d(G.identity(), f2, UNIT_SQUARE, 1e-10) == pytest.approx(
                direct, abs=1e-10
            )
            f1 = lambda x: x**a
            d1 = integrate_1d(f1, 0.0, 1.0, 1e-10).value
            assert P.g_integral_1d(G.identity(), f1, 0.0, 1.0, 1e-10) == pytest.approx(
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
                left = P.g_integral_1d(gen, fsum, 0, 1, 1e-10)
                right = float(S.pseudo_add(
                    s,
                    P.g_integral_1d(gen, f1, 0, 1, 1e-10),
                    P.g_integral_1d(gen, f2, 0, 1, 1e-10),
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
                left = P.g_integral_1d(gen, scaled, 0, 1, 1e-10)
                right = float(S.pseudo_mul(s, lam, P.g_integral_1d(gen, f, 0, 1, 1e-10)))
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
                v1 = P.g_integral_1d(gen, f1, 0, 1, 1e-10)
                v2 = P.g_integral_1d(gen, f2, 0, 1, 1e-10)
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
                small = P.g_integral_2d(gen, f, Rect(0, x1, 0, y1), 1e-10)
                large = P.g_integral_2d(gen, f, Rect(0, x2, 0, y2), 1e-10)
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
            lhs = P.g_integral_1d(gen, f, 0, 1, 1e-10) ** s_exp
            rhs = P.g_integral_1d(gen, lambda x: f(x) ** s_exp, 0, 1, 1e-10)
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
    def test_unit_density_gives_sup(self):
        got = P.sup_integral_2d(S.sup_times(), lambda x, y: x * y)
        assert got == pytest.approx(1.0, abs=1e-12)
        # with unit ψ the sup-integral is the plain sup scan, node for node
        f = lambda x, y: np.sin(3.0 * x) * y * (1.5 - y)
        assert P.sup_integral_2d(S.sup_times(), f) == sup_scan_2d(f)

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
        emp = P.sugeno_from_sorted(np.sort(samples, axis=None)[::-1], 1.0 / 512**2)
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
                assert P.sugeno_from_sorted(descending, cell) == reference(descending, cell)


def _blocks_by_sorting(F, row_ends, col_ends, cell):
    return np.array([[P.sugeno_from_sorted(np.sort(F[:a, :b], axis=None)[::-1], cell)
                      for b in col_ends] for a in row_ends]).reshape(len(row_ends), len(col_ends))


def _assert_blocks_exact(F, row_ends, col_ends, cell):
    got = P.sugeno_prefix_blocks(F, row_ends, col_ends, cell)
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

    @pytest.mark.parametrize("crossing", [31, 32, 33, 64])
    def test_crossing_at_chunk_boundary(self, crossing):
        # chunks hold n = 16 ranks; the top `crossing` samples share the value
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
        got = P.sugeno_prefix_blocks(F, [30], [30], cell)
        assert got.shape == (1, 1)
        assert got[0, 0] == P.sugeno_from_sorted(np.sort(F, axis=None)[::-1], cell)

    def test_empty_sample(self):
        assert P.sugeno_prefix_blocks(np.zeros((0, 0)), [0, 0], [0], 0.1).tolist() == [[0.0], [0.0]]

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
