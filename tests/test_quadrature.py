"""Quadrature engine: values, statuses, exactness, order, grid scans."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudocalc import expr
from pseudocalc import generators as G
from pseudocalc import hardy as H
from pseudocalc import pseudo_integral as P
from pseudocalc import quadrature as Q
from pseudocalc import semiring as S


class TestIntegrate1D:
    def test_polynomial_exact(self):
        res = Q.integrate_1d(lambda x: x * x, 0.0, 1.0, 1e-10)
        assert res.status == "converged"
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_quarter_power(self):
        # oracle: antiderivative (4/5)x^{5/4} gives exactly 0.8 on [0,1]
        oracle = 4.0 / 5.0
        res = Q.integrate_1d(lambda x: x**0.25, 0.0, 1.0, 1e-8)
        assert res.status == "converged"
        assert res.value == pytest.approx(oracle, abs=1e-8)

    def test_inverse_square_diverges(self):
        res = Q.integrate_1d(lambda x: x**-2.0, 0.0, 1.0, 1e-8)
        assert res.status == "diverged"

    def test_integrable_singularity_not_misreported(self):
        # oracle: antiderivative 2*sqrt(x) -> 2.0.  The x^{-1/2} endpoint must
        # not be classified divergent, and the value stays close.
        res = Q.integrate_1d(lambda x: x**-0.5, 0.0, 1.0, 1e-8)
        assert res.status in ("converged", "max_refinement")
        assert res.value == pytest.approx(2.0, abs=2e-4)

    def test_interior_singularity_diverges(self):
        res = Q.integrate_1d(lambda x: 1.0 / (x - 0.5), 0.0, 1.0, 1e-10)
        assert res.status == "diverged"

    def test_overflowing_simpson_estimate_fails_its_panel(self):
        # e^{709x} is finite on [0, 1], but near x = 1 the weighted sum of a
        # panel's node values overflows; that panel fails, with no
        # RuntimeWarning (warnings are errors here), and its batch neighbour
        # on [0, 0.01] keeps the bits it gets alone
        f = lambda x: np.exp(709.0 * x)
        hot, neighbour = Q.integrate_batch(f, [0.0, 0.0], [1.0, 0.01])
        assert hot.status == "diverged" and hot.error_estimate == math.inf
        assert Q.integrate_1d(f, 0.0, 1.0).status == "diverged"
        alone = Q.integrate_1d(f, 0.0, 0.01)
        assert alone.status == "converged"
        assert (neighbour.value.hex(), neighbour.error_estimate.hex(), neighbour.evaluations) == (
            alone.value.hex(), alone.error_estimate.hex(), alone.evaluations)

    def test_a_failed_panel_outranks_the_budget(self):
        # the panel [0, 0.5] fails at its quarter node 0.125 on the second
        # level, and the budget of 10 runs out on the third: diverged
        f = lambda x: 1.0 / (x - 0.125) + np.sin(200.0 * x)
        res, = Q._adaptive(lambda x, k: Q.eval_nodes(f, x), [0.0], [1.0], 1e-8, 30, budget=10)
        assert (res.status, res.error_estimate, res.evaluations) == ("diverged", math.inf, 9)

    def test_converged_implies_error_below_tol(self):
        res = Q.integrate_1d(lambda x: math.sin(10 * x), 0.0, 1.0, 1e-9)
        assert res.status == "converged"
        assert res.error_estimate <= 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            Q.integrate_1d(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            Q.integrate_1d(lambda x: x, 0.0, 1.0, tol=0.0)


# (status, evaluation bound, value or None) of integrals with a failed limit:
# the endpoint probe decides divergence from the power law |f| ~ |x − limit|^α
# there (α ≤ -1 diverges), whatever the scale of f
ENDPOINT_CASES = {
    "x^-1": (lambda: Q.integrate_1d(lambda x: x**-1.0, 0.0, 1.0, 1e-8), "diverged", 5, None),
    # its two masses differ by rounding only, and the mass nearer the limit is the smaller
    "0.1/x": (lambda: Q.integrate_1d(lambda x: 0.1 / x, 0.0, 1.0, 1e-8), "diverged", 5, None),
    "1e-30*x^-2": (lambda: Q.integrate_1d(lambda x: 1e-30 * x**-2.0, 0.0, 1.0, 1e-8),
                   "diverged", 5, None),
    "(1-x)^-2": (lambda: Q.integrate_1d(lambda x: (1.0 - x) ** -2.0, 0.0, 1.0, 1e-8),
                 "diverged", 10, None),
    # the right-edge mirror of TestEngineContract.test_divergence_short_circuit
    "((1-s)(1-t))^-2": (lambda: Q.integrate_2d(lambda s, t: ((1.0 - s) * (1.0 - t)) ** -2.0,
                                               Q.UNIT_SQUARE, 1e-8), "diverged", 30, None),
    # integrable, so the probe must not fire; too steep to grade (k would
    # exceed MAX_GRADING), it runs to the depth cap at the tolerance scale
    # 0.5^-0.99 = 1.99, its midpoint estimate
    "x^-0.99": (lambda: Q.integrate_1d(lambda x: x**-0.99, 0.0, 1.0, 1e-8),
                "max_refinement", 12551, 75.52480054924978),
    # integrable with a zero at the probe: a zero mass there is no evidence.
    # The restart grades the x^0.5 the fit sees at 2^-6, not the x^-0.5 below
    # 2^-20, yet lands 7.4e-9 from 2/3 − 2^-19, inside the tolerance
    "(x-2^-20)*x^-0.5": (lambda: Q.integrate_1d(lambda x: (x - 2.0**-20) * x**-0.5, 0.0, 1.0, 1e-8),
                         "converged", 122, 0.6666647667647232),
    # on so short an interval the probe would lie nearer the limit than the
    # retry node, so it is not made; the graded restart gives 2·10^-3.5
    "x^-0.5 on [0, 1e-7]": (lambda: Q.integrate_1d(lambda x: x**-0.5, 0.0, 1e-7, 1e-8),
                            "converged", 57, 0.0006324555320336758),
}


@pytest.mark.parametrize("name", sorted(ENDPOINT_CASES))
def test_endpoint_power_law(name):
    run, status, max_evaluations, value = ENDPOINT_CASES[name]
    res = run()
    assert res.status == status
    assert res.evaluations <= max_evaluations
    if value is not None:
        assert res.value == value


class TestToleranceRule:
    """A tol that is not a positive finite float is refused before the integrand is called."""

    BAD = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-8]

    @staticmethod
    def never_called(*point):
        raise AssertionError("the integrand was evaluated")

    @pytest.mark.parametrize("tol", BAD)
    def test_engines(self, tol):
        for run in (lambda: Q.integrate_1d(self.never_called, 0.0, 1.0, tol),
                    lambda: Q.integrate_batch(self.never_called, [0.0, 0.0], [0.5, 1.0], tol),
                    lambda: Q.integrate_2d(self.never_called, Q.UNIT_SQUARE, tol),
                    lambda: P.g_integral_2d(G.make_generator("sqrt"), self.never_called,
                                            Q.UNIT_SQUARE, tol)):
            with pytest.raises(ValueError, match="tol must be a positive finite float"):
                run()

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_checks(self, tol, monkeypatch):
        with pytest.raises(ValueError, match="tol must be a positive finite float"):
            H.hardy_kernel_g(G.make_generator("identity"), self.never_called, 0.5, 0.5, tol)
        monkeypatch.setattr(expr, "as_function", lambda tree: self.never_called)
        scn = H.HardyScenario(f_src="x*y", check_kind="g_hardy", p=2.0, gen_spec="identity")
        with pytest.raises(ValueError, match="tol must be a positive finite float"):
            H.check_hardy_g(scn, H.HardyConfig(quad_tol=tol))


class TestIntegrate2D:
    def test_product(self):
        res = Q.integrate_2d(lambda s, t: s * t, Q.UNIT_SQUARE, 1e-10)
        assert res.status == "converged"
        assert res.value == pytest.approx(0.25, abs=1e-10)

    def test_mean_square_kernel(self):
        # worked inner integral: ∬ (s+t)²/32 = 7/192
        res = Q.integrate_2d(lambda s, t: (s + t) ** 2 / 32.0, Q.UNIT_SQUARE, 1e-10)
        assert res.value == pytest.approx(7.0 / 192.0, abs=1e-10)

    def test_zero(self):
        res = Q.integrate_2d(lambda s, t: 0.0, Q.UNIT_SQUARE, 1e-10)
        assert res.value == 0.0

    def test_inner_divergence_propagates(self):
        res = Q.integrate_2d(lambda s, t: (s * t) ** -2.0, Q.UNIT_SQUARE, 1e-8)
        assert res.status == "diverged"
        # inner divergence at interior outer nodes only (s = 0.25)
        res = Q.integrate_2d(lambda s, t: t**-2.0 if 0.2 < s < 0.3 else s * t,
                             Q.UNIT_SQUARE, 1e-8)
        assert res.status == "diverged"

    def test_edge_singularity_on_either_axis(self):
        # ∬ x^(-1/2) = 2; failing along the whole edge x = 0 gets the same
        # inward retry as failing along y = 0
        along_x = Q.integrate_2d(lambda s, t: s**-0.5, Q.UNIT_SQUARE)
        along_y = Q.integrate_2d(lambda s, t: t**-0.5, Q.UNIT_SQUARE)
        assert along_x.status != "diverged" and along_y.status != "diverged"
        assert along_x.value == pytest.approx(along_y.value, abs=1e-9)
        assert along_x.value == pytest.approx(2.0, abs=1e-4)

    def test_subrectangle(self):
        r = Q.Rect(0.0, 0.5, 0.0, 0.25)
        res = Q.integrate_2d(lambda s, t: 1.0, r, 1e-10)
        assert res.value == pytest.approx(0.125, abs=1e-12)


class TestExactnessAndOrder:
    @pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.0, 0.0), (0.3, -1.2, 0.7, 2.0)])
    def test_cubics_exact(self, coeffs):
        a, b, c, d = coeffs
        f = lambda x: a * x**3 + b * x**2 + c * x + d
        exact = a / 4.0 + b / 3.0 + c / 2.0 + d
        res = Q.integrate_1d(f, 0.0, 1.0, 1e-6)
        assert res.value == pytest.approx(exact, abs=1e-12)

    def test_simpson_order_four_on_x4(self):
        # halving the mesh cuts the error ~16x; the last node of the cumulative
        # integral is composite Simpson over the whole interval
        exact = 0.2

        def simpson(n):
            return Q.cumulative_simpson(np.linspace(0.0, 1.0, n + 1) ** 4, 1.0 / n)[-1]

        e_n = abs(simpson(8) - exact)
        e_2n = abs(simpson(16) - exact)
        assert e_n / e_2n == pytest.approx(16.0, rel=0.05)


class TestSupScan:
    """sup_integral_2d's scan: under suptimes with the unit ψ the surface is f."""

    def test_corner_max(self):
        got = P.sup_integral_2d(S.sup_times(), lambda s, t: s * t)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_interior_max(self):
        # separable: max of s(1-s) is 1/4 at 1/2, squared product -> 1/16
        got = P.sup_integral_2d(S.sup_times(), lambda s, t: s * t * (1 - s) * (1 - t))
        assert got == pytest.approx(1.0 / 16.0, abs=1e-10)

    def test_origin_max(self):
        got = P.sup_integral_2d(S.sup_times(), lambda s, t: -(s**2 + t**2))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_failed_nodes_skipped(self):
        # the peak t·(1 − |s − 1/2|) lies in a hole of failed nodes around
        # s = 1/2, so the sup is approached from its edge, |s − 1/2| = 0.01
        def f(s, t):
            d = np.abs(s - 0.5)
            return np.where(d < 0.01, np.nan, t * (1.0 - d))

        got = P.sup_integral_2d(S.sup_times(), f)
        assert 0.99 - 2.0**-12 < got < 0.99

    def test_a_tie_goes_to_the_first_band(self):
        # equal grid maxima at x = 1/4 (row band 4) and x = 3/4 (row band 12);
        # only the window around the first reaches the higher value off the grid
        def f(s, t):
            v = np.where((s == 0.25) | (s == 0.75), 0.5, 0.0) + 0.0 * t
            return np.where(s == 0.25 + 2.0**-12, 0.75, v)

        assert P.sup_integral_2d(S.sup_times(), f) == 0.75


def _level_set_measure(f, alpha: float, grid: int) -> float:
    """Area of {f >= alpha} in the unit square, counted on the midpoint samples."""
    return float(np.sum(Q.level_set_samples(f, Q.UNIT_SQUARE, grid) >= alpha)) / grid**2


class TestLevelSets:
    def test_whole_square(self):
        assert _level_set_measure(lambda s, t: s * t, 0.0, 256) == 1.0

    def test_min_half(self):
        # exact region: [0.5,1]^2, area 0.25
        got = _level_set_measure(lambda s, t: min(s, t), 0.5, 512)
        assert got == pytest.approx(0.25, abs=2.0 / 512)

    def test_null_set(self):
        got = _level_set_measure(lambda s, t: s * t, 1.0, 256)
        assert got <= 1.0 / 256**2 + 1e-15

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotone_in_alpha(self, a1, a2):
        lo, hi = min(a1, a2), max(a1, a2)
        f = lambda s, t: (s + t) / 2.0
        m_lo = _level_set_measure(f, lo, 128)
        m_hi = _level_set_measure(f, hi, 128)
        assert m_hi <= m_lo + 1e-15

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            P.sugeno_integral_2d(lambda s, t: s, Q.UNIT_SQUARE, 1)


class TestCumulativeSimpson:
    def test_matches_closed_form(self):
        xs = np.linspace(0.0, 1.0, 257)
        cs = Q.cumulative_simpson(xs**3, 1.0 / 256.0)
        exact = xs**4 / 4.0
        assert float(np.max(np.abs(cs - exact))) < 1e-10

    def test_both_axes(self):
        xs = np.linspace(0.0, 1.0, 65)
        vals = np.outer(xs, np.ones(65))
        along0 = Q.cumulative_simpson(vals.copy(), 1.0 / 64.0, axis=0)
        assert along0[-1, 0] == pytest.approx(0.5, abs=1e-12)
        along1 = Q.cumulative_simpson(vals.T.copy(), 1.0 / 64.0, axis=1)
        assert along1[0, -1] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_in_place_matches_the_allocating_formula(self, axis):
        # the formula as it was written on whole arrays, one temporary per
        # operation; the in-place routine must give each node the same bits,
        # signed zeros included, with or without a scratch buffer
        def allocating(values, h, axis):
            v = np.moveaxis(values, axis, -1)
            out = np.zeros_like(v)
            blocks = h / 3.0 * (v[..., 0:-2:2] + 4.0 * v[..., 1:-1:2] + v[..., 2::2])
            out[..., 2::2] = np.cumsum(blocks, axis=-1)
            out[..., 1::2] = out[..., 0:-2:2] + h / 12.0 * (
                5.0 * v[..., 0:-2:2] + 8.0 * v[..., 1:-1:2] - v[..., 2::2])
            return np.moveaxis(out, -1, axis)

        rng = np.random.default_rng(20261020)
        for shape in ((17, 9), (9, 17), (33, 33)):
            values = rng.standard_normal(shape) * rng.choice([1e-300, 1e-3, 1.0, 1e200], shape)
            values[rng.random(shape) < 0.2] = 0.0
            values[rng.random(shape) < 0.2] = -0.0
            want = allocating(values, 1.0 / 16.0, axis)
            scratch = np.full(values.size, np.nan)
            for got in (Q.cumulative_simpson(values.copy(), 1.0 / 16.0, axis),
                        Q.cumulative_simpson(values.copy(), 1.0 / 16.0, axis, scratch)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
        zeros = -np.zeros((9, 9))
        for axis_zero in (0, 1):
            got = Q.cumulative_simpson(zeros.copy(), 0.125, axis_zero)
            want = allocating(zeros, 0.125, axis_zero)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.signbit(got).any() and not np.signbit(got).all()

    def test_integrates_in_place(self):
        values = np.linspace(0.0, 1.0, 9) ** 2
        assert Q.cumulative_simpson(values, 0.125) is values
        assert values[-1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_rejects_even_node_count(self):
        with pytest.raises(ValueError):
            Q.cumulative_simpson(np.zeros(4), 0.1)


class TestRect:
    def test_validation(self):
        with pytest.raises(ValueError):
            Q.Rect(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Q.Rect(0.5, 0.2, 0.0, 1.0)
        with pytest.raises(ValueError):
            Q.Rect(0.0, 1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            Q.Rect(-0.1, 1.0, 0.0, 1.0)

    def test_area(self):
        assert Q.Rect(0.0, 0.5, 0.0, 0.5).area == 0.25

    def test_reduction_order_independence(self):
        # panel values are summed sequentially in left-endpoint order; the
        # mirrored integrand refines the mirrored panels, summed in the
        # opposite order, so the two values agree up to rounding (~1e-12)
        f = lambda x: math.cos(17.0 * x) + 1.5
        a = Q.integrate_1d(f, 0.0, 1.0, 1e-10).value
        b = Q.integrate_1d(lambda x: f(1.0 - x), 0.0, 1.0, 1e-10).value
        assert a == pytest.approx(b, abs=1e-12)


# (status, evaluations, value) of the depth-first scalar engine that the
# level-synchronous engine replaced, recorded on the integrands above; the
# singular rows were re-recorded when the endpoint probe came in: it costs
# x^-0.5 one evaluation and each t^-0.5 inner integral one, s^-0.5 one outer
# node (an inner integral of 5), and decides x^-2 and (s*t)^-2 at the first
# level; and again when a limit panel still refining at RESTART_DEPTH
# restarted its integral graded
DEPTH_FIRST_RESULTS = {
    "x^2": ("converged", 5, 0.3333333333333333),
    "x^0.25": ("converged", 114, 0.8),
    "x^-0.5": ("converged", 162, 2.0),
    "x^-2": ("diverged", 5, 0.0),
    "1/(x-0.5)": ("diverged", 3, 0.0),
    "sin(10x)": ("converged", 501, 0.18390715290762874),
    "s*t": ("converged", 30, 0.25),
    "(s*t)^-2": ("diverged", 30, 0.0),
    "s^-0.5": ("converged", 972, 1.9999999999999996),
    "t^-0.5": ("converged", 1075, 2.0),
}

ENGINE_CASES = {
    "x^2": lambda: Q.integrate_1d(lambda x: x * x, 0.0, 1.0, 1e-10),
    "x^0.25": lambda: Q.integrate_1d(lambda x: x**0.25, 0.0, 1.0, 1e-8),
    "x^-0.5": lambda: Q.integrate_1d(lambda x: x**-0.5, 0.0, 1.0, 1e-8),
    "x^-2": lambda: Q.integrate_1d(lambda x: x**-2.0, 0.0, 1.0, 1e-8),
    "1/(x-0.5)": lambda: Q.integrate_1d(lambda x: 1.0 / (x - 0.5), 0.0, 1.0, 1e-10),
    "sin(10x)": lambda: Q.integrate_1d(lambda x: math.sin(10 * x), 0.0, 1.0, 1e-9),
    "s*t": lambda: Q.integrate_2d(lambda s, t: s * t, Q.UNIT_SQUARE, 1e-10),
    "(s*t)^-2": lambda: Q.integrate_2d(lambda s, t: (s * t) ** -2.0, Q.UNIT_SQUARE, 1e-8),
    "s^-0.5": lambda: Q.integrate_2d(lambda s, t: s**-0.5, Q.UNIT_SQUARE),
    "t^-0.5": lambda: Q.integrate_2d(lambda s, t: t**-0.5, Q.UNIT_SQUARE),
}


# integrand calls, evaluations and value of two deep g-Hardy right-hand sides
# (∬ g(f^p) over the unit square at the checks' tol 1e-8 and depth cap 30).
# Both ends at 0 behave like x^a with a small a, which the plain engine
# refines to the depth cap; the inner integrals and the outer one restart
# graded at RESTART_DEPTH, and (x²y²)^(1/12) integrates to 36/49 to an ulp
REFINEMENT_CONTRACT = {
    # Remark 3.5(a): g = sqrt, f = x²y², p = 1/6
    ("x^2*y^2", "sqrt", 1.0 / 6.0): (40, 16432, 0.7346938775510203),
    # the slowest right-hand side of the benchmark's 80 g_hardy checks
    ("x^0.17393906703204287*y^0.1740217941277593", "identity", 2.0):
        (40, 15576, 0.5503581940228711),
}


class TestRefinementContract:
    @pytest.mark.parametrize("f_src,gen_spec,p", sorted(REFINEMENT_CONTRACT))
    def test_deep_right_hand_side(self, f_src, gen_spec, p):
        f = expr.as_function(expr.parse(f_src))
        calls = 0

        def f_pow(s, t):
            nonlocal calls
            calls += 1
            return f(s, t) ** p

        _, res, _ = P.g_integral_2d(G.make_generator(gen_spec), f_pow, Q.UNIT_SQUARE,
                                    tol=1e-8, max_depth=30)
        assert res.status == "converged"
        # per inner batch, one call for its first nodes and one per level
        assert (calls, res.evaluations, res.value) == REFINEMENT_CONTRACT[f_src, gen_spec, p]

    def test_sum_is_sequential_in_left_end_order(self):
        # 4,970 accepted panel terms of both signs, from 1e-6 to 19 in size,
        # whose sum in left-end order by a Python loop is the value below; a
        # pairwise sum (np.sum) of the same terms gives -731.7931114958124.
        # The phase puts a zero of the sine at the midpoint, so the tolerance
        # scale stays 1
        f = lambda x: np.exp(12.0 * x) * np.sin(90.0 * (x - 0.5)) + 1e-3 / (x + 1e-3)
        res = Q.integrate_1d(f, 0.0, 1.0, 1e-8)
        assert (res.evaluations, res.value) == (19881, -731.7931114958129)

    def test_zero_width_halves_keep_their_place(self):
        # intervals of about 2,000 and 3,000 ulps refined to depth 24 split
        # panels too narrow to halve: a zero-width half with a nonzero term
        # shares its left end with its neighbour, and the stable sort keeps
        # the two in the order the levels finished them, alone or in a batch
        # (an unstable sort reads ...ca7p-28 and ...fed9p-29 here, alone)
        f = lambda x: np.exp(12.0 * x) * np.sin(90.0 * x) + 1e-3 / (x + 1e-3)
        lows, highs = [0.911934132260798, 0.7763952955906338], [0.911934132261017, 0.7763952955909361]
        tol = 1.6792965507522858e-14
        alone = [Q.integrate_1d(f, lo, hi, tol, 24) for lo, hi in zip(lows, highs)]
        assert Q.integrate_batch(f, np.array(lows), np.array(highs), tol, 24) == alone
        assert [(res.value.hex(), res.evaluations, res.status) for res in alone] == [
            ("0x1.4a9f2c0204ca8p-28", 3837, "max_refinement"),
            ("0x1.3eadc07fdfed8p-29", 12369, "max_refinement")]


# integrate_2d results recorded when each outer level ran its own inner batch,
# as (value.hex(), error_estimate, evaluations, status), at tol 1e-8: computing
# inner integrals ahead of the outer engine must keep every bit and count.
# The singular rows and exp(80xy) were recorded again, with LOOKAHEAD = 0 and
# 2 agreeing, when limit panels restarted graded and the tolerance scaled with
# the midpoint estimate; on a graded outer level the quarter nodes are formed
# in u and mapped
LOOKAHEAD_BITS = {
    "x^(-0.5)": ("0x1.ffffffffffffep+0", 2.960594732333751e-17, 972, "converged"),
    "y^(-0.5)": ("0x1.0000000000000p+1", 0.0, 1075, "converged"),
    "y^(-0.99)": ("0x1.2e196550af810p+6", 0.0, 99320, "max_refinement"),
    "(x*y)^(-0.6)": ("0x1.8fffffffffffdp+2", 5.921189464667501e-17, 35928, "converged"),
    "(x*y)^(-2)": ("0x0.0p+0", math.inf, 30, "diverged"),
    "x/(x+y)": ("0x1.ffffffff87f7ep-2", 3.952187118128966e-09, 61384, "converged"),
    "x^0.1447*y^0.3377": ("0x1.4e5d3112bd313p-1", 7.401486830834377e-18, 16340, "converged"),
    "exp(80*x*y)": ("0x0.0p+0", math.inf, 1096216, "diverged"),
    "scalar only: 1/(1+s*t)": ("0x1.a51a66254abacp-1", 3.2778811294894204e-09, 2090, "converged"),
    "scalar only: t^-2 on 0.2<s<0.3": ("0x0.0p+0", math.inf, 30, "diverged"),
}
SCALAR_ONLY_2D = {
    "scalar only: 1/(1+s*t)": lambda s, t: 1.0 / (1.0 + s * t) if s >= 0.0 else 0.0,
    "scalar only: t^-2 on 0.2<s<0.3": lambda s, t: t**-2.0 if 0.2 < s < 0.3 else s * t,
}
# integrand nodes per reported evaluation, at most: an inner integral computed
# ahead spends at most SPECULATIVE_BUDGET, and after one is dropped nothing
# more is computed ahead (y^(-0.99), too steep to grade, evaluates 1.06 nodes
# per evaluation; were it to go on computing ahead it would evaluate 1.18)
LOOKAHEAD_WASTE = {"exp(80*x*y)": 1.01, "y^(-0.99)": 1.1}


# ∫₀¹ x^a and its mirror (1 − x)^a, whose ends the plain engine could not
# settle (x^-0.9 read 13.57 with max_refinement, x^-0.5 2.00005): each
# restarts graded, converges within 1e-8 of 1/(1 + a), and spends at most
# the evaluations given here, the same at either end
GRADED_ENDS = {-0.9: 200, -0.5: 180, 1.0 / 6.0: 120, 0.348: 120}

# (value.hex(), error_estimate.hex(), evaluations, status) of smooth integrals,
# recorded before endpoint grading and the tolerance scale came in: they never
# restart, and their scale is 1
_IDENTITY = G.make_generator("identity")
SMOOTH_BITS = {
    "sin(10x)": (lambda: Q.integrate_1d(lambda x: np.sin(10.0 * x), 0.0, 1.0, 1e-9),
                 ("0x1.78a45039e8eedp-3", "0x1.1fbc0ccfaaaaap-31", 501, "converged")),
    "x^2": (lambda: Q.integrate_1d(lambda x: x * x, 0.0, 1.0, 1e-10),
            ("0x1.5555555555555p-2", "0x0.0p+0", 5, "converged")),
    "s*t": (lambda: P.g_integral_2d(_IDENTITY, lambda s, t: s * t, Q.UNIT_SQUARE, tol=1e-8)[1],
            ("0x1.0000000000000p-2", "0x0.0p+0", 30, "converged")),
    "(x+y)/2": (lambda: P.g_integral_2d(_IDENTITY, lambda s, t: (s + t) / 2.0, Q.UNIT_SQUARE, tol=1e-8)[1],
                ("0x1.0000000000000p-1", "0x0.0p+0", 30, "converged")),
}

# tracemalloc peak (bytes) of integrate_2d at tol 1e-8 before endpoint
# grading came in; graded restarts must not raise it
PARENT_PEAKS = {"x/(x+y)": 2020227, "exp(80*x*y)": 52693516, "x^(-0.5)": 2731266}


class TestGradedRestart:
    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("a", sorted(GRADED_ENDS))
    def test_endpoint_power_law_is_graded(self, a, mirrored):
        f = (lambda x: (1.0 - x) ** a) if mirrored else (lambda x: x**a)
        res = Q.integrate_1d(f, 0.0, 1.0, 1e-8)
        assert res.status == "converged"
        assert abs(res.value - 1.0 / (1.0 + a)) <= 1e-8
        assert res.evaluations <= GRADED_ENDS[a]

    def test_double_integrals_graded_on_both_levels(self):
        # Remark 3.5(a)'s integrand took 302,838 evaluations to 3.5e-11 from 36/49;
        # (xy)^-0.6 read as diverged after 322,454
        res = Q.integrate_2d(lambda s, t: (s * t) ** (1.0 / 6.0), Q.UNIT_SQUARE, 1e-8)
        assert abs(res.value - 36.0 / 49.0) <= 1e-12 and res.evaluations < 50_000
        res = Q.integrate_2d(lambda s, t: (s * t) ** -0.6, Q.UNIT_SQUARE, 1e-8)
        assert res.status == "converged" and abs(res.value - 6.25) <= 1e-8

    @pytest.mark.parametrize("name", sorted(SMOOTH_BITS))
    def test_smooth_integrands_keep_their_bits(self, name):
        run, want = SMOOTH_BITS[name]
        res = run()
        assert (res.value.hex(), res.error_estimate.hex(), res.evaluations, res.status) == want

    def test_restart_draws_on_what_is_left_of_the_budget(self):
        # x^-0.9 restarts after the plain levels' evaluations; with a budget of
        # 150 the restart gets what is left and runs out, within the budget
        f = lambda x, _owner: Q.eval_nodes(lambda y: y**-0.9, x)
        res, = Q._adaptive(f, [0.0], [1.0], 1e-8, 30)
        assert res.status == "converged" and res.evaluations > 150
        res, = Q._adaptive(f, [0.0], [1.0], 1e-8, 30, budget=150)
        assert res.status == "max_refinement" and res.evaluations <= 150

    @pytest.mark.parametrize("src,exact,within,evaluations", [
        ("(x*(1-x))^(-0.5)", math.pi, 2e-8, 838),
        ("(x*(1-x))^0.25", math.gamma(1.25) ** 2 / math.gamma(2.5), 1e-10, 402),
    ])
    def test_both_ends_graded_by_one_map(self, monkeypatch, src, exact, within, evaluations):
        maps = []
        graded_map = Q._graded_map
        monkeypatch.setattr(Q, "_graded_map", lambda *args: maps.append(args) or graded_map(*args))
        f = _parsed(src)
        res = Q.integrate_1d(lambda x: f(x, 0.0), 0.0, 1.0, 1e-8)
        assert res.status == "converged" and abs(res.value - exact) <= within
        assert res.evaluations <= evaluations
        (_, _, k_low, k_high), = maps
        assert k_low[0] > 1.0 and k_high[0] > 1.0

    @pytest.mark.parametrize("src", sorted(PARENT_PEAKS))
    def test_memory_peak_not_raised(self, src):
        f = _parsed(src)
        tracemalloc.start()
        try:
            Q.integrate_2d(f, Q.UNIT_SQUARE, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PARENT_PEAKS[src]


class TestToleranceScale:
    def test_large_integral_scales_its_tolerance(self):
        # ∬ exp(5(x+y)²) = 1317877.4500252919 (scipy dblquad); at an absolute
        # 1e-8 it took 385 M evaluations and 88 s
        start = time.perf_counter()
        res = Q.integrate_2d(lambda s, t: np.exp(5.0 * (s + t) ** 2), Q.UNIT_SQUARE, 1e-8)
        assert time.perf_counter() - start < 1.0
        assert res.status == "converged"
        assert res.value == pytest.approx(1317877.4500252919, rel=1e-12)

    def test_steep_finite_end_does_not_loosen_the_scale(self):
        # the scale is max(1, |(b − a)·f(m)|) = 1.41 here; the first Simpson
        # estimate, 17.8 with f(0) = 100, would let the restart settle 9e-7 off
        res = Q.integrate_1d(lambda x: (x + 1e-4) ** -0.5, 0.0, 1.0, 1e-8)
        assert res.status == "converged"
        assert abs(res.value - 2.0 * (math.sqrt(1.0001) - 0.01)) <= 1e-9


class TestBlowupScale:
    # the capped blow-up thresholds are BLOWUP_VALUE·s and BLOWUP_PANEL·s, s the
    # integral's scale; absolute thresholds read this as diverged (the 2-D case
    # is TestIntegrate::test_integrable_product_singularity_converges in test_cli)
    def test_large_integrable_end_is_not_divergent(self):
        f = _parsed("1e3*x^(-0.99)")
        res = Q.integrate_1d(lambda x: f(x, 0.0), 0.0, 1.0, 1e-8)
        assert res.status == "max_refinement" and res.value == 75524.80054924975

    def test_interior_pole_is_divergent(self):
        # no node lands on x = 0.3, so only the capped panels' blow-up,
        # relative to the scale, reads ∫ (x − 0.3)^−2 as divergent
        res = Q.integrate_1d(lambda x: 1 / (x - 0.3) ** 2, 0.0, 1.0)
        assert (res.status, res.error_estimate) == ("diverged", math.inf)


class TestInnerLookahead:
    @pytest.mark.parametrize("name", sorted(LOOKAHEAD_BITS))
    def test_same_bits_as_one_inner_batch_per_outer_level(self, name):
        if name in SCALAR_ONLY_2D:
            integrand = SCALAR_ONLY_2D[name]
        else:
            f = _parsed(name)
            nodes = 0

            def integrand(s, t):
                nonlocal nodes
                nodes += t.size
                return f(s, t)

        res = Q.integrate_2d(integrand, Q.UNIT_SQUARE, 1e-8)
        assert (res.value.hex(), res.error_estimate, res.evaluations, res.status) == LOOKAHEAD_BITS[name]
        if name in LOOKAHEAD_WASTE:
            assert nodes <= LOOKAHEAD_WASTE[name] * res.evaluations


class TestEngineContract:
    @pytest.mark.parametrize("name", sorted(DEPTH_FIRST_RESULTS))
    def test_matches_depth_first_engine(self, name):
        # same nodes, same accept/refine decisions, same summation order: only
        # numpy's array pow may move a node value by an ulp
        status, evaluations, value = DEPTH_FIRST_RESULTS[name]
        res = ENGINE_CASES[name]()
        assert res.status == status
        assert res.evaluations == evaluations
        assert res.value == pytest.approx(value, rel=1e-15, abs=0.0)

    def test_scalar_only_callable_matches_numpy_twin(self):
        # the branch makes the first callable reject arrays, so it is called
        # once per node; +, -, * and / give the same bits either way
        scalar_1d = lambda x: x * x * (3.0 - x) if x >= 0.0 else 0.0
        twin_1d = lambda x: x * x * (3.0 - x)
        assert Q.integrate_1d(scalar_1d, 0.0, 1.0, 1e-12) == Q.integrate_1d(twin_1d, 0.0, 1.0, 1e-12)
        scalar_2d = lambda s, t: 1.0 / (1.0 + s * t) if s >= 0.0 else 0.0
        twin_2d = lambda s, t: 1.0 / (1.0 + s * t)
        assert Q.integrate_2d(scalar_2d, Q.UNIT_SQUARE) == Q.integrate_2d(twin_2d, Q.UNIT_SQUARE)

    def test_divergence_short_circuit(self):
        # the endpoint probe decides the divergence at the first level;
        # refining the square first would cost millions of evaluations
        res = Q.integrate_2d(lambda s, t: (s * t) ** -2.0, Q.UNIT_SQUARE, 1e-8)
        assert res.status == "diverged"
        assert res.evaluations <= 2 * DEPTH_FIRST_RESULTS["(s*t)^-2"][1]

    def test_batch_matches_single_integrals(self):
        # the last two batches have left ends that interleave across
        # integrals, so the final sort mixes their terms: [0.1, 0.9] spans the
        # pole at 0.8 and diverges with a partial value, and the cubic's
        # integrals settle in one panel (a single term) each
        root_cos = lambda x: np.sqrt(x) * np.cos(3.0 * x)
        pole = lambda x: np.sqrt(x) * np.cos(3.0 * x) + 1.0 / (x - 0.8)
        cubic = lambda x: x * x * (3.0 - x)
        cases = [(root_cos, [0.0, 0.0, 0.0], [0.1, 0.5, 1.0]),
                 (pole, [0.5, 0.0, 0.25, 0.1, 0.85, 0.0], [0.7, 0.75, 0.3, 0.9, 1.0, 0.5]),
                 (cubic, [0.0, 0.2, 0.5], [0.6, 1.0, 0.9])]
        for f, lows, highs in cases:
            batch = Q.integrate_batch(f, np.array(lows), np.array(highs), 1e-10)
            assert batch == [Q.integrate_1d(f, lo, hi, 1e-10) for lo, hi in zip(lows, highs)]
            if f is pole:
                assert batch[3].status == "diverged" and batch[3].value != 0.0
            if f is cubic:
                assert [res.evaluations for res in batch] == [5, 5, 5]

    def test_batch_order_does_not_matter(self):
        # the final sort orders terms by left end, not by owner: reversing the
        # integrals of a batch reverses its results, bit for bit
        f = lambda x: np.sqrt(x) * np.cos(3.0 * x) + 1.0 / (x - 0.8)
        lows, highs = [0.5, 0.0, 0.25, 0.1, 0.85, 0.0], [0.7, 0.75, 0.3, 0.9, 1.0, 0.5]
        batch = Q.integrate_batch(f, np.array(lows), np.array(highs), 1e-10)
        backwards = Q.integrate_batch(f, np.array(lows[::-1]), np.array(highs[::-1]), 1e-10)
        assert backwards == batch[::-1]

    def test_unstarted_integral_sums_to_positive_zero(self):
        # 1/(x-0.5)^2 fails at 0.5 and the inward probe finds it divergent, so
        # [0.5, 1] never starts: it has no terms, and its +0.0 accumulator is
        # its value; its neighbour in the batch is untouched
        f = lambda x: 1.0 / (x - 0.5) ** 2
        fine, unstarted = Q.integrate_batch(f, np.array([0.0, 0.5]), np.array([0.25, 1.0]), 1e-10)
        assert fine == Q.integrate_1d(f, 0.0, 0.25, 1e-10)
        assert unstarted.status == "diverged" and unstarted.error_estimate == math.inf
        assert unstarted.value == 0.0 and math.copysign(1.0, unstarted.value) == 1.0

    def test_add_at_adds_in_index_order(self):
        # the final sum relies on np.add.at adding repeated indices one by one
        # in index order: 1 + 1e16 rounds to 1e16, so only that order gives 0.0
        # for the first accumulator, and the reverse order 1.0 for the second
        acc = np.zeros(2)
        np.add.at(acc, np.array([0, 0, 0, 1, 1, 1]), np.array([1.0, 1e16, -1e16, -1e16, 1e16, 1.0]))
        assert acc.tolist() == [0.0, 1.0]

    def test_non_numeric_values_fail_every_node(self):
        res = Q.integrate_1d(lambda x: "a", 0.0, 1.0)
        assert res.status == "diverged" and res.error_estimate == math.inf

    def test_sup_scan_with_every_node_failed_is_minus_infinity(self):
        assert P.sup_integral_2d(S.sup_times(), lambda s, t: math.nan) == -math.inf

    def test_eval_nodes_marks_failures(self):
        xs = np.array([0.0, 0.5, 1.0])
        assert np.isnan(Q.eval_nodes(lambda x: 1.0 / x, xs)).tolist() == [True, False, False]

        def scalar_only(x):
            if x == 0.5:
                raise ZeroDivisionError
            return x

        got = Q.eval_nodes(scalar_only, xs)
        assert np.isnan(got[1]) and got[0] == 0.0 and got[2] == 1.0
        assert Q.eval_nodes(lambda x: 2.0, xs).tolist() == [2.0, 2.0, 2.0]

    def test_grid_eval_returns_an_owned_array(self):
        # grid_eval passes f broadcast views of xs and ys, and an f that
        # returns its x argument hands one back; callers write into the result
        xs, ys = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 3)
        vals = Q.grid_eval(lambda x, y: x, xs, ys)
        assert vals.flags.owndata and vals.flags.writeable
        assert vals.tolist() == [[x] * 3 for x in xs.tolist()]
        vals[0, 0] = 7.0
        assert xs[0] == 0.0

    def test_grid_eval_inward_retries_axis_nodes_only(self):
        f = lambda x, y: x / (x + y) + 1.0 / (x - 0.5) ** 2
        xs = ys = np.array([0.0, 0.5, 1.0])
        vals = Q.grid_eval_inward(f, xs, ys)
        # the origin is retried at (BOUNDARY_INSET, BOUNDARY_INSET); the
        # failures on x = 0.5 include (0.5, 0), which is on the y = 0 axis
        # but fails again at y = BOUNDARY_INSET
        assert vals[0, 0] == f(Q.BOUNDARY_INSET, Q.BOUNDARY_INSET)
        assert np.isnan(vals[1]).all()
        assert np.isfinite(np.delete(vals, 1, axis=0)).all()


def _full_mesh(f, xs, ys):
    # the evaluation grid_eval replaces: f on full-size coordinate arrays
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return Q.eval_nodes(f, X, Y)


def _parsed(src):
    return expr.as_function(expr.parse(src))


def _psi_weighted_sup(semiring, f_src, psi_src):
    # the surface sup_integral_2d scans
    f, psi = _parsed(f_src), P.PsiDensity.from_string(psi_src)
    return lambda x, y: P.psi_weighted(semiring, f(x, y), psi(x), psi(y))


def _scalar_only(x, y):
    if x >= 0.5:   # a branch on a float: an array raises
        return math.sqrt(x) + y
    return 1.0 / (x - 0.25) + y


GRID_EVAL_CASES = {
    "affine-mean": _parsed("0.273355237703685*(x+y)/2"),
    "monomial": _parsed("x^2.5057546815834546*y^0.33032148405336637"),
    "product": _parsed("0.3689448892419728*x^1.876633796354771*y^2.5057546815834546"
                       "+0.31718750422482817*x^0.33032148405336637*y^0.08182447617138511"),
    "monomial^p": (lambda f: lambda x, y: f(x, y) ** 1.5)(_parsed("x^3.149996216594045*y^3.0615785330599126")),
    "x/(x+y)": _parsed("x/(x+y)"),
    "ln(x-0.3)": _parsed("ln(x-0.3)"),
    "psi-weighted suptimes": _psi_weighted_sup(S.sup_times(), "x*y", "1-x/2"),
    "psi-weighted supplus": _psi_weighted_sup(S.sup_plus(), "(x+y)/2", "0.9"),
    "numpy 1/x (inf on an axis)": lambda x, y: 1.0 / x + y,
    "constant": lambda x, y: 0.37 + 0.0 * x,
    "python constant": lambda x, y: 0.37,
    "x": lambda x, y: x,
    "scalar only": _scalar_only,
    "does not broadcast": lambda x, y: np.zeros(3) + x.size + y.size if np.ndim(x) else x + y,
}


class TestSeparableGridEval:
    """grid_eval calls f once on a column and a row: the same bits as full coordinate arrays."""

    XS = np.linspace(0.0, 1.0, 33)
    YS = (np.arange(17) + 0.5) / 17

    @pytest.mark.parametrize("name", sorted(GRID_EVAL_CASES))
    def test_matches_full_mesh(self, name):
        f = GRID_EVAL_CASES[name]
        for xs, ys in ((self.XS, self.YS), (self.YS, self.XS), (self.XS, self.XS)):
            got = Q.grid_eval(f, xs, ys)
            want = _full_mesh(f, xs, ys)
            assert got.shape == (xs.size, ys.size)
            assert got.tobytes() == want.tobytes()     # NaN where a node fails, the same bits elsewhere
            assert got.flags.owndata and got.flags.writeable

    def test_failed_nodes_are_nan(self):
        vals = Q.grid_eval(GRID_EVAL_CASES["x/(x+y)"], self.XS, self.XS)
        assert np.isnan(vals[0, 0]) and np.isfinite(np.delete(vals.ravel(), 0)).all()
        vals = Q.grid_eval(GRID_EVAL_CASES["ln(x-0.3)"], self.XS, self.YS)
        assert np.isnan(vals[self.XS <= 0.3]).all() and np.isfinite(vals[self.XS > 0.3]).all()

    def test_separable_call_costs_a_row_and_a_column(self):
        calls = []

        def f(x, y):
            calls.append((np.shape(x), np.shape(y)))
            return x**2.5 * y**0.5

        Q.grid_eval(f, self.XS, self.YS)
        assert calls == [((33, 1), (1, 17))]

    def test_fallbacks_get_full_coordinate_arrays(self):
        # a callable that rejects the column and row is called on full
        # (broadcast-view) coordinate arrays, then once per node with floats
        seen = []

        def scalar_only(x, y):
            seen.append((np.shape(x), np.shape(y)))
            return _scalar_only(x, y)

        Q.grid_eval(scalar_only, self.XS, self.YS)
        assert seen[:3] == [((33, 1), (1, 17)), ((33, 17), (33, 17)), ((), ())]
        assert len(seen) == 2 + 33 * 17

        shapes = []

        def wrong_shape(x, y):
            shapes.append(np.shape(x))
            return GRID_EVAL_CASES["does not broadcast"](x, y)

        vals = Q.grid_eval(wrong_shape, self.XS, self.YS)
        assert shapes[:2] == [(33, 1), (33, 17)] and len(shapes) == 2 + 33 * 17
        assert vals.tolist() == np.add.outer(self.XS, self.YS).tolist()
