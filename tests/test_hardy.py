"""Hardy constants, kernels, and the four inequality verifiers."""

import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from pseudocalc import cli, expr
from pseudocalc import generators as G
from pseudocalc import hardy as H
from pseudocalc import pseudo_integral as P
from pseudocalc.harness import (FuzzConfig, SplitMix64, build_trial_scenario,
                                random_function, refine_study, trial_rng)
from pseudocalc.quadrature import (BAND_ELEMENTS, UNIT_SQUARE, Rect, grid_eval_inward,
                                   level_set_samples)
from pseudocalc.semiring import SaturationFlags, parse_semiring

from test_pseudo_integral import sugeno_prefix_blocks


class TestConstants:
    def test_known_values(self):
        assert H.hardy_constant(2.0) == 16.0
        assert H.hardy_constant(3.0) == 11.390625
        # frozen by direct arithmetic: (1.0001/0.0001)^{2.0002}
        assert H.hardy_constant(1.0001) == pytest.approx(1.002044e8, rel=1e-4)
        assert math.isfinite(H.hardy_constant(1.0 + 1e-6))

    def test_limit_is_e_squared(self):
        assert H.hardy_constant(1000.0) == pytest.approx(math.e**2, rel=0.01)

    def test_strictly_decreasing(self):
        ps = [1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0, 1000.0]
        vals = [H.hardy_constant(p) for p in ps]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v >= 1.0 for v in vals)

    def test_hypothesis_gate(self):
        with pytest.raises(H.HypothesisError):
            H.hardy_constant(1.0)
        with pytest.raises(H.HypothesisError):
            H.hardy_constant(0.5)

    def test_sugeno_constant(self):
        # (4/5)^{16/27}, frozen by direct evaluation; exponent at p=1 is 16/27
        assert 16.0 * 1.0 / (9.0 * 3.0) == pytest.approx(16.0 / 27.0)
        assert H.sugeno_hardy_constant(1.0) == pytest.approx(0.8761366425240323, abs=1e-12)
        # p→∞ exponent limit 16/18: frozen by direct evaluation
        assert H.sugeno_hardy_constant(1e9) == pytest.approx(0.820082918765521, abs=1e-6)
        with pytest.raises(H.HypothesisError):
            H.sugeno_hardy_constant(0.99)

    def test_classical_constant(self):
        assert H.classical_hardy_constant(2.0) == 4.0


class TestKernel:
    def test_sqrt_squares_kernel(self):
        # worked closed form: R(x,y) = x³y³/16
        gen = G.sqrt_gen()
        f = expr.as_function(expr.parse("x^2*y^2"))
        rng = SplitMix64(7)
        for _ in range(8):
            x = rng.uniform(0.05, 1.0)
            y = rng.uniform(0.05, 1.0)
            assert H.hardy_kernel_g(gen, f, x, y) == pytest.approx(
                x**3 * y**3 / 16.0, abs=1e-6
            )

    def test_half_mean_kernel(self):
        # worked closed form: R(x,y) = (x+y)/4
        gen = G.half()
        f = expr.as_function(expr.parse("(x+y)/2"))
        for x, y in [(0.3, 0.9), (1.0, 1.0), (0.2, 0.4)]:
            assert H.hardy_kernel_g(gen, f, x, y) == pytest.approx((x + y) / 4.0, abs=1e-9)

    def test_constant_kernel(self):
        gen = G.identity()
        for c in (0.2, 1.0):
            assert H.hardy_kernel_g(gen, lambda s, t: c, 0.7, 0.4) == pytest.approx(c, abs=1e-9)

    def test_domain_gate(self):
        with pytest.raises(ValueError):
            H.hardy_kernel_g(G.identity(), lambda s, t: 1.0, 0.0, 0.5)

    @pytest.mark.parametrize("spec", ["identity", "sqrt", "half", "power:2", "power:0.5",
                                      "exp:2", "invpower:1"])
    def test_clipped_flag_is_the_elementwise_range_rule(self, spec, monkeypatch):
        # the flag tests only the smallest and the largest prefix integral;
        # the elementwise rule tests each against the slack at its own value
        gen = G.make_generator(spec)
        lo, hi = gen.range_low, gen.range_high
        rng = np.random.default_rng(20261019)
        prefix = None

        def inject(values, h, axis, scratch):
            # the prefix passes run in place on the kernel's prefix buffer
            values[...] = prefix
            return values

        monkeypatch.setattr(H, "cumulative_simpson", inject)
        seen = set()
        for _ in range(200):
            # prefixes within a few slacks of both ends, at scales on either side of 1
            scale_lo, scale_hi = rng.choice([0.0, 0.5, 0.99, 1.01, 2.0], size=2)
            u = rng.random((9, 9))
            prefix = np.where(rng.random((9, 9)) < 0.5,
                              lo - scale_lo * G.RANGE_SLACK * max(1.0, abs(lo)) * u,
                              hi + scale_hi * G.RANGE_SLACK * max(1.0, abs(hi)) * u)
            slack = G.RANGE_SLACK * np.maximum(1.0, np.abs(prefix))
            elementwise = bool(np.any((prefix < lo - slack) | (prefix > hi + slack)))
            kernel = H.GKernelGrid(gen, lambda s, t: 0.5, 1.0, 1.0, panels=8)
            assert kernel.clipped == elementwise
            seen.add(elementwise)
        assert seen == {False, True}

    def test_generator_overflow_is_a_domain_error(self):
        # exp overflows to inf without a RuntimeWarning (warnings are errors
        # here); the finiteness checks turn it into the DomainError
        f = expr.as_function(expr.parse("(x+y)/2"))
        kernel = H.GKernelGrid(G.make_generator("exp:20"), f, 1.0, 1.0)
        with pytest.raises(H.DomainError, match=r"g\(R\^p\) is not finite on the kernel grid"):
            kernel.integral_of_g_of_R_pow(2.0)
        with pytest.raises(H.DomainError, match="g∘f is not finite on the kernel grid"):
            H.GKernelGrid(G.make_generator("exp:2000"), f, 1.0, 1.0, panels=8)

    @pytest.mark.parametrize("gen_spec", ["exp:708", "exp:709"])
    def test_prefix_overflow_is_a_domain_error(self, gen_spec):
        # g∘f is finite (up to e^709 ≈ 8e307), but the Jacobian (up to 9)
        # takes g∘f·jac past the largest float
        f = expr.as_function(expr.parse("(x+y)/2"))
        with pytest.raises(H.DomainError,
                           match="prefix integrals of g∘f are not finite on the kernel grid"):
            H.GKernelGrid(G.make_generator(gen_spec), f, 1.0, 1.0)


class TestKernelBuffers:
    """GKernelGrid reuses four buffers per panel count; no figure may depend on that."""

    SCENARIOS = [("(x+y)/2", "half", 2.0), ("x^2*y^2", "sqrt", 3.0),
                 ("x^0.5*y^1.5+0.1", "identity", 1.5), ("(x+y)/2", "exp:5", 2.0),
                 ("1", "power:2", 2.0), ("x*(1-y)", "identity", 2.5)]

    @staticmethod
    def _runs():
        runs = [lambda scn=H.HardyScenario(f_src=f_src, check_kind="g_hardy", p=p,
                                           gen_spec=g): H.check_hardy_g(scn)
                for f_src, g, p in TestKernelBuffers.SCENARIOS]
        runs += [lambda g=g, p=p: H.remark_diagnostics(G.make_generator(g),
                                                       expr.as_function(expr.parse("x*y+0.5")), p)
                 for g, p in (("identity", 0.5), ("sqrt", 0.6))]
        refine = H.HardyScenario(f_src="x^2*y^2", check_kind="g_hardy", p=2.0, gen_spec="sqrt")
        runs.append(lambda: refine_study(refine, [4, 5, 6, 7, 8, 9]))
        return runs

    def test_reports_do_not_depend_on_earlier_grids(self):
        alone = []
        for run in self._runs():
            H._kernel_buffers.cache_clear()
            alone.append(run().to_dict())
        in_turn = [run().to_dict() for run in self._runs() + self._runs()]
        assert in_turn == alone + alone

    def test_every_buffer_element_read_is_written(self):
        H._kernel_buffers.cache_clear()
        for f_src, g, p in self.SCENARIOS:
            scn = H.HardyScenario(f_src=f_src, check_kind="g_hardy", p=p, gen_spec=g)
            want = H.check_hardy_g(scn).to_dict()
            for buffer in H._kernel_buffers(H.DEFAULT_CONFIG.kernel_panels):
                buffer.fill(np.nan)
            assert H.check_hardy_g(scn).to_dict() == want

    def test_one_panel_count_is_held(self):
        scn = H.HardyScenario(f_src="x^2*y^2", check_kind="g_hardy", p=2.0, gen_spec="sqrt")
        H.check_hardy_g(scn)
        held = weakref.ref(H._kernel_buffers(256)[0])
        refine_study(scn, [8, 9])           # 256 and then 512 panels
        assert held() is None
        assert H._kernel_buffers.cache_info().currsize == 1
        assert H._kernel_buffers(512)[0].shape == (513, 513)


class TestCheckHardyG:
    def test_worked_half_scenario(self):
        scn = H.HardyScenario(f_src="(x+y)/2", check_kind="g_hardy", p=2.0, gen_spec="half")
        rep = H.check_hardy_g(scn)
        assert rep.lhs == pytest.approx(14.0 / 192.0, abs=1e-6)
        assert rep.rhs_integral == pytest.approx(7.0 / 24.0, abs=1e-6)
        assert rep.constant == 16.0
        assert rep.rhs == pytest.approx(14.0 / 3.0, abs=1e-5)
        assert rep.holds is True
        assert rep.direction == "le"

    def test_worked_sqrt_scenario_recomputed(self):
        scn = H.HardyScenario(f_src="x^2*y^2", check_kind="g_hardy", p=2.0, gen_spec="sqrt")
        rep = H.check_hardy_g(scn)
        assert rep.lhs == pytest.approx(1.0 / 65536.0, abs=1e-8)
        assert rep.rhs_integral == pytest.approx(1.0 / 81.0, abs=1e-8)
        assert rep.holds is True

    def test_constant_function(self):
        scn = H.HardyScenario(f_src="1", check_kind="g_hardy", p=2.0, gen_spec="identity")
        rep = H.check_hardy_g(scn)
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs == pytest.approx(16.0, abs=1e-8)
        assert rep.holds is True
        assert rep.pointwise_max <= 1e-9

    def test_divergent_scenario_not_evaluable(self):
        scn = H.HardyScenario(f_src="(x*y)^(-2)", check_kind="g_hardy", p=2.0,
                              gen_spec="sqrt")
        rep = H.check_hardy_g(scn)
        assert rep.not_evaluable
        assert rep.holds is None
        assert rep.statuses["rhs"] == "diverged"

    def test_rhs_outside_the_generator_range_not_evaluable(self):
        # ∬ sqrt(x^(-0.4)) = 1.25 converges (on a graded restart, to an ulp),
        # but sqrt⁻¹ is undefined there
        scn = H.HardyScenario(f_src="x^(-0.2)", check_kind="g_hardy", p=2.0, gen_spec="sqrt")
        rep = H.run_check(scn)
        assert rep.not_evaluable is True and rep.holds is None
        assert rep.lhs is None and rep.rhs_integral is None
        assert rep.statuses == {"rhs": "converged"}
        assert rep.notes == ["sqrt: y=1.2499999999999998 outside range [0.0, 1.0]"]

    def test_lhs_outside_the_generator_range_not_evaluable(self):
        # f = 1 gives R = g⁻¹(xy)/(xy) = (xy)^(-1/2) under power:2, and ∬ g(R^2) =
        # ∬ (xy)^(-2) diverges: the lhs is undefined, not clamped to 1 and "holds"
        scn = H.HardyScenario(f_src="1", check_kind="g_hardy", p=2.0, gen_spec="power:2")
        rep = H.run_check(scn)
        assert rep.not_evaluable is True and rep.holds is None
        assert rep.lhs is None and rep.pointwise_max is None
        assert (rep.rhs_integral, rep.rhs) == (1.0, 16.0)
        assert rep.statuses == {"rhs": "converged", "lhs": "diverged"}
        assert rep.notes == ["power:2: y=4951048217572968.0 outside range [0.0, 1.0]"]

    def test_negative_f_is_flagged(self):
        # as in the sup and Sugeno checks: the verdict stands, with a note
        scn = H.HardyScenario(f_src="-1", check_kind="g_hardy", p=2.0, gen_spec="identity")
        rep = H.check_hardy_g(scn)
        assert rep.holds is True
        assert rep.notes == ["f takes negative values: theorem hypotheses not met",
                             "kernel prefix integrals clamped to the generator range"]
        scn = H.HardyScenario(f_src="x*y", check_kind="g_hardy", p=2.0, gen_spec="identity")
        assert not any("negative" in note for note in H.check_hardy_g(scn).notes)

    @pytest.mark.parametrize("gen_spec,lhs,rhs_integral", [
        ("exp:1", 0.0049853771923874645, 0.3149542162129144),
        ("exp:5", 0.15071355937920125, 0.4268004327164334),
    ])
    def test_exp_verdict_on_clamped_prefixes(self, capsys, gen_spec, lhs, rhs_integral):
        # under exp:λ some kernel prefixes fall below g(0) = 1 by rounding and
        # are clamped to the range, and the verdict rests on that clamp
        code = cli.main(["hardy", "--f", "(x+y)/2", "--g", gen_spec, "--p", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (payload["lhs"], payload["rhs_integral"], payload["holds"]) == (lhs, rhs_integral,
                                                                              True)
        assert payload["notes"] == [CLAMPED]

    def test_hypothesis_gate(self):
        scn = H.HardyScenario(f_src="x*y", check_kind="g_hardy", p=0.5, gen_spec="sqrt")
        with pytest.raises(H.HypothesisError):
            H.check_hardy_g(scn)

    def test_verdict_invariant_under_power_scaling(self):
        # the holds verdict for monomial f is stable across g = x^a, a in {0.5, 1, 2}
        rng = SplitMix64(17)
        for _ in range(6):
            a_exp = rng.uniform(1.0, 4.0)
            b_exp = rng.uniform(1.0, 4.0)
            p = rng.choice((1.5, 2.0, 3.0))
            f_src = f"x^{a_exp!r}*y^{b_exp!r}"
            verdicts = []
            for a in (0.5, 1.0, 2.0):
                scn = H.HardyScenario(f_src=f_src, check_kind="g_hardy", p=p,
                                      gen_spec=f"power:{a}")
                verdicts.append(H.check_hardy_g(scn).holds)
            assert verdicts[0] is True and len(set(verdicts)) == 1


CLAMPED = "kernel prefix integrals clamped to the generator range"

# (lhs, rhs_integral, rhs, holds, statuses, notes) of check_hardy_g with the
# default config, recorded while the pointwise R ≤ f check built a second,
# uniform kernel grid: the first default-campaign g trial of each
# (family, generator, p) cell; the campaign draws no monomial trial with
# g = sqrt and p = 1.5.  Two rhs integrals were recorded again when their
# x^0.12 and x^0.18 ends restarted graded
G_CONTRACT = {
    ("0.7967663477680926*(x+y)/2", "half", 1.5):  # affine-mean
        (0.09462830762123747, 0.26764927407250455, 7.226530399957623, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.7169889702825283*(x+y)/2", "half", 2.0):
        (0.03748450273962112, 0.14993801185615002, 2.3990081896984004, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.8052265768968715*(x+y)/2", "half", 3.0):
        (0.01223673585777664, 0.09789388715090436, 1.11507255832827, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.6407214212094212*(x+y)/2", "identity", 1.5):
        (0.06823834175523809, 0.1930071782296859, 5.21119381220152, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.8045342327845465*(x+y)/2", "identity", 2.0):
        (0.04719715932217992, 0.18878863841898047, 3.0206182147036875, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.4174397676601952*(x+y)/2", "identity", 3.0):
        (0.001704875791040942, 0.013639006368549271, 0.15535680691675655, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.4216968830217932*(x+y)/2", "sqrt", 1.5):
        (0.004746749767654888, 0.09341503729000546, 2.5222060068301473, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.23460536673502186*(x+y)/2", "sqrt", 2.0):
        (0.00034294240438563934, 0.013759919525218519, 0.2201587124034963, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.320859772944036*(x+y)/2", "sqrt", 3.0):
        (3.401759431596808e-05, 0.004678267033227805, 0.05328838542536046, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("x^1.3251732730028123*y^0.6799441833238431", "half", 1.5):  # monomial
        (0.021463259168768695, 0.16569940085505613, 4.473883823086515, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("x^3.1899713347936793*y^1.1268893374936737", "half", 2.0):
        (0.0005243812217255881, 0.04164462956845506, 0.666314073095281, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("x^0.14488974404277588*y^2.8609050101365163", "half", 3.0):
        (0.0008421734069973085, 0.07273771277360991, 0.8285280095619003, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("x^3.826531714502769*y^0.6712914082018271", "identity", 1.5):
        (0.0032269208715266077, 0.07392977510804781, 1.996103927917291, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("x^1.1606381400781407*y^1.2482947727555103", "identity", 2.0):
        (0.0036490495521957467, 0.08610935582598676, 1.3777496932157882, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("x^3.551609183611112*y^1.876633796354771", "identity", 3.0):
        (5.765527269569811e-06, 0.012941573564007382, 0.1474126113775216, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("x^0.1213852114053191*y^2.624270596650848", "sqrt", 2.0):
        (0.00028725217144240687, 0.060540934422545024, 0.9686549507607204, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("x^3.5618101666183417*y^0.00034952450163494575", "sqrt", 3.0):
        (5.616074194503439e-06, 0.024831005118972824, 0.28284066768329985, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.023969985926720987*x^3.177046297940177*y^3.6540526063596293"
     "+0.06865779266312624*x^3.4540200649733204*y^0.901736376767905"
     "+0.0799307609056921*x^3.405188558148662*y^2.9802762198873816", "half", 1.5):  # product-of-monotone
        (8.154727116597297e-05, 0.003033724150101204, 0.08191055205273251, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.009966859406221707*x^2.117539005743623*y^1.9960589807813869"
     "+0.15986803078238493*x^0.9949941191520053*y^3.283760762924185"
     "+0.2281488209474199*x^0.3665509096476436*y^0.8133566336409657", "half", 2.0):
        (0.0021800303905341535, 0.019093652555109093, 0.3054984408817455, True,
         {"lhs": "converged", "rhs": "converged"}, [CLAMPED]),
    ("0.2212444955766376*x^0.14488974404277588*y^2.8609050101365163", "half", 3.0):
        (9.120506293022383e-06, 0.0007877288023263722, 0.008972723388998833, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.12439843249399336*x^0.4398854438879938*y^2.999224410335451"
     "+0.07037499060913514*x^1.534586476460476*y^1.3193066543244294", "identity", 1.5):
        (0.0006373707642192088, 0.008900977500159278, 0.2403263925043005, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.08484432750038352*x^2.4148516163968035*y^0.5343968246065969"
     "+0.08885561484931191*x^3.6913235546128953*y^1.2752570603019975", "identity", 2.0):
        (3.7570987328153555e-05, 0.0016173264885691457, 0.025877223817106332, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.20980958400762073*x^3.551609183611112*y^1.876633796354771", "identity", 3.0):
        (5.3249434334542375e-08, 0.00011952995212298028, 0.0013615208609008224, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.3947557888809729*x^3.7173860024741225*y^2.6039875472832192"
     "+0.36017730097142886*x^0.8485038172948873*y^3.952545437164559"
     "+0.17397888892216962*x^1.6331893646111624*y^3.136009932748353", "sqrt", 1.5):
        (5.118749451636843e-05, 0.014312280183027883, 0.38643156494175285, True,
         {"lhs": "converged", "rhs": "converged"}, [CLAMPED]),
    ("0.5050577887389373*x^2.9584611868554296*y^2.932442645525937"
     "+0.07324532823926949*x^2.716560908223856*y^3.9510157296356017", "sqrt", 2.0):
        (3.684246720042829e-07, 0.0013268460309432558, 0.021229536495092093, True,
         {"lhs": "converged", "rhs": "converged"}, []),
    ("0.25137690868231044*x^0.18163260441854057*y^1.7569074086834178"
     "+0.22704057704914532*x^3.2707648162834695*y^1.871451270762793"
     "+0.025739460888309324*x^1.6220199877659613*y^3.903683580250028", "sqrt", 3.0):
        (1.4452762926680495e-06, 0.0016310406945565772, 0.018578572911433514, True,
         {"lhs": "converged", "rhs": "converged"}, []),
}


class TestGContract:
    @pytest.mark.parametrize("f_src,gen_spec,p", sorted(G_CONTRACT))
    def test_sides_unchanged(self, f_src, gen_spec, p):
        rep = H.check_hardy_g(H.HardyScenario(f_src=f_src, check_kind="g_hardy", p=p,
                                              gen_spec=gen_spec))
        got = (rep.lhs, rep.rhs_integral, rep.rhs, rep.holds, rep.statuses, rep.notes)
        assert got == G_CONTRACT[f_src, gen_spec, p]
        assert rep.pointwise_max <= 1e-9    # R ≤ f: every f here is monotone

    def test_one_kernel_grid_per_check(self, monkeypatch):
        built = []

        class CountingGrid(H.GKernelGrid):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(H, "GKernelGrid", CountingGrid)
        f_src, gen_spec, p = sorted(G_CONTRACT)[-1]
        scn = H.HardyScenario(f_src=f_src, check_kind="g_hardy", p=p, gen_spec=gen_spec)
        rep = H.check_hardy_g(scn)
        assert len(built) == 1
        want = H.GKernelGrid(scn.generator, expr.as_function(scn.f), scn.domain.x_high,
                             scn.domain.y_high, H.DEFAULT_CONFIG.kernel_panels).pointwise_max()
        assert (rep.pointwise_max, rep.pointwise_location) == want


class TestPointwiseProofStep:
    @pytest.mark.parametrize("gen_spec", ["identity", "sqrt", "half"])
    def test_fuzzed_monotone_functions(self, gen_spec):
        gen = G.make_generator(gen_spec)
        for i in range(8):
            rng = trial_rng(1000 + i, i)
            family = ("monomial", "affine-mean", "product-of-monotone")[i % 3]
            f = expr.as_function(expr.parse(random_function(rng, family)))
            diff, _loc = H.GKernelGrid(gen, f, 1.0, 1.0).pointwise_max()
            assert diff <= 1e-8

    def test_area_identity_for_linear_generators(self):
        # ∫∫^⊕ 1 over [0,x]×[0,y] equals xy whenever g is linear; nonlinear
        # generators give g⁻¹(g(1)·xy) instead (see the acceptance suite)
        from pseudocalc.pseudo_integral import g_integral_2d

        rng = SplitMix64(23)
        for gen in (G.identity(), G.half()):
            for _ in range(10):
                x = rng.uniform(0.05, 1.0)
                y = rng.uniform(0.05, 1.0)
                got = g_integral_2d(gen, lambda s, t: 1.0, Rect(0, x, 0, y), 1e-10)[0]
                assert got == pytest.approx(x * y, abs=1e-9)


class TestCheckHardySup:
    def test_suptimes_product(self):
        scn = H.HardyScenario(f_src="x*y", check_kind="sup_hardy", p=2.0,
                              semiring_spec="suptimes")
        rep = H.check_hardy_sup(scn)
        assert rep.holds is True
        assert rep.lhs <= 16.0 * 1.0 + 1e-9
        assert rep.pointwise_max <= 1e-9  # R ≤ f for monotone f

    def test_supplus_mean(self):
        scn = H.HardyScenario(f_src="(x+y)/2", check_kind="sup_hardy", p=2.0,
                              semiring_spec="supplus")
        rep = H.check_hardy_sup(scn)
        assert rep.holds is True
        assert rep.pointwise_max <= 1e-9

    @pytest.mark.parametrize("spec", ["suptimes", "supplus", "maxmin"])
    def test_constant_one(self, spec):
        scn = H.HardyScenario(f_src="1", check_kind="sup_hardy", p=2.0,
                              semiring_spec=spec)
        rep = H.check_hardy_sup(scn)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.holds is True

    def test_notes_record_convention(self):
        scn = H.HardyScenario(f_src="x*y", check_kind="sup_hardy", p=2.0,
                              semiring_spec="suptimes")
        rep = H.check_hardy_sup(scn)
        assert any("running sup" in n for n in rep.notes)

    def test_singular_corner_is_retried_inward(self):
        # x/(x+y) fails only at the origin, which the sup grid retries at the
        # boundary inset, as the g-kernel grid does
        scn = H.HardyScenario(f_src="x/(x+y)", check_kind="sup_hardy", p=2.0,
                              semiring_spec="suptimes")
        rep = H.check_hardy_sup(scn)
        assert rep.not_evaluable is False and rep.holds is True
        assert rep.rhs_integral == 1.0

    def test_interior_failure_not_evaluable(self):
        # 1/(x-0.5) fails on the grid line x = 0.5, off the axes: no retry
        scn = H.HardyScenario(f_src="1/(x-0.5)+y", check_kind="sup_hardy", p=2.0,
                              semiring_spec="suptimes")
        rep = H.check_hardy_sup(scn)
        assert rep.not_evaluable is True and rep.holds is None
        # the g-kernel grid shares the policy: x = 0.125 is the cubic node u = 1/2
        f = expr.as_function(expr.parse("1/(x-0.125)+y"))
        with pytest.raises(H.DomainError, match="kernel grid"):
            H.GKernelGrid(G.identity(), f, 1.0, 1.0, panels=8)

    @pytest.mark.parametrize("f_src,spec,p,lhs,statuses", [
        ("x-0.5", "suptimes", 1.5, None, {"lhs": "diverged", "rhs": "diverged"}),
        ("x-0.5", "maxmin", 2.5, None, {"lhs": "diverged", "rhs": "diverged"}),
        ("0.5+0.4*x-0.6*y^2", "supplus", 1.5, 0.8538149682454624,
         {"lhs": "converged", "rhs": "diverged"}),
    ])
    def test_nan_side_not_evaluable(self, f_src, spec, p, lhs, statuses):
        # f^p is NaN where f < 0 under a fractional p: that side has no value,
        # which was reported as a violation
        rep = H.check_hardy_sup(H.HardyScenario(f_src=f_src, check_kind="sup_hardy", p=p,
                                                semiring_spec=spec))
        assert (rep.not_evaluable, rep.holds, rep.lhs, rep.rhs_integral, rep.rhs) == (
            True, None, lhs, None, None)
        assert rep.statuses == statuses
        assert rep.notes == ["f^p is not real where f < 0"]
        # an even p gives both sides values: the check stands, with its note
        even = H.check_hardy_sup(H.HardyScenario(f_src=f_src, check_kind="sup_hardy", p=2.0,
                                                 semiring_spec=spec))
        assert even.not_evaluable is False and even.holds is not None
        assert "f takes negative values: theorem hypotheses not met" in even.notes

    def test_nan_side_of_a_non_negative_f_not_evaluable(self):
        # (1e300·x)² overflows to inf, and inf ⊙ ψ(1) = inf·0 is NaN on both
        # sides; pseudo_mul warns of it (not silenced there), so it is here
        scn = H.HardyScenario(f_src="1e300*x", check_kind="sup_hardy", p=2.0,
                              semiring_spec="suptimes", psi_src="1-x")
        with np.errstate(invalid="ignore"):
            rep = H.check_hardy_sup(scn)
        assert (rep.not_evaluable, rep.holds, rep.lhs, rep.rhs_integral) == (True, None, None, None)
        assert rep.statuses == {"lhs": "diverged", "rhs": "diverged"}
        assert rep.notes == ["a side is NaN"]

    def test_nan_lhs_keeps_the_rhs_integral(self):
        # (1e300·(1−x)(1−y))² is inf where ψ = 1 − x is positive on both axes
        # and 0 on the lines x = 1 and y = 1, so rhs_integral is inf; the
        # running sup carries the inf onto those lines, where inf ⊙ 0 is NaN
        scn = H.HardyScenario(f_src="1e300*(1-x)*(1-y)", check_kind="sup_hardy", p=2.0,
                              semiring_spec="suptimes", psi_src="1-x")
        with np.errstate(invalid="ignore"):
            rep = H.check_hardy_sup(scn)
        assert (rep.not_evaluable, rep.holds, rep.lhs, rep.rhs_integral, rep.rhs) == (
            True, None, None, math.inf, None)
        assert rep.statuses == {"lhs": "diverged", "rhs": "converged"}
        assert rep.notes == ["a side is NaN"]


# (lhs, rhs_integral, pointwise_max, pointwise_location, holds, notes past the
# two fixed ones) of check_hardy_sup, recorded before the check raised R and F
# to p in place and the running maxima overwrote the weighted surface; most
# of the f are not monotone, so the running maxima do work
SUP_CONTRACT = {
    ('x*(1-x)+y*(1-y)', 'suptimes', None, 2.0):
        (0.25, 0.25, 0.5, (1.0, 1.0), True, []),
    ('(x+y)/2', 'supplus', '0.9', 1.5):
        (1.0, 1.0, 1.0, (0.0, 0.0), True, ['saturation: 0 add / 1549127 mul clamps']),
    ('x*y', 'g:sqrt', '1-x/2', 3.0):
        (0.004508318925583704, 0.2500000000000001, 0.0, (0.0, 0.0), True, []),
    ('max(x,y)-0.5*x*y', 'maxmin', None, 2.5):
        (1.0, 1.0, 0.5, (1.0, 1.0), True, []),
    ('0.5+0.4*x-0.6*y*y', 'supplus', '0.3*x', 2.0):
        (1.0, 1.0, 0.8355468749999999, (0.66015625, 1.0), True, ['f takes negative values: theorem hypotheses not met', 'saturation: 0 add / 336189 mul clamps']),
    ('x*(1-x)+y*(1-y)', 'suptimes', '1-x/2', 1.5):
        (0.12079164203991816, 0.21283417072660013, 0.3098420798778534, (1.0, 1.0), True, []),
    ('x*(1-x)*(0.5+y)', 'g:half', '0.5+x/2', 2.0):
        (0.0013020762965112453, 0.026724832512781127, 0.07216858863830566, (1.0, 1.0), True, []),
}


UNIT = Rect(0.0, 1.0, 0.0, 1.0)


def _whole_grid_sup_kernel(s, f, psi, level, p):
    """sup_kernel_grid's figures and saturation counts from whole-grid arrays."""
    xs = np.linspace(0.0, 1.0, 2**level + 1)
    F = grid_eval_inward(f, xs, xs)
    psix = np.broadcast_to(np.asarray(psi(xs), dtype=float), xs.shape)[:, np.newaxis]
    psiy = psix.reshape(1, -1)
    flags = SaturationFlags()
    weighted = P.psi_weighted(s, F, psix, psiy, flags)
    R = np.maximum.accumulate(np.maximum.accumulate(weighted, axis=0), axis=1)
    diff = R - F
    i, j = np.unravel_index(np.argmax(diff), diff.shape)
    lhs = np.max(P.psi_weighted(s, R**p, psix, psiy, flags))
    rhs = np.max(P.psi_weighted(s, F**p, psix, psiy, flags))
    return (float(diff[i, j]), (float(xs[i]), float(xs[j])), float(lhs), float(rhs),
            bool(np.any(F < 0)), flags.add_saturations, flags.mul_saturations)


def _band_sawtooth(n):
    """In [0, 1], nondecreasing inside each row band of an n×n grid; drops at a band's first row."""
    rows = BAND_ELEMENTS // n
    return lambda x, y: (np.round(x * (n - 1)) % rows + y) / rows


# Python callables of the grid's size n: the sawtooth, which only the test
# against the column maxima above refuses, and x*y with −0.0 on the axes,
# which the sign test refuses wherever the weighted surface keeps the −0.0
CALLABLE_SOURCES = {
    "band sawtooth": _band_sawtooth,
    "x*y, -0.0 on the axes": lambda n: lambda x, y: np.where((x == 0) | (y == 0), -0.0, x * y),
}


def _sup_source(f_src, level):
    if f_src in CALLABLE_SOURCES:
        return CALLABLE_SOURCES[f_src](2**level + 1)
    return expr.as_function(expr.parse(f_src))


class TestSupBuffers:
    @pytest.mark.parametrize("f_src,semiring,psi,p", sorted(SUP_CONTRACT, key=repr))
    def test_matches_fresh_temporaries(self, f_src, semiring, psi, p):
        rep = H.check_hardy_sup(H.HardyScenario(f_src=f_src, check_kind="sup_hardy", p=p,
                                                semiring_spec=semiring, psi_src=psi))
        got = (rep.lhs, rep.rhs_integral, rep.pointwise_max, rep.pointwise_location,
               rep.holds, rep.notes[2:])
        assert got == SUP_CONTRACT[f_src, semiring, psi, p]

    @pytest.mark.parametrize("level", [3, 9, 10])     # one band; a partial last band
    # an increasing ψ keeps a monotone f's weighted surface monotone
    @pytest.mark.parametrize("psi_src", [None, "1-x/2", "0.9", "0.5+x/2"])
    @pytest.mark.parametrize("spec", ["suptimes", "supplus", "maxmin", "g:sqrt"])
    # under the unit ψ: bands in [0, 1] that raise two values only (x*y, and
    # the positive bands of the first two), bands with f < 0, f above 1
    # (clamped per element under supplus) and a band of −0.0 (a max of 0);
    # the monotone campaign families (monomial, affine mean, mixture) are
    # their own running max; two surfaces in [0, 1] are monotone on a band's
    # edges but fall inside it, down the columns for y < 1/2 or along the
    # rows for x < 1/2, so a whole-band test refuses them; and the callables
    @pytest.mark.parametrize("f_src", ["x*(1-x)+y*(1-y)", "0.5+0.4*x-0.6*y*y", "x*y", "2*x",
                                       "-(0*x)", "x^2.5*y^0.33", "0.27*(x+y)/2",
                                       "0.37*x^1.9*y^2.5+0.32*x^0.33*y^0.08+0.2*x^0.88*y^0.14",
                                       "0.2+0.6*y+0.1*x*(2*y-1)", "0.2+0.6*x+0.1*y*(2*x-1)",
                                       *CALLABLE_SOURCES])
    def test_banded_kernel_matches_whole_grid(self, f_src, spec, psi_src, level):
        s = parse_semiring(spec)
        psi = P.PsiDensity.from_string(psi_src) if psi_src else P.unit_psi(s)
        f = _sup_source(f_src, level)
        flags = SaturationFlags()
        with np.errstate(invalid="ignore"):  # f < 0 somewhere: f^2.5 is NaN there
            got = H.sup_kernel_grid(s, f, psi, UNIT, level, 2.5, flags)
            want = _whole_grid_sup_kernel(s, f, psi, level, 2.5)
        assert repr((*got, flags.add_saturations, flags.mul_saturations)) == repr(want)

    @pytest.mark.parametrize("level", [3, 9])
    @pytest.mark.parametrize("f_src", ["-(0*x)", "x*y", "x*y, -0.0 on the axes"])
    def test_negative_zero_psi_is_no_unit_psi(self, f_src, level):
        # under supplus, ψ ≡ −0.0 equals the unit 0 but keeps f's −0.0, which
        # the F + 0.0 of the unit ψ would turn to +0.0
        s = parse_semiring("supplus")
        psi, f = P.PsiDensity.from_string("-(0*x)"), _sup_source(f_src, level)
        flags = SaturationFlags()
        got = H.sup_kernel_grid(s, f, psi, UNIT, level, 3.0, flags)
        want = _whole_grid_sup_kernel(s, f, psi, level, 3.0)
        assert repr((*got, flags.add_saturations, flags.mul_saturations)) == repr(want)

    def test_unit_psi_raises_two_values_per_band(self, monkeypatch):
        # a default check whose f lies in [0, 1] raises its largest R and its
        # largest f per band under the unit ψ; any other ψ raises whole bands
        raised = []

        def spy(vals, power):
            raised.append(vals.size)
            return power_of(vals, power)

        power_of = P._power_of
        monkeypatch.setattr(H, "_power_of", spy)
        n = 2**H.DEFAULT_CONFIG.sup_level + 1
        bands = -(-n // (BAND_ELEMENTS // n))

        def check(spec, psi_src):
            raised.clear()
            H.check_hardy_sup(H.HardyScenario(f_src="0.7*(x+y)/2", check_kind="sup_hardy",
                                              p=2.5, semiring_spec=spec, psi_src=psi_src))
            return raised

        assert check("suptimes", None) == [2] * bands
        assert check("supplus", None) == [2] * bands
        whole = check("suptimes", "0.9")
        assert len(whole) == 2 * bands and sum(whole) == 2 * n * n

    def test_monotone_bands_skip_the_running_max(self, monkeypatch):
        # every campaign f is nondecreasing in x and in y, so under the unit ψ
        # every band of the campaign's sup trials is its own running max: no
        # scan runs, and under supplus no band is weighted, only its two tops
        scanned, weighted = [], []
        running_max, psi_weighted = H._running_max, H.psi_weighted

        def scan_spy(R, column_max):
            scanned.append(R.shape[0])
            return running_max(R, column_max)

        def weight_spy(s, vals, *args):
            weighted.append(vals.size)
            return psi_weighted(s, vals, *args)

        monkeypatch.setattr(H, "_running_max", scan_spy)
        monkeypatch.setattr(H, "psi_weighted", weight_spy)
        for scn in _first_trial_per_cell(FuzzConfig().seed, H.SUP_HARDY):
            H.check_hardy_sup(scn)
        assert scanned == [] and set(weighted) == {2}
        n = 2**H.DEFAULT_CONFIG.sup_level + 1
        bands = -(-n // (BAND_ELEMENTS // n))
        for spec in ("suptimes", "supplus"):       # the bump rises, then falls
            scanned.clear()
            H.check_hardy_sup(H.HardyScenario(f_src="16*x*(1-x)*y*(1-y)", p=2.0,
                                              check_kind="sup_hardy", semiring_spec=spec))
            assert sum(scanned) == n
        # the callables are refused by one test each: the sawtooth by the column
        # maxima above on every band but the first; −0.0 on the y axis under
        # suptimes on every band, while supplus's + 0.0 turns it to +0.0
        level = H.DEFAULT_CONFIG.sup_level
        for name, spec, refused in (("band sawtooth", "suptimes", bands - 1),
                                    ("x*y, -0.0 on the axes", "suptimes", bands),
                                    ("x*y, -0.0 on the axes", "supplus", 0)):
            scanned.clear()
            s = parse_semiring(spec)
            H.sup_kernel_grid(s, _sup_source(name, level), P.unit_psi(s), UNIT, level, 2.0)
            assert len(scanned) == refused, (name, spec)

    @pytest.mark.parametrize("spec", ["suptimes", "maxmin"])
    def test_zero_band_raises_f_once(self, spec, monkeypatch):
        # f ≡ 0 is its own running max, so R is F, and a max of 0 raises both
        # whole bands: the lhs must not raise the buffer the rhs raises next
        calls = []

        def spy(vals, power):
            calls.append((vals, power_of(vals, power)))
            return calls[-1][1]

        power_of = P._power_of
        monkeypatch.setattr(H, "_power_of", spy)
        s = parse_semiring(spec)
        H.sup_kernel_grid(s, expr.as_function(expr.parse("0")), P.unit_psi(s), UNIT, 9, 2.0)
        wholes = [call for call in calls if call[0].size > 2]
        assert len(wholes) == 2 * len(calls) // 3
        for (_, lhs_raised), (rhs_vals, _) in zip(wholes[::2], wholes[1::2]):
            assert not np.shares_memory(lhs_raised, rhs_vals)

    def test_first_location_wins_a_tie_across_bands(self):
        # R − f = (b − 1/2) − |i − b + 1/2| on row i peaks at rows b − 1 and b,
        # the last row of the first band and the first row of the second
        b = BAND_ELEMENTS // 513
        s = parse_semiring("suptimes")
        f = expr.as_function(expr.parse(f"abs(512*x-{b - 0.5})"))
        got = H.sup_kernel_grid(s, f, P.unit_psi(s), UNIT, 9, 2.0)
        assert got[:2] == (b - 1.0, ((b - 1) / 512, 0.0))
        assert repr((*got, 0, 0)) == repr(_whole_grid_sup_kernel(s, f, P.unit_psi(s), 9, 2.0))

    def test_footprint(self):
        # a check holds a few row bands at a time, never one of the 513² arrays
        # (2.1 MB each) that took the peak to 8-10 MiB
        scn = H.HardyScenario(f_src="x*(1-x)+y*(1-y)", check_kind="sup_hardy", p=2.0,
                              semiring_spec="supplus", psi_src="1-x/2")
        H.check_hardy_sup(scn)
        tracemalloc.start()
        try:
            H.check_hardy_sup(scn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # a node that fails on an axis is retried inward; one off the axes fails the check
        retried = H.check_hardy_sup(H.HardyScenario(f_src="x/(x+y)", check_kind="sup_hardy",
                                                    p=2.0, semiring_spec="suptimes"))
        assert (retried.holds, retried.pointwise_max, retried.pointwise_location) == (
            True, 0.9980506822612085, (0.001953125, 1.0))
        failed = H.check_hardy_sup(H.HardyScenario(f_src="ln(x-0.3)+2", check_kind="sup_hardy",
                                                   p=2.0, semiring_spec="suptimes"))
        assert failed.to_dict() == {
            "kind": "sup_hardy", "p": 2.0, "lhs": None, "rhs_integral": None, "constant": 16.0,
            "rhs": None, "holds": None, "direction": "le", "pointwise_max": None,
            "pointwise_location": None, "statuses": {"lhs": "diverged"},
            "notes": ["f failed to evaluate on the sup grid"], "not_evaluable": True}


# (lhs, rhs_integral, rhs, holds) of check_hardy_sugeno with the default
# config, recorded when every kernel block was sorted on its own: the first
# default-campaign Sugeno trial of each (family, p) cell
PER_BLOCK_SORT_RESULTS = {
    ("0.273355237703685*(x+y)/2", 1.5):  # affine-mean
        (0.5597023903623033, 0.3485243055555555, 0.3003491416832643, True),
    ("0.21446861009434826*(x+y)/2", 2.0):
        (0.5104887981496697, 0.2586805555555555, 0.2207242236523268, True),
    ("0.8110920929506024*(x+y)/2", 3.0):
        (0.7838533497204152, 0.4331597222222222, 0.36543645236794214, True),
    ("x^2.5057546815834546*y^0.33032148405336637", 1.5):  # monomial
        (0.69200328535679, 0.19750490458010744, 0.17020456715152824, True),
    ("x^3.149996216594045*y^3.0615785330599126", 2.0):
        (0.5867529812599194, 0.013202192773527056, 0.01126502818964019, True),
    ("x^1.9213746415248831*y^0.779093692412514", 3.0):
        (0.7339701387357681, 0.03510047917156187, 0.029612620765071585, True),
    ("0.46915844908869275*x^2.5057546815834546*y^0.33032148405336637", 1.5):  # product
        (0.5953585737860623, 0.13702040192065568, 0.11808060285598879, True),
    ("0.6037129040992009*x^0.5343968246065969*y^3.6913235546128953", 2.0):
        (0.6096160853092125, 0.05079822485207099, 0.04334457500800315, True),
    ("0.3689448892419728*x^1.876633796354771*y^2.5057546815834546"
     "+0.31718750422482817*x^0.33032148405336637*y^0.08182447617138511"
     "+0.20176990243597703*x^0.8849779823065504*y^0.14488974404277588", 3.0):
        (0.754325465811109, 0.484375, 0.40864436958178707, True),
}


def _first_trial_per_cell(seed, kind):
    """The first trial of kind in every (family, p) cell of a default campaign.

    A sup cell is (family, semiring, p).
    """
    cfg = FuzzConfig(seed=seed)
    sup = kind == H.SUP_HARDY
    cells = {}
    for index in range(cfg.kinds.index(kind), 100 * cfg.trials, len(cfg.kinds)):
        family = trial_rng(seed, index).choice(cfg.families)     # the trial's first draw
        scn = build_trial_scenario(cfg, index)
        cells.setdefault((family, scn.semiring_spec if sup else None, scn.p), scn)
        if len(cells) == len(cfg.families) * len(cfg.p_values) * (len(cfg.semirings) if sup else 1):
            return list(cells.values())
    raise AssertionError(f"campaign {seed} leaves a {kind} cell empty")


class TestSupKernelOracles:
    """Figures the sup kernel must give whatever its implementation."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_unit_psi_lhs_is_the_rhs_integral(self, seed):
        # under the unit ψ, max R = max f for f in [0, 1], so both sides are (max f)^p
        for scn in _first_trial_per_cell(seed, H.SUP_HARDY):
            rep = H.check_hardy_sup(scn)
            assert rep.lhs.hex() == rep.rhs_integral.hex(), scn
            assert rep.holds is True

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("f_src", ["x*y", "x*(1-x)+y*(1-y)", "0.7*(x+y)/2"])
    def test_constant_psi_scales_the_lhs(self, f_src, p):
        # under suptimes and ψ ≡ c, max R = c²·max f, so lhs = (c²·max f)^p·c² and
        # rhs_integral = (max f)^p·c²: their ratio is c^(2p)
        rep = H.check_hardy_sup(H.HardyScenario(f_src=f_src, check_kind="sup_hardy", p=p,
                                                semiring_spec="suptimes", psi_src="0.5"))
        assert rep.lhs / rep.rhs_integral == pytest.approx(0.5 ** (2 * p), rel=1e-14)
        if (f_src, p) == ("x*y", 2.0):
            assert (rep.lhs, rep.rhs_integral) == (0.015625, 0.25)

    def test_bump_peaks_at_the_running_sup_of_the_lower_left_quadrant(self):
        # f = 16x(1−x)y(1−y) peaks at (1/2, 1/2) with f = 1, so R = 1 on
        # [1/2, 1]², and max(R − f) = 1 − 0 is first reached at (1/2, 1); a sup
        # over the wrong quadrant would put it at the origin
        rep = H.check_hardy_sup(H.HardyScenario(f_src="16*x*(1-x)*y*(1-y)", p=2.0,
                                                check_kind="sup_hardy", semiring_spec="suptimes"))
        assert (rep.pointwise_max, rep.pointwise_location) == (1.0, (0.5, 1.0))
        assert (rep.lhs, rep.rhs_integral, rep.holds) == (1.0, 1.0, True)


class TestCheckHardySugeno:
    @pytest.mark.parametrize("f_src,p", sorted(PER_BLOCK_SORT_RESULTS))
    def test_matches_per_block_sorts(self, f_src, p):
        # the kernel is the exact empirical Sugeno value of each block, so
        # every figure of the report is the same bits as before
        rep = H.check_hardy_sugeno(H.HardyScenario(f_src=f_src, check_kind="sugeno_hardy", p=p))
        assert (rep.lhs, rep.rhs_integral, rep.rhs, rep.holds) == PER_BLOCK_SORT_RESULTS[f_src, p]

    def test_constant_one(self):
        scn = H.HardyScenario(f_src="1", check_kind="sugeno_hardy", p=1.0)
        rep = H.check_hardy_sugeno(scn)
        assert rep.lhs == pytest.approx(1.0, abs=1e-6)
        assert rep.holds is True
        assert rep.direction == "ge"

    def test_product(self):
        scn = H.HardyScenario(f_src="x*y", check_kind="sugeno_hardy", p=1.0)
        rep = H.check_hardy_sugeno(scn)
        assert rep.holds is True
        assert rep.lhs > rep.rhs

    def test_min(self):
        scn = H.HardyScenario(f_src="min(x,y)", check_kind="sugeno_hardy", p=2.0)
        rep = H.check_hardy_sugeno(scn)
        assert rep.holds is True

    def test_failed_kernel_sample_not_evaluable(self):
        # ln(x-0.3) fails on the sample columns with x ≤ 0.3; the check reports
        # it instead of raising, as the g and sup checks do
        scn = H.HardyScenario(f_src="ln(x-0.3)+2", check_kind="sugeno_hardy", p=2.0)
        rep = H.run_check(scn)
        assert rep.not_evaluable is True and rep.holds is None
        assert (rep.lhs, rep.rhs_integral, rep.rhs) == (None, None, None)
        assert rep.statuses == {"rhs": "diverged"}
        assert rep.notes == ["f failed to evaluate on the Sugeno sample grid"]

    def test_negative_f_is_flagged(self):
        # f^1.5 is NaN where f < 0 and the lhs drops those samples; the report
        # says that the hypotheses are not met, as the sup check does
        scn = H.HardyScenario(f_src="x-0.5", check_kind="sugeno_hardy", p=1.5)
        rep = H.run_check(scn)
        assert rep.notes == [
            "kernel Sugeno integrals use the empirical measure of midpoint samples",
            "f takes negative values: theorem hypotheses not met",
        ]
        nonneg = H.run_check(H.HardyScenario(f_src="x*y", check_kind="sugeno_hardy", p=1.5))
        assert not any("negative" in note for note in nonneg.notes)

    @pytest.mark.parametrize("f_src,p", [("1e160*x^40", 2.0), ("x-0.5", 1.5), ("x", 2.0),
                                         ("0.7", 3.0)])
    def test_lhs_power_in_place_keeps_what_f_to_the_p_keeps(self, f_src, p):
        # the lhs raises its own samples to p; an f^p that overflows (here
        # where x > 0.71) is +inf and kept, one that is NaN (a negative base)
        # is dropped, and f = "x" hands back its coordinate column, which
        # must not be written
        f = expr.as_function(expr.parse(f_src))
        samples = level_set_samples(f, UNIT_SQUARE, 1024)
        with np.errstate(all="ignore"):
            samples **= p
            assert f_src != "1e160*x^40" or np.isinf(np.float64(f(1.0, 1.0)) ** p)
        # a full sort of the non-NaN powers
        v = np.sort(samples[~np.isnan(samples)])[::-1]
        want = P._sugeno_tail(v, 1.0 / 1024**2)
        rep = H.check_hardy_sugeno(H.HardyScenario(f_src=f_src, check_kind="sugeno_hardy", p=p))
        assert rep.lhs == want ** (1.0 / (2.0 * p + 1.0))

    def test_overflowing_lhs_is_no_violation(self):
        # (1e200·xy)² overflows at every sample: each is +inf, so the lhs
        # integral is the whole square's measure, 1, not 0 with every
        # sample dropped
        rep = H.run_check(H.HardyScenario(f_src="1e200*x*y", check_kind="sugeno_hardy", p=2.0))
        assert (rep.lhs, rep.rhs_integral, rep.holds) == (1.0, 0.9999999999999993, True)

    def test_hypothesis_gate(self):
        scn = H.HardyScenario(f_src="x*y", check_kind="sugeno_hardy", p=0.5)
        with pytest.raises(H.HypothesisError):
            H.check_hardy_sugeno(scn)


def _kernel_by_every_block(F, m, p, X=1.0, Y=1.0):
    """The Sugeno check's rhs_integral with every block resolved and every h sorted."""
    n = F.shape[0]
    ends = 4 * np.arange(m) + 2
    R = sugeno_prefix_blocks(F, ends, ends, X * Y / n**2)
    mids = (np.arange(m) + 0.5) / m
    ratio = (R / np.multiply.outer(mids * X, mids * Y)).ravel().tolist()
    h = np.array([pow(r, p) for r in ratio]).reshape(m, m)
    return P.sugeno_from_samples(h, X * Y / m**2)


def _bracketed_kernel(F, m, p):
    """The check's own rhs_integral of samples F."""
    mids = (np.arange(m) + 0.5) / m
    return P.sugeno_of_block_powers(F, 4 * np.arange(m) + 2, 1.0 / F.size,
                                    np.multiply.outer(mids, mids), p, 1.0 / m**2)


def _count_resolved(monkeypatch):
    """(blocks resolved, blocks) of every resolve call sugeno_block_bounds hands out from now on."""
    real = P.sugeno_block_bounds
    resolved = []

    def spy(*args):
        lo, hi, resolve = real(*args)

        def counted(bi, bj):
            resolved.append((bi.size, lo.size))
            return resolve(bi, bj)
        return lo, hi, counted

    monkeypatch.setattr(P, "sugeno_block_bounds", spy)
    return resolved


class TestSugenoKernelBracket:
    """rhs_integral resolves only the blocks between S_lo and S_hi, with a full sort's bits."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_campaign_cells_match_every_block(self, seed):
        for scn in _first_trial_per_cell(seed, H.SUGENO_HARDY):
            rep = H.check_hardy_sugeno(scn)
            F = level_set_samples(expr.as_function(scn.f), scn.domain, 192)
            want = _kernel_by_every_block(F, 48, scn.p, scn.domain.x_high, scn.domain.y_high)
            assert rep.rhs_integral.hex() == want.hex(), (scn.f_src, scn.p)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("kind", ["constant", "two values", "negative", "64 squared"])
    def test_adversarial_samples_match_every_block(self, kind, p):
        rng = np.random.default_rng(len(kind))
        F = {
            "constant": np.full((192, 192), 0.3),
            "two values": rng.choice([0.2, 0.6], (192, 192)),
            "negative": rng.random((192, 192)) * 2.0 - 0.5,
            "64 squared": rng.random((64, 64)) ** 3,
        }[kind]
        m = F.shape[0] // 4
        assert _bracketed_kernel(F, m, p).hex() == _kernel_by_every_block(F, m, p).hex()

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_every_block_straddles(self, monkeypatch, p):
        # samples below one cell: each block's crossing is at k* = 0 with the
        # value of its largest sample, inside the first chunk that holds one of
        # its samples, so every lo is 0 and S_lo = 0 ≤ every h_hi: every block
        # is resolved
        F = np.random.default_rng(4).random((192, 192)) * 0.5 / 192**2
        want = _kernel_by_every_block(F, 48, p)
        resolved = _count_resolved(monkeypatch)
        assert _bracketed_kernel(F, 48, p).hex() == want.hex()
        assert resolved == [(48 * 48, 48 * 48)]

    def test_default_campaign_resolves_few_blocks(self, monkeypatch):
        # the first Sugeno trial of every cell of the default campaign resolves
        # under a quarter of its blocks, all cells together
        resolved = _count_resolved(monkeypatch)
        for scn in _first_trial_per_cell(FuzzConfig().seed, H.SUGENO_HARDY):
            H.check_hardy_sugeno(scn)
        asked, blocks = np.sum(resolved, axis=0)
        assert len(resolved) == 9 and asked < 0.25 * blocks


class TestCheckHardyClassical:
    def test_linear(self):
        # closed forms: ∫(F/x)² = ∫(x/2)² = 1/12 and 4·∫x² = 4/3
        rep = H.check_hardy_classical(lambda x: x, 2.0, 1e-6, 1.0)
        assert rep.lhs == pytest.approx(1.0 / 12.0, abs=1e-6)
        assert rep.rhs == pytest.approx(4.0 / 3.0, abs=1e-6)
        assert rep.holds is True

    def test_constant(self):
        rep = H.check_hardy_classical(lambda x: 1.0, 2.0, 1e-6, 1.0)
        assert rep.lhs == pytest.approx(1.0, abs=1e-5)
        assert rep.rhs == pytest.approx(4.0, abs=1e-5)
        assert rep.holds is True

    def test_scalar_only_integrand(self):
        # F(x) for all lhs nodes of a level is one batch; an integrand that
        # rejects arrays is called per node and gives the same report
        numpy_f = lambda x: x * (2.0 - x)
        scalar_f = lambda x: x * (2.0 - x) if x >= 0.0 else 0.0
        assert (H.check_hardy_classical(scalar_f, 3.0, 1e-6, 1.0)
                == H.check_hardy_classical(numpy_f, 3.0, 1e-6, 1.0))

    def test_divergent_side_not_evaluable(self):
        rep = H.check_hardy_classical(lambda x: 1.0 / (x - 0.5) ** 2, 2.0, 0.1, 1.0)
        assert rep.not_evaluable is True and rep.holds is None

    @pytest.mark.parametrize("f", [
        # ln(x - 0.3) fails on [0.1, 0.3] and is negative past it: the failure
        # is reported before the f >= 0 gate could raise
        lambda x: expr.as_function(expr.parse("ln(x-0.3)"))(x, 0.0),
        # math.log rejects the probe array and then each node below 0.3
        lambda x: math.log(x - 0.3),
    ], ids=["expression", "scalar_only"])
    def test_failing_f_not_evaluable(self, f):
        rep = H.check_hardy_classical(f, 2.0, 0.1, 1.0)
        assert rep.not_evaluable is True and rep.holds is None
        assert (rep.lhs, rep.rhs_integral, rep.rhs, rep.constant) == (None, None, None, 4.0)
        assert rep.statuses == {"rhs": "diverged"}
        assert rep.notes == ["f failed to evaluate on [0.1, 1.0]"]

    def test_zero_rejected(self):
        with pytest.raises(H.HypothesisError):
            H.check_hardy_classical(lambda x: 0.0, 2.0, 0.01, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(H.HypothesisError):
            H.check_hardy_classical(lambda x: -x, 2.0, 0.01, 1.0)

    def test_p_gate(self):
        with pytest.raises(H.HypothesisError):
            H.check_hardy_classical(lambda x: x, 1.0, 0.01, 1.0)


class TestRemarkDiagnostics:
    def test_fractional_p(self):
        gen = G.sqrt_gen()
        f = expr.as_function(expr.parse("x^2*y^2"))
        diag = H.remark_diagnostics(gen, f, 1.0 / 6.0)
        assert diag.branch == "0<p<1"
        assert diag.constant == pytest.approx(-0.5848035476425733, abs=1e-4)
        # frozen closed forms: 16^{-1/12}·(4/5)² and (6/7)²
        assert diag.lhs_inner == pytest.approx(0.507968336629824, abs=1e-4)
        assert diag.rhs_inner == pytest.approx(0.7346938775510203, abs=1e-4)
        assert diag.inequality_fails is True

    def test_negative_p(self):
        gen = G.sqrt_gen()
        f = expr.as_function(expr.parse("x^2*y^2"))
        diag = H.remark_diagnostics(gen, f, -2.0)
        assert diag.branch == "p<0"
        assert diag.lhs_status == "diverged"
        assert diag.inequality_fails is True

    def test_zero_p(self):
        gen = G.sqrt_gen()
        f = expr.as_function(expr.parse("x^2*y^2"))
        diag = H.remark_diagnostics(gen, f, 0.0)
        assert diag.branch == "p=0"
        # closed form: ∬ xy = 1/4, inverse squares: 1/16
        assert diag.criterion_value == pytest.approx(1.0 / 16.0, abs=1e-8)
        assert diag.criterion_met is False

    def test_p_gates(self):
        gen = G.sqrt_gen()
        f = expr.as_function(expr.parse("x*y"))
        with pytest.raises(H.HypothesisError):
            H.remark_diagnostics(gen, f, 2.0)
        with pytest.raises(H.HypothesisError):
            H.remark_diagnostics(gen, f, 1.0)

    def test_out_of_range_lhs_inner_integral_is_not_evaluable(self):
        # ∬ g(R^{1/2}) = ∬ (xy)⁻¹ ≈ 4 on the kernel grid lies outside [0, 1],
        # the range of g = x²: no lhs value, as in the p < 0 and p = 0 branches
        diag = H.remark_diagnostics(G.make_generator("power:2"),
                                    expr.as_function(expr.parse("1")), 0.5)
        assert diag.branch == "0<p<1" and diag.lhs_status == "converged"
        assert diag.lhs_inner > 1.0
        assert diag.rhs_inner == pytest.approx(1.0, abs=1e-12)
        assert (diag.lhs_value, diag.rhs_value, diag.inequality_fails) == (None, None, None)
        assert diag.notes[-1] == f"power:2: y={diag.lhs_inner!r} outside range [0.0, 1.0]"
        assert diag.not_evaluable

    def test_out_of_range_rhs_inner_integral_is_not_evaluable(self):
        # ∬ sqrt(4^(1/2)) = sqrt(2) lies outside [0, 1], the range of g = sqrt;
        # the rhs is inverted first, so its note is the reason
        diag = H.remark_diagnostics(G.sqrt_gen(), expr.as_function(expr.parse("4")), 0.5)
        assert diag.branch == "0<p<1" and diag.lhs_status == "converged"
        assert diag.rhs_inner == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert (diag.lhs_value, diag.rhs_value, diag.inequality_fails) == (None, None, None)
        assert diag.notes[-1] == f"sqrt: y={diag.rhs_inner!r} outside range [0.0, 1.0]"
        assert diag.not_evaluable

    def test_in_range_inner_integrals_carry_no_range_note(self):
        diag = H.remark_diagnostics(G.sqrt_gen(), expr.as_function(expr.parse("x^2*y^2")),
                                    1.0 / 6.0)
        assert not any("outside range" in n for n in diag.notes)
        assert not diag.not_evaluable

    def test_zero_p_divergent_integral_is_reported(self):
        diag = H.remark_diagnostics(G.identity(), expr.as_function(expr.parse("x^(-2)")), 0.0)
        assert diag.branch == "p=0" and diag.lhs_status == "diverged"
        assert diag.criterion_value is None and diag.criterion_met is None
        assert diag.notes == ["inner classical integral diverged"]
        assert diag.not_evaluable

    def test_zero_p_undefined_inverse_is_reported(self):
        # ∬ sqrt(2) = 1.414… lies outside [0, 1], the range of g = sqrt
        diag = H.remark_diagnostics(G.sqrt_gen(), expr.as_function(expr.parse("2")), 0.0)
        assert diag.lhs_status == "converged"
        assert diag.criterion_value is None and diag.criterion_met is None
        assert "outside range" in diag.notes[0]
        assert diag.not_evaluable

    def test_negative_p_undefined_inverse_is_reported(self):
        # ∬ g(0.5^(-1)) = sqrt(2) lies outside the range of g = sqrt
        diag = H.remark_diagnostics(G.sqrt_gen(), expr.as_function(expr.parse("0.5")), -1.0)
        assert diag.branch == "p<0" and diag.lhs_status == "converged"
        assert diag.lhs_value is None and diag.inequality_fails is None
        assert "outside range" in diag.notes[0]
        assert diag.not_evaluable

    @pytest.mark.parametrize("f_src,lhs_status,note", [
        # the rhs ∬ x^(-3/2) diverges; the kernel side has a value
        ("x^(-3)", "converged", "inner classical integral diverged"),
        # f fails on the kernel grid (x < 1/2), before either side has a value
        ("ln(x-0.5)", "diverged", "f failed to evaluate on the kernel grid"),
    ])
    def test_fractional_p_without_a_value_is_reported(self, f_src, lhs_status, note):
        diag = H.remark_diagnostics(G.identity(), expr.as_function(expr.parse(f_src)), 0.5)
        assert diag.branch == "0<p<1" and diag.lhs_status == lhs_status
        assert diag.constant == -1.0 and diag.constant_defined
        assert (diag.lhs_value, diag.rhs_inner, diag.rhs_value) == (None, None, None)
        assert diag.inequality_fails is None
        assert diag.notes[-1] == note
        assert diag.not_evaluable

    def test_reported_cases_are_evaluable(self):
        f = expr.as_function(expr.parse("x^2*y^2"))
        for p in (1.0 / 6.0, -2.0, 0.0):
            assert not H.remark_diagnostics(G.sqrt_gen(), f, p).not_evaluable

    def test_note_follows_the_recomputed_sides(self):
        # the constant is -1 at p = 1/2, but with f = 0 both sides are 0 and
        # the right side is not below the left
        diag = H.remark_diagnostics(G.identity(), expr.as_function(expr.parse("0")), 0.5)
        assert diag.constant == -1.0 and diag.lhs_value == 0.0
        assert diag.inequality_fails is False
        assert diag.notes[-1] == "inequality direction checked against the recomputed sides"
        diag = H.remark_diagnostics(G.sqrt_gen(), expr.as_function(expr.parse("x^2*y^2")),
                                    1.0 / 6.0)
        assert diag.notes[-1] == "right side is non-positive while the left side is positive"

    def test_undefined_constant(self):
        gen = G.identity()
        f = expr.as_function(expr.parse("x*y"))
        # 2p = sqrt(2)/2 has no small odd-denominator rational form
        diag = H.remark_diagnostics(gen, f, math.sqrt(2.0) / 4.0)
        assert diag.constant_defined is False
        assert diag.inequality_fails is True


class TestRootHelpers:
    def test_odd_denominator(self):
        assert H.odd_denominator_rational(1.0 / 3.0) == (1, 3)
        assert H.odd_denominator_rational(0.4) == (2, 5)
        assert H.odd_denominator_rational(0.5) is None  # even denominator
        assert H.odd_denominator_rational(math.pi / 10.0) is None

    def test_signed_root(self):
        assert H.signed_real_root(-1.0 / 5.0, 1, 3) == pytest.approx(-0.5848035476425733)
        assert H.signed_real_root(-8.0, 2, 3) == pytest.approx(4.0)
        assert H.signed_real_root(8.0, 1, 3) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            H.signed_real_root(-1.0, 1, 2)


class TestSerialization:
    def test_scenario_roundtrip(self):
        scn = H.HardyScenario(f_src="x*y", check_kind="sup_hardy", p=2.0,
                              semiring_spec="suptimes", psi_src="1")
        again = H.HardyScenario.from_dict(json.loads(json.dumps(scn.to_dict())))
        assert again == scn

    def test_scenario_key_order(self):
        # the order of the scenario's csv columns; unset g, semiring and psi are left out
        scn = H.HardyScenario(f_src="x*y", check_kind="sup_hardy", p=2.0, gen_spec="half",
                              semiring_spec="suptimes", psi_src="1")
        assert list(scn.to_dict()) == ["f", "kind", "p", "domain", "g", "semiring", "psi"]
        assert H.HardyScenario.from_dict(scn.to_dict()) == scn
        bare = H.HardyScenario(f_src="x", check_kind="sugeno_hardy", p=3.0)
        assert bare.to_dict() == {"f": "x", "kind": "sugeno_hardy", "p": 3.0,
                                  "domain": [0.0, 1.0, 0.0, 1.0]}
        assert H.HardyScenario.from_dict({"f": "x", "kind": "sugeno_hardy", "p": 3}) == bare

    def test_report_roundtrip(self):
        scn = H.HardyScenario(f_src="(x+y)/2", check_kind="g_hardy", p=2.0,
                              gen_spec="half")
        rep = H.check_hardy_g(scn)
        again = H.HardyReport.from_dict(json.loads(json.dumps(rep.to_dict())))
        assert again.to_dict() == rep.to_dict()

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            H.HardyScenario(f_src="x*y", check_kind="unknown", p=2.0)
        with pytest.raises(Exception):
            H.HardyScenario(f_src="x +* y", check_kind="g_hardy", p=2.0)

    @pytest.mark.parametrize("spec", [
        dict(check_kind="g_hardy", gen_spec="sqrt"),
        dict(check_kind="sup_hardy", semiring_spec="suptimes"),
        dict(check_kind="sugeno_hardy"),
    ], ids=lambda spec: spec["check_kind"])
    def test_two_dimensional_checks_need_the_origin_anchor(self, spec):
        scn = H.HardyScenario(f_src="x*y", p=2.0, domain=Rect(0.5, 1.0, 0.0, 1.0), **spec)
        with pytest.raises(ValueError, match="anchored at the origin"):
            H.run_check(scn)

    def test_classical_check_needs_no_origin_anchor(self):
        # the classical check reads (x_low, x_high) as its interval, which must start past 0
        scn = H.HardyScenario(f_src="x", check_kind="classical", p=2.0,
                              domain=Rect(0.5, 1.0, 0.0, 1.0))
        rep = H.run_check(scn)
        assert rep.holds is True and rep.not_evaluable is False


def test_report_verdict_tolerance():
    def holds(lhs, rhs, kind=H.G_HARDY):
        return H._report(kind, 2.0, lhs, rhs, 1.0, {}, []).holds

    # holds ⇔ lhs ≤ rhs·(1+1e-9)+1e-12 for the ≤-direction checks
    for kind in (H.G_HARDY, H.SUP_HARDY):
        assert holds(1.0, 1.0, kind)
        assert holds(1.0 + 1e-10, 1.0, kind)
        assert not holds(1.0 + 1e-8, 1.0, kind)
    # lhs ≥ rhs − 1e-6 for Sugeno, and lhs < rhs, strictly, for the classical check
    assert holds(1.0 - 1e-7, 1.0, H.SUGENO_HARDY)
    assert not holds(1.0 - 1e-5, 1.0, H.SUGENO_HARDY)
    assert holds(1.0 - 1e-12, 1.0, H.CLASSICAL)
    assert not holds(1.0, 1.0, H.CLASSICAL)


def test_report_forms_rhs_from_the_constant():
    rep = H._report(H.G_HARDY, 2.0, 0.5, 0.25, 16.0, {"rhs": "converged"}, ["n"],
                    pointwise_max=0.0, pointwise_location=(1.0, 1.0))
    assert (rep.rhs, rep.direction, rep.holds) == (4.0, "le", True)
    assert (rep.statuses, rep.notes, rep.pointwise_location) == ({"rhs": "converged"}, ["n"], (1.0, 1.0))


# one evaluable and one not-evaluable scenario per check kind
NOT_EVALUABLE_PAIRS = [
    (dict(f_src="x*y", check_kind="g_hardy", p=2.0, gen_spec="sqrt"),
     dict(f_src="(x*y)^(-2)", check_kind="g_hardy", p=2.0, gen_spec="sqrt")),
    (dict(f_src="x*y", check_kind="sup_hardy", p=2.0, semiring_spec="suptimes"),
     dict(f_src="ln(x-0.3)", check_kind="sup_hardy", p=2.0, semiring_spec="suptimes")),
    (dict(f_src="x*y", check_kind="sugeno_hardy", p=2.0),
     dict(f_src="ln(x-0.3)+2", check_kind="sugeno_hardy", p=2.0)),
    (dict(f_src="x", check_kind="classical", p=2.0, domain=Rect(0.1, 1.0, 0.0, 1.0)),
     dict(f_src="1/(x-0.5)^2", check_kind="classical", p=2.0,
          domain=Rect(0.1, 1.0, 0.0, 1.0))),
]


@pytest.mark.parametrize("good,bad", NOT_EVALUABLE_PAIRS,
                         ids=[g["check_kind"] for g, _ in NOT_EVALUABLE_PAIRS])
def test_not_evaluable_report_keeps_the_direction_of_its_kind(good, bad):
    evaluable = H.run_check(H.HardyScenario(**good))
    rep = H.run_check(H.HardyScenario(**bad))
    assert evaluable.not_evaluable is False and rep.not_evaluable is True
    assert rep.holds is None and len(rep.notes) == 1
    assert rep.kind == evaluable.kind
    assert rep.direction == evaluable.direction == H.DIRECTIONS[rep.kind]
    assert rep.constant == evaluable.constant
