"""Fuzz harness: PRNG contract, families, campaign determinism, refine studies."""

import json
from dataclasses import fields

import pytest

from pseudocalc import expr
from pseudocalc import harness as HA
from pseudocalc.hardy import HardyScenario
from pseudocalc.harness import DivergenceError


class TestSplitMix64:
    def test_reference_vectors(self):
        # published splitmix64 outputs for seed 1234567
        r = HA.SplitMix64(1234567)
        assert r.next_u64() == 6457827717110365317
        assert r.next_u64() == 3203168211198807973
        assert r.next_u64() == 9817491932198370423

    def test_uniform_range_and_determinism(self):
        a = HA.SplitMix64(99)
        b = HA.SplitMix64(99)
        va = [a.uniform(0.25, 0.75) for _ in range(100)]
        vb = [b.uniform(0.25, 0.75) for _ in range(100)]
        assert va == vb
        assert all(0.25 <= v < 0.75 for v in va)

    def test_trial_rng_streams_differ(self):
        assert HA.trial_rng(1, 0).next_u64() != HA.trial_rng(1, 1).next_u64()
        assert HA.trial_rng(1, 5).next_u64() == HA.trial_rng(1, 5).next_u64()


class TestRandomFunction:
    @pytest.mark.parametrize("family", HA.FAMILIES)
    def test_monotone_and_bounded(self, family):
        for i in range(20):
            src = HA.random_function(HA.trial_rng(42, i), family)
            tree = expr.parse(src)
            assert expr.evaluate(tree, 0.2, 0.3) <= expr.evaluate(tree, 0.7, 0.9) + 1e-12
            corner = expr.evaluate(tree, 1.0, 1.0)
            assert 0.0 <= corner <= 1.0 + 1e-9
            assert expr.evaluate(tree, 0.0, 0.0) >= 0.0

    def test_affine_mean_shape(self):
        src = HA.random_function(HA.trial_rng(3, 1), "affine-mean")
        assert "(x+y)/2" in src
        tree = expr.parse(src)
        c = expr.evaluate(tree, 1.0, 1.0)
        assert 0.0 < c <= 1.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            HA.random_function(HA.SplitMix64(1), "nope")


class TestFuzzConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HA.FuzzConfig(trials=0)
        with pytest.raises(ValueError):
            HA.FuzzConfig(p_values=(0.5,))
        with pytest.raises(ValueError):
            HA.FuzzConfig(p_values=(1.0,))  # g/sup kinds need p > 1
        # sugeno-only campaigns admit p = 1
        HA.FuzzConfig(p_values=(1.0,), kinds=("sugeno_hardy",))

    def test_json_roundtrip(self):
        cfg = HA.FuzzConfig(seed=5, trials=7, tolerance_overrides={"sup_level": 7})
        again = HA.FuzzConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_override_reaches_the_hardy_config(self):
        assert HA.FuzzConfig(tolerance_overrides={"sup_level": 7}).hardy_config().sup_level == 7

    def test_override_names_checked(self):
        cfg = HA.FuzzConfig(tolerance_overrides={"not_a_knob": 1})
        with pytest.raises(ValueError):
            cfg.hardy_config()

    @pytest.mark.parametrize("name", ["pointwise_panels", "pointwise_points", "sugeno_samples"])
    def test_removed_knobs_rejected(self, name):
        # R ≤ f is read off the kernel grid and the Sugeno sample grid is
        # 4 × sugeno_outer, so neither has a knob of its own
        cfg = HA.FuzzConfig(tolerance_overrides={name: 64})
        with pytest.raises(ValueError, match="unknown tolerance override"):
            cfg.hardy_config()


class TestCampaign:
    def test_small_campaign_all_hold(self, tmp_path):
        cfg = HA.FuzzConfig(seed=2024, trials=12)
        report = HA.run_campaign(cfg, corpus_dir=tmp_path / "corpus")
        assert report.holds == 12
        assert report.violations == 0
        assert report.not_evaluable == 0
        assert not (tmp_path / "corpus").exists()  # no dumps without failures

    def test_deterministic_bytes(self):
        cfg = HA.FuzzConfig(seed=77, trials=9)
        a = HA.run_campaign(cfg).to_json()
        b = HA.run_campaign(cfg).to_json()
        assert a == b
        assert "wall_time" not in a

    def test_json_parses_back_into_model(self):
        cfg = HA.FuzzConfig(seed=77, trials=4)
        report = HA.run_campaign(cfg)
        restored = HA.CampaignReport.from_dict(json.loads(report.to_json()))
        assert restored.to_json() == report.to_json()
        assert restored.trials[2].scenario == report.trials[2].scenario

    def test_trial_order_and_kinds_round_robin(self):
        cfg = HA.FuzzConfig(seed=5, trials=6)
        report = HA.run_campaign(cfg)
        kinds = [t.scenario.check_kind for t in report.trials]
        assert kinds == ["g_hardy", "sup_hardy", "sugeno_hardy"] * 2
        assert [t.index for t in report.trials] == list(range(6))

    def test_replay_matches_campaign(self):
        cfg = HA.FuzzConfig(seed=13, trials=4)
        report = HA.run_campaign(cfg)
        for idx in (0, 3):
            replayed = HA.replay_trial(cfg, idx)
            assert replayed.scenario == report.trials[idx].scenario
            assert replayed.report.to_dict() == report.trials[idx].report.to_dict()

    def test_scenarios_are_pure_function_of_config(self):
        cfg = HA.FuzzConfig(seed=8, trials=5)
        first = [HA.build_trial_scenario(cfg, i) for i in range(5)]
        second = [HA.build_trial_scenario(cfg, i) for i in range(5)]
        assert first == second

    def test_violation_dumps_replayable_scenario(self, tmp_path, monkeypatch):
        # force a violation verdict to exercise the corpus dump path
        from pseudocalc.hardy import HardyReport

        def fake_check(scn, config):
            return HardyReport(kind=scn.check_kind, p=scn.p, lhs=2.0,
                               rhs_integral=0.1, constant=1.0, rhs=0.1,
                               holds=False, direction="le")

        monkeypatch.setattr(HA, "run_check", fake_check)
        cfg = HA.FuzzConfig(seed=6, trials=2, kinds=("g_hardy",))
        report = HA.run_campaign(cfg, corpus_dir=tmp_path)
        assert report.violations == 2
        dumps = sorted(tmp_path.glob("violation-*.json"))
        assert len(dumps) == 2
        restored = HardyScenario.from_dict(json.loads(dumps[0].read_text()))
        assert restored == report.trials[0].scenario

    def test_counts_come_from_the_outcomes(self, tmp_path, monkeypatch):
        # one trial of each outcome: holds, violation, not evaluable
        from pseudocalc.hardy import HardyReport

        verdicts = iter([True, False, None])

        def fake_check(scn, config):
            holds = next(verdicts)
            return HardyReport(kind=scn.check_kind, p=scn.p, lhs=2.0, rhs_integral=0.1,
                               constant=1.0, rhs=0.1, holds=holds, direction="le",
                               not_evaluable=holds is None)

        monkeypatch.setattr(HA, "run_check", fake_check)
        cfg = HA.FuzzConfig(seed=6, trials=3, kinds=("g_hardy",))
        report = HA.run_campaign(cfg, corpus_dir=tmp_path)
        assert [f.name for f in fields(report)] == ["config", "trials"]
        assert [t.outcome for t in report.trials] == ["holds", "violation", "not_evaluable"]
        assert (report.holds, report.violations, report.not_evaluable) == (1, 1, 1)
        assert report.violation_indices == [1]
        text = report.to_json()
        assert json.loads(text)["counts"] == {"holds": 1, "violations": 1, "not_evaluable": 1}
        assert HA.CampaignReport.from_dict(json.loads(text)).to_json() == text
        assert [p.name for p in tmp_path.iterdir()] == ["violation-6-00001.json"]
        dumped = json.loads((tmp_path / "violation-6-00001.json").read_text())
        assert HardyScenario.from_dict(dumped) == report.trials[1].scenario


class TestRefineStudy:
    def test_worked_scenario_stabilizes(self):
        scn = HardyScenario(f_src="(x+y)/2", check_kind="g_hardy", p=2.0, gen_spec="half")
        report = HA.refine_study(scn, [4, 6, 8])
        assert abs(report.lhs_values[-1] - 14.0 / 192.0) < 1e-6
        assert report.errors[0] > report.errors[1]

    def test_simpson_order_on_smooth_monomial(self):
        scn = HardyScenario(f_src="x^2*y^2", check_kind="g_hardy", p=2.0, gen_spec="sqrt")
        report = HA.refine_study(scn, [4, 6, 8])
        assert report.observed_order is not None
        assert report.observed_order >= 3.5

    def test_constant_scenario_zero_variation(self):
        scn = HardyScenario(f_src="0.5", check_kind="g_hardy", p=2.0, gen_spec="identity")
        report = HA.refine_study(scn, [4, 6, 8])
        assert all(e == 0.0 for e in report.errors)
        assert "zero variation across levels" in report.notes

    def test_sup_ladder_refines_the_scan(self):
        # the level-3 scan nodes are among the level-5 ones, so the sup can only grow
        scn = HardyScenario(f_src="x*y*(1.3-x*y)", check_kind="sup_hardy", p=2.0,
                            semiring_spec="suptimes")
        report = HA.refine_study(scn, [3, 5])
        assert report.lhs_values[0] < report.lhs_values[1] < 0.4225
        assert report.errors[0] > 0.0 and report.notes == []

    def test_sugeno_ladder_refines_the_grids(self):
        # levels up to 4 share the coarsest grids; level 6 has finer ones
        scn = HardyScenario(f_src="(x+y)/2", check_kind="sugeno_hardy", p=3.0)
        report = HA.refine_study(scn, [2, 4, 6])
        assert report.lhs_values[0] == report.lhs_values[1] != report.lhs_values[2]
        assert report.errors[0] == report.errors[1] > 0.0

    def test_divergent_scenario_rejected(self):
        scn = HardyScenario(f_src="(x*y)^(-2)", check_kind="g_hardy", p=2.0,
                            gen_spec="sqrt")
        with pytest.raises(DivergenceError):
            HA.refine_study(scn, [4, 6])

    @pytest.mark.parametrize("levels,bad", [([-400, -399], -400), ([300, 400], 400)])
    def test_level_without_a_finite_tolerance_rejected(self, levels, bad):
        # 10^400 overflows and 10^-400 underflows to 0: neither is a tolerance
        scn = HardyScenario(f_src="(x+y)/2", check_kind="g_hardy", p=2.0, gen_spec="half")
        with pytest.raises(ValueError, match=rf"^level {bad}: the tolerance 10\^{-bad} is not "
                                             "a positive finite float$"):
            HA.refine_study(scn, levels)

    def test_report_round_trips_with_its_scenario(self):
        scn = HardyScenario(f_src="(x+y)/2", check_kind="g_hardy", p=2.0, gen_spec="half")
        report = HA.refine_study(scn, [4, 6])
        back = HA.ConvergenceReport.from_dict(report.to_dict())
        assert back == report and isinstance(back.scenario, HardyScenario)

    def test_levels_must_ascend(self):
        scn = HardyScenario(f_src="x*y", check_kind="g_hardy", p=2.0, gen_spec="half")
        with pytest.raises(ValueError):
            HA.refine_study(scn, [6, 4])
        with pytest.raises(ValueError):
            HA.refine_study(scn, [4])
