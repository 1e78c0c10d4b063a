"""CLI surface: flags, exit codes, output formats, reproduction fixtures."""

import csv
import hashlib
import io
import json

import pytest

from pseudocalc import cli, expr
from pseudocalc.generators import make_generator
from pseudocalc.hardy import HardyReport
from pseudocalc.pseudo_integral import g_integral_2d_result
from pseudocalc.quadrature import UNIT_SQUARE


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIntegrate:
    def test_g_integral_2d(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--f", "x^2*y^2", "--g", "sqrt",
                               "--dim", "2", "--domain", "0,1,0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["value"] == pytest.approx(0.0625, abs=1e-8)
        assert payload["status"] == "converged"

    def test_g_integral_1d(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--f", "x", "--g", "identity",
                               "--dim", "1", "--domain", "0,1")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.5, abs=1e-10)

    def test_divergent_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--f", "(x*y)^(-2)", "--g", "sqrt",
                               "--dim", "2")
        assert code == 2
        body = json.loads(out)
        assert body["status"] == "diverged"
        assert body["value"] is None   # a partial sum of a divergent integral means nothing

    def test_log_divergence_is_diverged(self, capsys):
        # ∫₀¹ x⁻¹: the endpoint probe calls it divergent, not a value outside g's range
        code, out, _ = run_cli(capsys, "integrate", "--f", "x^(-1)", "--g", "identity",
                               "--dim", "1")
        assert code == 2
        body = json.loads(out)
        assert (body["status"], body["value"]) == ("diverged", None)

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--f", "x +* y", "--g", "sqrt")
        assert code == 1
        assert "position" in err

    @pytest.mark.parametrize("f_src", ["(" * 400 + "x" + ")" * 400, "+".join(["x"] * 3000),
                                       "^".join(["x"] * 3000), "+".join(["x"] * 985),
                                       "^".join(["x"] * 985)],
                             ids=["400-parens", "3000-sum", "3000-power", "985-sum", "985-power"])
    def test_deep_expression_is_an_expression_error(self, capsys, f_src):
        code, out, err = run_cli(capsys, "integrate", "--g", "identity", "--dim", "1",
                                 "--f", f_src)
        assert (code, out) == (1, "")
        assert err.startswith("expression error: ")

    def test_sup_integral(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--f", "x*y", "--semiring",
                               "suptimes", "--dim", "2")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-9)

    def test_sup_integral_custom_psi(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--f", "x*y", "--semiring",
                               "suptimes", "--psi", "1-x", "--dim", "2")
        assert code == 0
        # sup of xy(1-x)(1-y) is 1/16 at the center
        assert json.loads(out)["value"] == pytest.approx(1.0 / 16.0, abs=1e-9)

    def test_sup_integral_1d(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--f", "x*(1-x)", "--semiring",
                               "suptimes", "--dim", "1", "--domain", "0,1")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.25, abs=1e-6)

    def test_sup_integral_1d_evaluates_at_y_zero(self, capsys):
        # the 1-D integrand is f(x, 0), as on the 1-D g path
        values = []
        for f in ("x+y", "x"):
            code, out, _ = run_cli(capsys, "integrate", "--f", f, "--semiring",
                                   "suptimes", "--dim", "1", "--domain", "0,1")
            assert code == 0
            values.append(json.loads(out)["value"])
        assert values[0] == values[1] == 1.0

    @pytest.mark.parametrize("f_src", ["1/x", "1/(x-0.5)"])
    def test_sup_integral_1d_skips_failed_nodes(self, capsys, f_src):
        # as in 2-D, nodes where f fails are skipped instead of making the sup NaN
        code, out, _ = run_cli(capsys, "integrate", "--f", f_src, "--semiring",
                               "suptimes", "--dim", "1")
        assert code == 0
        assert json.loads(out)["value"] == 4096.0

    def test_inverse_undefined_exit_code(self, capsys):
        # ∬ x^{-1/2} = 2 lies outside [0, 1], the range of the identity generator
        code, out, _ = run_cli(capsys, "integrate", "--f", "x^(-0.5)", "--g", "identity",
                               "--dim", "2")
        assert code == 2
        payload = json.loads(out)
        assert payload["value"] is None
        assert payload["integral"] == "g"
        assert payload["status"] == "max_refinement"
        assert "outside range" in payload["detail"]

    def test_sugeno_flag(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--f", "min(x,y)", "--sugeno",
                               "--dim", "2", "--grid", "512")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.381966, abs=2e-3)

    def test_max_depth_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PSEUDOCALC_MAX_DEPTH", "4")
        code, out, _ = run_cli(capsys, "integrate", "--f", "x^0.25", "--g", "identity",
                               "--dim", "1", "--domain", "0,1")
        payload = json.loads(out)
        assert payload["config"]["max_depth"] == 4
        assert payload["status"] == "max_refinement"

    def test_missing_backend(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--f", "x*y")
        assert code == 1

    @pytest.mark.parametrize("backend", [["--g", "sqrt"], ["--semiring", "suptimes"]])
    def test_dim_1_default_domain(self, capsys, backend):
        # without --domain, --dim 1 integrates over [0,1] and echoes "0,1"
        code, out, _ = run_cli(capsys, "integrate", "--f", "x", *backend, "--dim", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["domain"] == "0,1"
        _, explicit, _ = run_cli(capsys, "integrate", "--f", "x", *backend, "--dim", "1",
                                 "--domain", "0,1")
        assert out == explicit

    def test_dim_2_default_domain_bytes(self, capsys):
        _, default, _ = run_cli(capsys, "integrate", "--f", "x*y", "--g", "sqrt")
        _, explicit, _ = run_cli(capsys, "integrate", "--f", "x*y", "--g", "sqrt",
                                 "--dim", "2", "--domain", "0,1,0,1")
        assert default == explicit
        assert json.loads(default)["config"]["domain"] == "0,1,0,1"


class TestHardyCommand:
    def test_csv_format(self, capsys):
        # one row of dotted keys, with the values of the json report; lists are
        # joined with ';'
        argv = ("hardy", "--f", "x^2*y^2", "--g", "half", "--p", "2", "--kind", "g_hardy")
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        (row,) = list(csv.DictReader(io.StringIO(out)))
        _, out, _ = run_cli(capsys, *argv)
        report = json.loads(out)
        assert (row["report"], row["scenario.f"], row["holds"]) == ("hardy", "x^2*y^2", "True")
        assert row["scenario.domain"] == "0.0;1.0;0.0;1.0"
        assert [float(v) for v in row["pointwise_location"].split(";")] == report["pointwise_location"]
        assert float(row["lhs"]) == report["lhs"]
        assert (row["statuses.lhs"], row["notes"]) == ("converged", "")

    def test_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"f": "(x+y)/2", "g": "half", "p": 2.0,
                                    "kind": "g_hardy", "domain": [0, 1, 0, 1]}))
        code, out, _ = run_cli(capsys, "hardy", "--scenario", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["lhs"] == pytest.approx(14.0 / 192.0, abs=1e-6)
        # reports parse back into the data model
        rep = HardyReport.from_dict(payload)
        assert rep.holds is True

    def test_hypothesis_gate_suggests_diagnostics(self, capsys):
        code, _, err = run_cli(capsys, "hardy", "--f", "x*y", "--g", "identity",
                               "--p", "0.5")
        assert code == 1
        assert "--diagnostics" in err

    @pytest.mark.parametrize("argv", [
        ("--f", "x", "--kind", "classical", "--p", "2"),      # 0 < low < high fails
        ("--f", "x", "--kind", "classical", "--p", "0.5", "--domain", "0.1,1"),
        ("--f", "x*y", "--semiring", "suptimes", "--p", "0.5"),
    ])
    def test_hypothesis_gate_without_diagnostics_hint(self, capsys, argv):
        # --diagnostics serves only the g check with p <= 1
        code, _, err = run_cli(capsys, "hardy", *argv)
        assert code == 1
        assert "hypothesis error" in err
        assert "--diagnostics" not in err

    def test_diagnostics_mode(self, capsys):
        code, out, _ = run_cli(capsys, "hardy", "--f", "x^2*y^2", "--g", "sqrt",
                               "--p", "0", "--diagnostics")
        assert code == 0
        payload = json.loads(out)
        assert payload["branch"] == "p=0"
        assert payload["criterion_value"] == pytest.approx(1.0 / 16.0, abs=1e-8)

    @pytest.mark.parametrize("f_src,status,note", [
        ("x^(-2)", "diverged", "inner classical integral diverged"),
        ("2", "converged", "sqrt: y=1.4142135623730951 outside range [0.0, 1.0]"),
    ])
    def test_diagnostics_without_a_value_exit_2(self, capsys, f_src, status, note):
        gen = "identity" if status == "diverged" else "sqrt"
        code, out, err = run_cli(capsys, "hardy", "--f", f_src, "--g", gen, "--p", "0",
                                 "--diagnostics")
        assert code == 2 and err == ""
        payload = json.loads(out)
        assert payload["criterion_value"] is None and payload["criterion_met"] is None
        assert payload["lhs_status"] == status
        assert payload["notes"] == [note]

    @pytest.mark.parametrize("f_src,gen,note", [
        ("x^(-3)", "identity", "inner classical integral diverged"),
        ("ln(x-0.5)", "identity", "f failed to evaluate on the kernel grid"),
        # ∬ g(R^{1/2}) ≈ 4 lies outside the power:2 range [0, 1]: no clamped lhs value
        ("1", "power:2", "power:2: y=3.9997621579728033 outside range [0.0, 1.0]"),
    ])
    def test_fractional_p_diagnostics_without_a_value_exit_2(self, capsys, f_src, gen, note):
        code, out, err = run_cli(capsys, "hardy", "--f", f_src, "--g", gen,
                                 "--p", "0.5", "--diagnostics")
        assert code == 2 and err == ""
        payload = json.loads(out)
        assert payload["branch"] == "0<p<1"
        assert payload["lhs_value"] is None and payload["inequality_fails"] is None
        assert payload["notes"][-1] == note

    def test_singular_corner_is_evaluable(self, capsys):
        # x/(x+y) fails only at the origin; the kernel grid retries it inward
        # as the adaptive right-hand side does
        code, out, _ = run_cli(capsys, "hardy", "--f", "x/(x+y)", "--g", "identity",
                               "--p", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["not_evaluable"] is False and payload["holds"] is True
        f = expr.as_function(expr.parse("x/(x+y)"))
        rhs_integral, _ = g_integral_2d_result(make_generator("identity"),
                                               lambda s, t: f(s, t) ** 2.0, UNIT_SQUARE)
        assert payload["rhs_integral"] == rhs_integral

    def test_singular_corner_is_evaluable_on_the_sup_grid(self, capsys):
        code, out, _ = run_cli(capsys, "hardy", "--f", "x/(x+y)", "--semiring", "suptimes",
                               "--p", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["not_evaluable"] is False and payload["holds"] is True

    def test_undefined_rhs_inverse_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "hardy", "--f", "x^(-0.2)", "--g", "sqrt", "--p", "2")
        assert code == 2
        payload = json.loads(out)
        assert payload["not_evaluable"] is True and payload["holds"] is None
        assert "outside range" in payload["notes"][0]

    def test_failed_sugeno_sample_exits_2(self, capsys, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"f": "ln(x-0.3)+2", "kind": "sugeno_hardy", "p": 2.0}))
        code, out, _ = run_cli(capsys, "hardy", "--scenario", str(path))
        assert code == 2
        payload = json.loads(out)
        assert payload["not_evaluable"] is True and payload["holds"] is None
        assert payload["notes"] == ["f failed to evaluate on the Sugeno sample grid"]

    def test_undefined_lhs_exits_2(self, capsys):
        # the lhs inner integral leaves the power:2 range; it was clamped and
        # reported as holding before
        code, out, _ = run_cli(capsys, "hardy", "--f", "1", "--g", "power:2", "--p", "2")
        assert code == 2
        payload = json.loads(out)
        assert payload["not_evaluable"] is True and payload["holds"] is None
        assert payload["lhs"] is None and payload["statuses"]["lhs"] == "diverged"
        assert payload["notes"] == ["power:2: y=4951048217572968.0 outside range [0.0, 1.0]"]

    def test_failing_classical_f_exits_2(self, capsys):
        # a report, as the g, sup and Sugeno checks give, not an error
        code, out, err = run_cli(capsys, "hardy", "--f", "ln(x-0.3)", "--kind", "classical",
                                 "--p", "2", "--domain", "0.1,1,0,1")
        assert code == 2 and err == ""
        payload = json.loads(out)
        assert payload["not_evaluable"] is True and payload["holds"] is None
        assert payload["statuses"] == {"rhs": "diverged"}
        assert payload["notes"] == ["f failed to evaluate on [0.1, 1.0]"]

    def test_negative_sugeno_f_warns(self, capsys):
        code, out, _ = run_cli(capsys, "hardy", "--f", "x-0.5", "--kind", "sugeno_hardy",
                               "--p", "1.5")
        assert code == 0
        payload = json.loads(out)
        assert "f takes negative values: theorem hypotheses not met" in payload["notes"]

    def test_inline_sup(self, capsys):
        code, out, _ = run_cli(capsys, "hardy", "--f", "x*y", "--semiring", "suptimes",
                               "--p", "2")
        assert code == 0
        assert json.loads(out)["kind"] == "sup_hardy"


class TestReproduce:
    def test_worked_half_scenario_matches(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "ex33")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict_matches"] is True
        assert payload["discrepancies"] == []
        by_name = {v["name"]: v for v in payload["values"]}
        assert by_name["lhs"]["agree"] is True

    def test_sqrt_scenario_discrepancy_notes(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "ex32")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict_matches"] is True
        assert len(payload["discrepancies"]) == 2
        by_name = {v["name"]: v for v in payload["values"]}
        # the printed numbers do not match the recomputation
        assert by_name["lhs"]["agree"] is False
        assert by_name["rhs_integral"]["agree"] is False

    def test_negative_p_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "remark35b")
        assert code == 0
        assert json.loads(out)["computed_conclusion"] == "diverged"

    def test_zero_p_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "remark35c")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict_matches"] is True
        assert any("0.25" in d or "1/16" in d for d in payload["discrepancies"])

    @pytest.mark.parametrize("name", ["ex38", "ex39", "classical"])
    def test_other_scenarios(self, capsys, name):
        code, out, _ = run_cli(capsys, "reproduce", name)
        assert code == 0
        assert json.loads(out)["verdict_matches"] is True

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "ex99")
        assert code == 1
        assert "unknown scenario" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "ex33", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        names = [r["name"] for r in rows]
        assert "lhs" in names and "constant" in names

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "ex33", "--format", "text")
        assert code == 0
        assert "verdict_matches: True" in out


# SHA-256 of the stdout of `reproduce <name> --format <fmt>`, recorded before
# the fixtures became one table; every one exits 0
REPRODUCE_DIGESTS = {
    ("ex32", "json"): "6a6c2f8997dd69b3db352c33918fa4a214d505355f8dedf28d695d12a31b2046",
    ("ex32", "csv"): "86a292a86f400f0c953fd308b0df3cdca40ee4cabd584b0792c6442609ca5e3b",
    ("ex32", "text"): "f2b2a7c79023a0f4ead9e164e41fb9177f8ce401b9fdd4b544a014f265c92e51",
    ("ex33", "json"): "9c7ed607fdd18a22f34b3278ec509ee2b15c4477f5c898ebcb97d5063cd74c05",
    ("ex33", "csv"): "03d1e55b67eec40c6935710b03fe1bc8e41d15745a9cc1097913d17c9f3eef14",
    ("ex33", "text"): "8488a00f5b36e392496918f0a2700df3e3de5c438f50d1afb50f2ee8ba6b042f",
    ("remark35a", "json"): "a756cf02dbd2613974e278ddcf31e68a159f9eee3db8944679c85adc83c4675e",
    ("remark35a", "csv"): "8b9135196504dc2b7d8e5269728e0f2450d86c736b101e5f41a438909ae1d89e",
    ("remark35a", "text"): "ca853f82224f38112b84691f66f431b97b11b6476a851fae5f3e29bd19e53595",
    ("remark35b", "json"): "4309ad55b8b289343b945843cd8fded0759361337b440d7b4d5f258f6413284b",
    ("remark35b", "csv"): "e2074487c460eaa92c723562cb93d4e95445bf95c4cb9dcaa3de1d6dfdcaf48f",
    ("remark35b", "text"): "59528d180e06fe86066b7912ea4de937e8f94ff10dd1d1de4490a7c9e00eb9be",
    ("remark35c", "json"): "dc7250978e28cd37546f44269f7b36404bdebfe79811bfed055ccd23623cb26e",
    ("remark35c", "csv"): "2ef9d9083e1ae349b04f206a7ba714c71f8e1c4ffa62f25925064615ca86b5d8",
    ("remark35c", "text"): "7f3eb8ab86552c67fcf25067bcf907b64a3edcbc0b60df4bbef47b2b5d22a664",
    ("ex38", "json"): "31881b68c96f247842555da1cd9db97a8f44bce294752762ae81f50119f60fe1",
    ("ex38", "csv"): "c0beb205d5fbc31831efdcde898f05b60f1043f6409415d3708b654309ac31ba",
    ("ex38", "text"): "76dab30301d21843401a4d3ec790ab0af3ec275b7a28aa409e3508e3bbd1f252",
    ("ex39", "json"): "885259ac0a4f9c0e96ad5151a7c1158ca20bc15fccbfea0a2d3f3082adbf82f4",
    ("ex39", "csv"): "c0beb205d5fbc31831efdcde898f05b60f1043f6409415d3708b654309ac31ba",
    ("ex39", "text"): "953e4cef3fde6fe1ca95b310be147ad7bad9766049008a057fc63de3664d36df",
    ("classical", "json"): "2cc8d7c1bb8fd4f38be16537c3f9418598885bcc51370ebc54ea97589be22443",
    ("classical", "csv"): "027ffeb7bf3a34aea4d54fe13322d3edb79081278ecb8ef8b08710f79be6aa97",
    ("classical", "text"): "338bcb7139ec35bbcc5167e6b7a70d3ecda5d6ee77d51ffc810d37b7f05f80fc",
}


class TestReproduceTable:
    def test_every_fixture_has_a_digest(self):
        assert set(cli.REPRODUCE) == set(cli.SCENARIOS)
        assert {name for name, _ in REPRODUCE_DIGESTS} == set(cli.SCENARIOS)

    @pytest.mark.parametrize("name,fmt", sorted(REPRODUCE_DIGESTS))
    def test_output_bytes(self, capsys, name, fmt):
        code, out, _ = run_cli(capsys, "reproduce", name, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == REPRODUCE_DIGESTS[name, fmt]

    def test_reproduce_returns_a_fresh_report(self):
        first = cli.REPRODUCE["ex32"]()
        first["discrepancies"].append("changed by a caller")
        assert len(cli.REPRODUCE["ex32"]()["discrepancies"]) == 2

    def test_row_rule(self):
        assert cli._row("v", 1.0, 1.0 + 1e-7) == {
            "name": "v", "paper": 1.0, "recomputed": 1.0 + 1e-7, "agree": True}
        assert cli._row("v", 1.0, 1.0 + 1e-5)["agree"] is False
        assert cli._row("v", 1.0, 1.5, tol=1.0)["agree"] is True
        assert cli._row("s", "fails", "fails")["agree"] is True
        assert cli._row("s", "fails", "met")["agree"] is False
        assert "agree" not in cli._row("v", None, 2.0)
        assert "agree" not in cli._row("v", 2.0, None)
        # csv columns follow the key order
        assert list(cli._row("v", 1.0, 1.0)) == ["name", "paper", "recomputed", "agree"]

    def test_text_keys_sorted_at_every_level(self, capsys):
        payload = {"b": 1, "a": {"z": [1, 2], "y": (3, 4)}, "a-b": {"c": None}, "e": {}}
        cli._emit(payload, "text", None)
        assert capsys.readouterr().out == "a.y: (3, 4)\na.z: [1, 2]\na-b.c: None\nb: 1\n"


class TestFuzzAndRefine:
    def test_small_fuzz(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--trials", "6", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"]["holds"] == 6
        assert payload["counts"]["violations"] == 0

    def test_fuzz_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4, "trials": 3, "kinds": ["g_hardy"]}))
        code, out, _ = run_cli(capsys, "fuzz", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["trials"] == 3
        assert all(t["scenario"]["kind"] == "g_hardy" for t in payload["trials"])

    def test_flags_override_the_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4, "trials": 3, "kinds": ["g_hardy"]}))
        code, out, _ = run_cli(capsys, "fuzz", "--config", str(cfg), "--trials", "2",
                               "--seed", "5")
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["seed"], config["trials"], config["kinds"]) == (5, 2, ["g_hardy"])

    def test_fuzz_csv(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--trials", "3", "--seed", "9",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert {"index", "kind", "outcome"} <= set(rows[0])

    def test_refine(self, capsys, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"f": "(x+y)/2", "g": "half", "p": 2.0,
                                    "kind": "g_hardy"}))
        code, out, _ = run_cli(capsys, "refine", "--scenario", str(path),
                               "--levels", "4,6,8")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["lhs_values"][-1] - 14.0 / 192.0) < 1e-6

    def test_refine_divergent_rejected(self, capsys, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"f": "(x*y)^(-2)", "g": "sqrt", "p": 2.0,
                                    "kind": "g_hardy"}))
        code, _, err = run_cli(capsys, "refine", "--scenario", str(path),
                               "--levels", "4,6")
        assert code == 2
        assert "divergent" in err


class TestOutputs:
    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "integrate", "--f", "x", "--g", "identity",
                               "--dim", "1", "--domain", "0,1",
                               "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["value"] == pytest.approx(0.5)

    def test_no_command_shows_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 1
        assert "usage" in out.lower()
