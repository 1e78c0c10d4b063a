"""CLI surface: flags, exit codes, output formats, reproduction fixtures."""

import csv
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pseudocalc import cli, expr
from pseudocalc.generators import make_generator
from pseudocalc.hardy import HardyReport
from pseudocalc.pseudo_integral import g_integral_2d
from pseudocalc.quadrature import DEFAULT_LEVEL_SET_GRID, UNIT_SQUARE

SRC = Path(__file__).resolve().parents[1] / "src"


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

    def test_integrable_product_singularity_converges(self, capsys):
        # ∬ 0.05·(x(1−x)y(1−y))^−½ = 0.05π².  The outer restart's retry node
        # s ≈ 1.45e-93 lifts the inner values past BLOWUP_VALUE = 1e12, which
        # read as diverged before the threshold scaled with the integral
        code, out, _ = run_cli(capsys, "integrate", "--f", "0.05*(x*(1-x)*y*(1-y))^(-0.5)",
                               "--g", "identity", "--dim", "2")
        assert code == 0
        body = json.loads(out)
        assert body["status"] == "converged"
        assert body["value"] == pytest.approx(0.05 * math.pi**2, abs=1e-8)

    def test_log_divergence_is_diverged(self, capsys):
        # ∫₀¹ x⁻¹: the endpoint probe calls it divergent, not a value outside g's range
        code, out, _ = run_cli(capsys, "integrate", "--f", "x^(-1)", "--g", "identity",
                               "--dim", "1")
        assert code == 2
        body = json.loads(out)
        assert (body["status"], body["value"]) == ("diverged", None)

    def test_interior_pole_is_diverged(self, capsys):
        # ∫₀¹ (x − 0.3)^−2: the capped blow-up rule calls it divergent
        code, out, _ = run_cli(capsys, "integrate", "--f", "1/(x-0.3)^2", "--g", "identity",
                               "--dim", "1")
        assert code == 2
        body = json.loads(out)
        assert (body["status"], body["detail"]) == ("diverged", "inner classical integral diverged")

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
        # ∬ x^{-0.99} = 100 lies outside [0, 1], the range of the identity
        # generator; an endpoint that steep is not graded, so it stops at the cap
        code, out, _ = run_cli(capsys, "integrate", "--f", "x^(-0.99)", "--g", "identity",
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

    @pytest.mark.parametrize("domain, message", [("0.8,0.2", "requires low < high"),
                                                 ("-1,0.5", "leaves [0,1]")])
    def test_dim_1_sup_interval_is_checked(self, capsys, domain, message):
        # ψ is validated on [0, 1] only; a reversed interval is refused as on the g path
        code, out, err = run_cli(capsys, "integrate", "--f", "x", "--semiring", "suptimes",
                                 "--dim", "1", f"--domain={domain}")
        assert code == 1 and out == ""
        assert message in err

    def test_sugeno_grid_default(self):
        args = cli.build_parser().parse_args(["integrate", "--f", "x", "--sugeno"])
        assert args.grid == DEFAULT_LEVEL_SET_GRID

    @pytest.mark.parametrize("argv,status", [
        (["integrate", "--f", "x", "--g", "exp:709", "--dim", "1"], "status"),
        (["hardy", "--f", "(x+y)/2", "--g", "exp:709", "--p", "2"], "statuses"),
    ])
    def test_overflow_is_divergence(self, capsys, argv, status):
        # g∘f reaches e^709, finite, but a Simpson estimate of it overflows:
        # diverged, exit 2 and no RuntimeWarning (warnings are errors here)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and err == ""
        payload = json.loads(out)
        assert payload[status] in ("diverged", {"rhs": "diverged"})
        assert payload.get("detail", payload.get("notes", [None])[0]) == (
            "inner classical integral diverged")

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

    def test_negative_p_diagnostics_with_a_converged_lhs(self, capsys):
        # the remark says the p < 0 lhs diverges; ∬^⊕ (1+x)^-2 under sqrt is (ln 2)²
        code, out, err = run_cli(capsys, "hardy", "--diagnostics", "--f", "1+x", "--g", "sqrt",
                                 "--p=-2")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["branch"] == "p<0" and payload["lhs_status"] == "converged"
        assert payload["lhs_value"] == pytest.approx(math.log(2.0) ** 2, abs=1e-9)
        assert payload["notes"] == ["lhs integral converged unexpectedly"]

    @pytest.mark.parametrize("argv,message", [
        (("--f", "1+x", "--p", "2"), "--diagnostics needs --f, --g and --p"),
        (("--f", "1+x", "--g", "sqrt", "--p", "2"), "covers the p <= 1 regime"),
    ])
    def test_diagnostics_usage_errors_exit_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "hardy", "--diagnostics", *argv)
        assert code == 1 and out == ""
        assert message in err

    def test_singular_corner_is_evaluable(self, capsys):
        # x/(x+y) fails only at the origin; the kernel grid retries it inward
        # as the adaptive right-hand side does
        code, out, _ = run_cli(capsys, "hardy", "--f", "x/(x+y)", "--g", "identity",
                               "--p", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["not_evaluable"] is False and payload["holds"] is True
        f = expr.as_function(expr.parse("x/(x+y)"))
        rhs_integral, _, _ = g_integral_2d(make_generator("identity"),
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

    @pytest.mark.parametrize("argv,lhs", [
        (("--f", "x-0.5", "--semiring", "suptimes"), None),
        (("--f", "0.5+0.4*x-0.6*y^2", "--semiring", "supplus"), 0.8538149682454624),
    ])
    def test_sup_side_with_no_real_power_exits_2(self, capsys, argv, lhs):
        # f^1.5 is NaN where f < 0: not evaluable, where it was a violation
        code, out, err = run_cli(capsys, "hardy", *argv, "--kind", "sup_hardy", "--p", "1.5")
        assert code == 2 and err == ""
        payload = json.loads(out)
        assert payload["not_evaluable"] is True and payload["holds"] is None
        assert (payload["lhs"], payload["rhs_integral"]) == (lhs, None)
        assert payload["notes"] == ["f^p is not real where f < 0"]

    def test_sup_weighting_of_an_overflow_prints_nothing_on_stderr(self, tmp_path):
        # f^2 is inf, and ψ = 1 − x is 0 at x = 1: inf ⊙ 0 makes both sides
        # NaN, a report, where numpy warned "invalid value encountered in
        # multiply"; a fresh process shows what a user sees
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = ("hardy", "--f", "1e300*x", "--kind", "sup_hardy", "--semiring", "suptimes",
                "--psi", "1-x", "--p", "2")
        proc = subprocess.run([sys.executable, "-m", "pseudocalc", *argv], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120)
        assert (proc.returncode, proc.stderr) == (2, "")
        payload = json.loads(proc.stdout)
        assert payload["not_evaluable"] is True and payload["notes"] == ["a side is NaN"]
        assert payload["statuses"] == {"lhs": "diverged", "rhs": "diverged"}

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

    def test_domain_off_the_origin_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "hardy", "--f", "x*y", "--g", "sqrt", "--p", "2",
                                 "--domain", "0.5,1,0,1")
        assert (code, out) == (1, "")
        assert err == "error: Hardy checks require a domain anchored at the origin\n"

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
# the fixtures became one table (remark35a's when graded endpoint restarts
# made its right-hand inner integral 36/49 to the last bit but one); every one
# exits 0
REPRODUCE_DIGESTS = {
    ("ex32", "json"): "6a6c2f8997dd69b3db352c33918fa4a214d505355f8dedf28d695d12a31b2046",
    ("ex32", "csv"): "86a292a86f400f0c953fd308b0df3cdca40ee4cabd584b0792c6442609ca5e3b",
    ("ex32", "text"): "f2b2a7c79023a0f4ead9e164e41fb9177f8ce401b9fdd4b544a014f265c92e51",
    ("ex33", "json"): "9c7ed607fdd18a22f34b3278ec509ee2b15c4477f5c898ebcb97d5063cd74c05",
    ("ex33", "csv"): "03d1e55b67eec40c6935710b03fe1bc8e41d15745a9cc1097913d17c9f3eef14",
    ("ex33", "text"): "8488a00f5b36e392496918f0a2700df3e3de5c438f50d1afb50f2ee8ba6b042f",
    ("remark35a", "json"): "47cafb8949a0ab28ee953f635a1194f5f9ba969664df6bf2f81765aabcb561e3",
    ("remark35a", "csv"): "a2dfe8eaa7d14c761de28666bf65738dedca1ffa6e2edd0b41b21a8d97af94c4",
    ("remark35a", "text"): "80586442aff678aa81f8b3fc842b8a7262a77f784a839b758937b1f0f78fdab1",
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


# pinned commands beyond `reproduce`: a reordered key shows in csv only, as
# json reports sort their keys; "{scenario}" is a g_hardy scenario file
CLI_COMMANDS = {
    "hardy_g": ("hardy", "--f", "(x+y)/2", "--g", "half", "--p", "2"),
    "hardy_sup": ("hardy", "--f", "x*y*(1.3-x*y)", "--semiring", "suptimes", "--psi", "1-x/2",
                  "--p", "2"),
    "hardy_sugeno": ("hardy", "--f", "(x+y)/2", "--kind", "sugeno_hardy", "--p", "3"),
    "hardy_classical": ("hardy", "--f", "x", "--kind", "classical", "--p", "2", "--domain", "0.1,1"),
    "hardy_not_evaluable": ("hardy", "--f", "x^(-0.2)", "--g", "sqrt", "--p", "2"),
    "diag_p0": ("hardy", "--f", "x^2*y^2", "--g", "sqrt", "--p", "0", "--diagnostics"),
    "diag_p1_6": ("hardy", "--f", "x^2*y^2", "--g", "sqrt", "--p", "0.16666666666666666",
                  "--diagnostics"),
    "diag_pm2": ("hardy", "--f", "x^2*y^2", "--g", "sqrt", "--p=-2", "--diagnostics"),
    "fuzz": ("fuzz", "--trials", "6", "--seed", "9"),
    "refine": ("refine", "--scenario", "{scenario}", "--levels", "4,6"),
}

# (exit code, SHA-256 of the stdout) of each command in each format, recorded
# before the campaign counts were derived from the trials and the records
# shared one serialiser; diag_p1_6 and hardy_not_evaluable were recorded again
# when graded endpoint restarts made their integrals exact to an ulp
CLI_DIGESTS = {
    ("hardy_g", "json"): (0, "be5761ec7353fb7e72c3a3ddb3b590f0aa40efd6af915bbc1987a810a46e30e6"),
    ("hardy_g", "csv"): (0, "b6d8a6373def0da97fe7ae7d96c494b54261db4a2d962216efe47d2c3576f9c1"),
    ("hardy_g", "text"): (0, "86e6bfbef18d7d06d9a3c7cf0b8d6aef1376dd4dcd32bac21e19ab7f976f2f90"),
    ("hardy_sup", "json"): (0, "316b51e7fccb234bddfcd548ace7461ee6e488ed70ac7996f0f082fc7177607c"),
    ("hardy_sup", "csv"): (0, "8b55ab82ec31232c93a65cd8ee34f86b82d9c165281944624250cd3945a590c5"),
    ("hardy_sup", "text"): (0, "1c195018ba3f5077ded4c6d326d02bb98759501e584e1768e8bb23376a3b0b02"),
    ("hardy_sugeno", "json"): (0, "0a93a4b9becae73c70d03db80f608f671762487a8b60a2a5c22b01a5ee06af89"),
    ("hardy_sugeno", "csv"): (0, "06c3f80ef0e761e63445d7836c10466779e764b56cd351c1bec2d0cf1c242a1f"),
    ("hardy_sugeno", "text"): (0, "ce39026df96b6a9d06d8ce2b701cb6627dde12fac0638a16f2ee44c920248bee"),
    ("hardy_classical", "json"): (0, "cba823bce4cadea3b1b5b3a6b35e546acf004b1d646af4a6f58772071c5133f8"),
    ("hardy_classical", "csv"): (0, "3366b49f602a560523a1e33c6f1b0c59a3620907efaff6d74293d7c9271a9603"),
    ("hardy_classical", "text"): (0, "590d4fc273dd77a061667c545708d71b67832db59321aea87e9f4dc5f877005e"),
    ("hardy_not_evaluable", "json"): (2, "eefd3b6e897efc651529dc851bd92781538b47e5960dc75aa530139856e2670e"),
    ("hardy_not_evaluable", "csv"): (2, "7d6d8ec2211cf29e7fb5f0e1ddc7b9666f5ffe0a24bd60aecd92675368c735da"),
    ("hardy_not_evaluable", "text"): (2, "bf79a7a3c2e2d4944145f106be58cd4c193bd18712cf29ed7a54557ceb128587"),
    ("diag_p0", "json"): (0, "e851c81b3474dff48a4ce83b81383b2fcd3eadd113e81923b3fa1ea425736d35"),
    ("diag_p0", "csv"): (0, "e6fd3f25b1048b70c2525058b0be31dcb49d5656cc04ba94b410971750d2b88d"),
    ("diag_p0", "text"): (0, "79bf8e90d3b4e6a4b0bb4f1df70bc861f1da7d035f699f30cae1265a43f3907d"),
    ("diag_p1_6", "json"): (0, "f28698204df38b6ec9c742509a7117ae4d441ec345b2465a29df4063d2604982"),
    ("diag_p1_6", "csv"): (0, "91cfd55e61f857f03a2fc9f61c94620e735d8b8e535caf72ec58886133199aa0"),
    ("diag_p1_6", "text"): (0, "8398f75418338bdd46d7464ad19cc77a53d53c10c4eff3ec74e7e52e3e456ba4"),
    ("diag_pm2", "json"): (0, "8dae6a736aa8476056257f87e5e99bdab241f3ee084bcaa5521a781d96103fce"),
    ("diag_pm2", "csv"): (0, "5db4e61933cbf8bf81b4fc9dcaefca939240ac7018e562441b1067229ffcc20f"),
    ("diag_pm2", "text"): (0, "0021b896cd0feeb41b80c5a53f3793e9db404d5dd67266313eebfb9d70ca392e"),
    ("fuzz", "json"): (0, "c668613e7a7cd2e1a7ac64c68644e23fa65b0c9450e8cf849d892560f2b92aac"),
    ("fuzz", "csv"): (0, "3ab9fc3cf72dc33d26e0d8b94b1944e5ac069dfdf1bd087c5115b7f3b6a2d9a0"),
    ("fuzz", "text"): (0, "2976fb2bdc1c7f843a2d74254d40053051f3e12ec6065a05a481ca67f91ac9e2"),
    ("refine", "json"): (0, "55e9ef26051006813425b3c29b6dbc5cf14b767b51437aef5ae434e7e4c1f723"),
    ("refine", "csv"): (0, "f04625319adc7daddc4f79fb0cb86515fba306f542bf71dd3cb879c16dfdb269"),
    ("refine", "text"): (0, "a2306175c5ad02498a608e5eb180033ef3fcb82886edfc04791013fd41cb5779"),
}


class TestCommandBytes:
    def test_every_command_has_a_digest(self):
        assert {name for name, _ in CLI_DIGESTS} == set(CLI_COMMANDS)

    @pytest.mark.parametrize("name,fmt", sorted(CLI_DIGESTS))
    def test_output_bytes(self, capsys, tmp_path, name, fmt):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"f": "(x+y)/2", "g": "half", "p": 2.0, "kind": "g_hardy"}))
        argv = [arg.format(scenario=path) for arg in CLI_COMMANDS[name]]
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert err == ""
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == CLI_DIGESTS[name, fmt]


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

    @pytest.mark.parametrize("levels,bad", [("-400,-399", -400), ("300,400", 400)])
    def test_refine_level_without_a_finite_tolerance(self, capsys, tmp_path, levels, bad):
        # 10^400 overflows and 10^-400 underflows to 0: a usage error, as other bad levels are
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"f": "(x+y)/2", "g": "half", "p": 2.0, "kind": "g_hardy"}))
        code, out, err = run_cli(capsys, "refine", "--scenario", str(path), f"--levels={levels}")
        assert (code, out) == (1, "")
        assert err == f"error: level {bad}: the tolerance 10^{-bad} is not a positive finite float\n"

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

    @pytest.mark.parametrize("argv", [
        ("hardy", "--f", "x", "--p", "abc"),    # not a float
        ("hardy", "--f", "x", "--bogus"),       # an unknown flag
        ("hardy", "--f", "-x"),                 # -x reads as a flag: write --f=-x
    ])
    def test_argparse_usage_errors_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            cli.main(list(argv))
        assert exit_.value.code == cli.EXIT_USAGE == 1
        assert "usage: pseudocalc" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["hardy", "--help"])
        assert exit_.value.code == 0
        assert "usage: pseudocalc hardy" in capsys.readouterr().out


# scenario files that are not a scenario: each command prints "error: …" and exits 1
BAD_SCENARIOS = {
    "no p": ({"f": "(x+y)/2", "kind": "g_hardy", "g": "half"}, "the scenario lacks 'p'"),
    "no f": ({"kind": "g_hardy", "p": 2.0, "g": "half"}, "the scenario lacks 'f'"),
    "a list": ([{"f": "(x+y)/2", "kind": "g_hardy", "p": 2.0}], "a scenario is a JSON object, not list"),
}


class TestScenarioFiles:
    @pytest.mark.parametrize("command", ["hardy", "refine"])
    @pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
    def test_bad_scenario_file_exits_1(self, capsys, tmp_path, command, case):
        content, message = BAD_SCENARIOS[case]
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(content))
        extra = ("--levels", "4,6") if command == "refine" else ()
        code, out, err = run_cli(capsys, command, "--scenario", str(path), *extra)
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestLargeIntegrands:
    # the rhs ∬ exp(20·((x+y)/2)²) is about 1e6: at an absolute tolerance its
    # inner batch built a level table of 1.45 GiB and the check ran for 90 s;
    # the tolerance now scales with the integral, and the kernel still makes
    # the check not evaluable
    ARGV = ("hardy", "--f", "(x+y)/2", "--g", "exp:20", "--p", "2")

    def test_exp20_check_is_quick(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *self.ARGV)
        assert time.perf_counter() - start < 2.0
        assert code == 2 and json.loads(out)["not_evaluable"] is True

    def test_exp20_check_fits_in_4_gb(self, tmp_path):
        def cap_address_space():
            # 4 GiB, or a lower cap the test run already has
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "pseudocalc", *self.ARGV], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120,
                              preexec_fn=cap_address_space)
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["not_evaluable"] is True
