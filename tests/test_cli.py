"""CLI surface: flags, exit codes, output formats, reproduction fixtures."""

import csv
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
        assert json.loads(out)["status"] == "diverged"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--f", "x +* y", "--g", "sqrt")
        assert code == 1
        assert "position" in err

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

    def test_diagnostics_mode(self, capsys):
        code, out, _ = run_cli(capsys, "hardy", "--f", "x^2*y^2", "--g", "sqrt",
                               "--p", "0", "--diagnostics")
        assert code == 0
        payload = json.loads(out)
        assert payload["branch"] == "p=0"
        assert payload["criterion_value"] == pytest.approx(1.0 / 16.0, abs=1e-8)

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
