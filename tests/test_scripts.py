"""Smoke tests: the experiment drivers in scripts/ run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the library's code lines (scripts/code_lines.py) at most: a change that
# raises the ceiling says so, with its reason, in CHANGES.md
LINE_CEILING = 2090


def run_python(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, cwd=cwd, env=env, timeout=600)


def run_script(name, *args, cwd):
    return run_python(str(ROOT / "scripts" / name), *args, cwd=cwd)


def test_fuzz_campaign_digest_repeats(tmp_path):
    digests = []
    for run in ("a", "b"):
        proc = run_script("run_fuzz_campaign.py", "--trials", "9",
                          "--out", str(tmp_path / f"{run}.json"),
                          "--corpus", str(tmp_path / f"corpus_{run}"), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"^cpu user \d+\.\ds system \d+\.\ds, minor page faults \d+$",
                         proc.stdout, re.MULTILINE)
        digests.append(re.search(r"sha256 ([0-9a-f]{64})", proc.stdout).group(1))
    assert digests[0] == digests[1]
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_reproduce_scenarios(tmp_path):
    proc = run_script("reproduce_scenarios.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "8/8 scenario verdicts match" in proc.stdout


def test_convergence_study(tmp_path):
    proc = run_script("convergence_study.py", "--levels", "4,6", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "observed order" in proc.stdout


def test_module_entry_point(tmp_path):
    # `python -m pseudocalc` runs the CLI without an installed console script
    proc = run_python("-m", "pseudocalc", "hardy", "--f", "(x+y)/2", "--g", "half", "--p", "2",
                      "--format", "csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "g_hardy" in proc.stdout and "True" in proc.stdout
    proc = run_python("-m", "pseudocalc", "hardy", "--f", "x^(-0.2)", "--g", "sqrt", "--p", "2",
                      cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr


def test_code_lines(tmp_path):
    (tmp_path / "sample.py").write_text(
        '"""Module docstring,\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "def f(a):\n"
        '    """Function docstring."""\n'
        "    return (a +\n"
        "            X)\n"
    )
    proc = run_script("code_lines.py", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["     4  sample.py", "     4  total"]
    # the library itself, by default
    proc = run_script("code_lines.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].endswith("total")
    assert sum(int(line.split()[0]) for line in lines[:-1]) == int(lines[-1].split()[0])
    assert int(lines[-1].split()[0]) <= LINE_CEILING
    assert any(line.endswith("  hardy.py") for line in lines)


def test_compare_campaigns(tmp_path):
    import json

    proc = run_script("run_fuzz_campaign.py", "--trials", "3", "--out", str(tmp_path / "old.json"),
                      "--corpus", str(tmp_path / "corpus"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "old.json").read_text())
    report["trials"][0]["report"]["rhs_integral"] += 1e-9
    (tmp_path / "moved.json").write_text(json.dumps(report))
    proc = run_script("compare_campaigns.py", "old.json", "moved.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1 of 3 trials moved\n")
    assert re.search(r"^  rhs_integral: 1 moved, largest \|delta\| 1e-09 at trial 0 ", proc.stdout, re.MULTILINE)
    assert proc.stdout.endswith("0 verdict, not-evaluable or status changes\n")
    report["trials"][2]["report"]["holds"] = False
    (tmp_path / "changed.json").write_text(json.dumps(report))
    proc = run_script("compare_campaigns.py", "old.json", "changed.json", cwd=tmp_path)
    assert proc.returncode == 1
    assert "CHANGED trial 2 holds: True -> False" in proc.stdout
