"""Command-line front-end: integrate, hardy, reproduce, fuzz, refine.

Exit codes: 0 success (and, for `reproduce`, verdict matches the source
conclusion), 1 usage or hypothesis error, 2 numeric non-convergence or an
inner integral outside the generator's range (g⁻¹ undefined).
`fuzz` exits 1 when a campaign records violations.

Reproduction scenarios are compiled-in fixtures that print each quantity
twice, tagged "paper" (the printed value in the source material) and
"recomputed" (this tool's value), plus discrepancy annotations where the two
disagree; the tool never silently corrects the printed values.

Report JSON carries schema_version 1.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

from . import __version__
from . import expr as expr_mod
from .generators import make_generator
from .harness import ConvergenceReport, FuzzConfig, refine_study, run_campaign
from .hardy import (
    CLASSICAL,
    G_HARDY,
    SUGENO_HARDY,
    SUP_HARDY,
    HardyScenario,
    HypothesisError,
    check_hardy_classical,
    remark_diagnostics,
    run_check,
)
from .pseudo_integral import (
    PsiDensity,
    g_integral_1d,
    g_integral_2d,
    sugeno_integral_2d,
    sup_integral_1d,
    sup_integral_2d,
    unit_psi,
)
from .quadrature import DEFAULT_LEVEL_SET_GRID, DEFAULT_MAX_DEPTH, DEFAULT_TOL, Rect
from .semiring import parse_semiring

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2

DEFAULT_DOMAINS = {1: "0,1", 2: "0,1,0,1"}


def _payload(kind: str, body: dict, config_echo: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "pseudocalc",
        "version": __version__,
        "report": kind,
        "config": config_echo,
        **body,
    }


def _flatten(prefix: str, obj, row: dict, text: bool = False):
    """Nested dicts as one row with dotted keys.

    For csv, keys keep their order and lists are joined with ';'; for text,
    keys are sorted at every level and lists are kept whole.
    """
    if isinstance(obj, dict):
        for k in sorted(obj) if text else obj:
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], row, text)
    elif isinstance(obj, (list, tuple)) and not text:
        row[prefix] = ";".join(str(v) for v in obj)
    else:
        row[prefix] = obj


def _emit(payload: dict, fmt: str, output: str | None, rows: list[dict] | None = None):
    """Write the payload as json/text, or the given rows as csv."""
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    elif fmt == "csv":
        if rows is None:
            row: dict = {}
            _flatten("", payload, row)
            rows = [row]
        keys = list(dict.fromkeys(k for r in rows for k in r))   # in order of first use
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue().rstrip("\n")
    else:  # text
        row = {}
        _flatten("", payload, row, text=True)
        text = "\n".join(f"{k}: {v}" for k, v in row.items())
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_domain(raw: str, dim: int):
    parts = [float(v) for v in raw.split(",")]
    if len(parts) != 2 * dim:
        raise ValueError(f"--domain for dim {dim} takes {'a,b' if dim == 1 else 'a,b,c,d'}")
    return parts if dim == 1 else Rect(*parts)


# --- integrate ----------------------------------------------------------------


def cmd_integrate(args) -> int:
    tree = expr_mod.parse(args.f)
    f = expr_mod.as_function(tree)
    tol = args.tol
    if args.domain is None:
        args.domain = DEFAULT_DOMAINS[args.dim]
    echo = {"f": args.f, "dim": args.dim, "domain": args.domain, "tol": tol,
            "max_depth": DEFAULT_MAX_DEPTH}
    if args.sugeno:
        if args.dim != 2:
            raise ValueError("--sugeno requires --dim 2")
        value = sugeno_integral_2d(tree, _parse_domain(args.domain, 2), grid=args.grid)
        body = {"value": value, "status": "converged", "integral": "sugeno"}
    elif args.semiring:
        s = parse_semiring(args.semiring)
        psi = PsiDensity.from_string(args.psi) if args.psi else unit_psi(s)
        echo["semiring"] = args.semiring
        echo["psi"] = args.psi or psi.description
        if args.dim == 2:
            value = sup_integral_2d(s, f, psi, _parse_domain(args.domain, 2))
        else:
            lo, hi = _parse_domain(args.domain, 1)
            value = sup_integral_1d(s, lambda x: f(x, 0.0), psi, lo, hi)
        body = {"value": value, "status": "converged", "integral": "sup"}
    elif not args.g:
        raise ValueError("one of --g or --semiring is required")
    else:
        gen = make_generator(args.g)
        echo["g"] = args.g
        if args.dim == 1:
            lo, hi = _parse_domain(args.domain, 1)
            value, quad, reason = g_integral_1d(gen, lambda x: f(x, 0.0), lo, hi, tol)
        else:
            value, quad, reason = g_integral_2d(gen, f, _parse_domain(args.domain, 2), tol)
        if value is None:
            # the inner integral diverged, or g⁻¹ is undefined at it: no value, as `hardy` reports it
            body = {"value": None, "status": quad.status, "integral": "g", "detail": reason}
        else:
            body = {"value": value, "status": quad.status, "error_estimate": quad.error_estimate,
                    "evaluations": quad.evaluations, "integral": "g"}
    _emit(_payload("integral", body, echo), args.format, args.output)
    return EXIT_DIVERGED if value is None else EXIT_OK


# --- hardy ----------------------------------------------------------------


def _scenario_from_args(args) -> HardyScenario:
    if args.scenario:
        with open(args.scenario) as fh:
            return HardyScenario.from_dict(json.load(fh))
    if not args.f or args.p is None:
        raise ValueError("need --scenario or (--f and --p)")
    kind = args.kind
    if kind is None:
        kind = SUP_HARDY if args.semiring else G_HARDY
    domain = _parse_domain(args.domain, 2) if kind != CLASSICAL else Rect(
        *[float(v) for v in args.domain.split(",")][:2], 0.0, 1.0)
    return HardyScenario(
        f_src=args.f, check_kind=kind, p=args.p,
        gen_spec=args.g, semiring_spec=args.semiring, psi_src=args.psi,
        domain=domain,
    )


def cmd_hardy(args) -> int:
    if args.diagnostics:
        if not args.g or args.p is None or not args.f:
            print("--diagnostics needs --f, --g and --p", file=sys.stderr)
            return EXIT_USAGE
        gen = make_generator(args.g)
        f = expr_mod.as_function(expr_mod.parse(args.f))
        try:
            diag = remark_diagnostics(gen, f, args.p)
        except HypothesisError as e:
            print(f"hypothesis error: {e}", file=sys.stderr)
            return EXIT_USAGE
        echo = {"f": args.f, "g": args.g, "p": args.p, "mode": "diagnostics"}
        _emit(_payload("diagnostics", diag.to_dict(), echo), args.format, args.output)
        return EXIT_DIVERGED if diag.not_evaluable else EXIT_OK
    try:
        scenario = _scenario_from_args(args)
        report = run_check(scenario)
    except HypothesisError as e:
        print(f"hypothesis error: {e}", file=sys.stderr)
        if scenario.check_kind == G_HARDY and scenario.p <= 1.0:
            print("for the p <= 1 regime rerun with --diagnostics", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    body = {"scenario": scenario.to_dict(), **report.to_dict()}
    _emit(_payload("hardy", body, {"quad_tol": DEFAULT_TOL, "max_depth": DEFAULT_MAX_DEPTH}),
          args.format, args.output)
    if report.not_evaluable:
        return EXIT_DIVERGED
    return EXIT_OK


# --- reproduce ----------------------------------------------------------------


def _row(name: str, paper, recomputed, tol: float = 1e-6) -> dict:
    """One paper-vs-recomputed row; agree is present only when both values are.

    Numbers agree within tol, text when it is equal.
    """
    row = {"name": name, "paper": paper, "recomputed": recomputed}
    if paper is not None and recomputed is not None:
        row["agree"] = (paper == recomputed if isinstance(paper, str)
                        else bool(abs(paper - recomputed) <= tol))
    return row


def _theorem(rep, values: list, conclusion: str = "holds", **extra) -> dict:
    """Values, conclusion and verdict of a theorem check that the source says holds."""
    return {"values": values, "computed_conclusion": conclusion if rep.holds else "fails",
            "verdict_matches": bool(rep.holds), **extra}


def _g_hardy(f_src: str, gen_spec: str):
    return run_check(HardyScenario(f_src=f_src, check_kind=G_HARDY, p=2.0, gen_spec=gen_spec))


def _remark35(p: float):
    """The p <= 1 diagnostics of Remark 3.5: g = sqrt(x), f = x^2*y^2."""
    return remark_diagnostics(make_generator("sqrt"),
                              expr_mod.as_function(expr_mod.parse("x^2*y^2")), p)


def _ex32() -> dict:
    rep = _g_hardy("x^2*y^2", "sqrt")
    return _theorem(rep, [_row("lhs", (1.0 / 25.0) ** 2, rep.lhs),
                          _row("rhs_integral", 2.0 / 9.0, rep.rhs_integral),
                          _row("constant", 16.0, rep.constant)])


def _ex33() -> dict:
    rep = _g_hardy("(x+y)/2", "half")
    values = [_row("lhs", 14.0 / 192.0, rep.lhs), _row("rhs_integral", 7.0 / 24.0, rep.rhs_integral),
              _row("constant", 16.0, rep.constant), _row("rhs", 14.0 / 3.0, rep.rhs)]
    out = _theorem(rep, values)
    # no discrepancy is noted here, so the printed values must be reproduced too
    out["verdict_matches"] = out["verdict_matches"] and all(v.get("agree", True) for v in values)
    return out


def _remark35a() -> dict:
    diag = _remark35(1.0 / 6.0)
    values = [
        _row("constant", -0.5848, diag.constant, tol=1e-4),
        _row("lhs_inner_integral", 0.507968, diag.lhs_inner, tol=1e-4),
        _row("rhs_inner_integral", 0.734694, diag.rhs_inner, tol=1e-4),
        _row("lhs_value", 1.015936, diag.lhs_value, tol=math.inf),
        _row("rhs_value", 1.469388, diag.rhs_value, tol=math.inf),
    ]
    return {"values": values, "computed_conclusion": "fails" if diag.inequality_fails else "holds",
            "verdict_matches": bool(diag.inequality_fails)}


def _remark35b() -> dict:
    diag = _remark35(-2.0)
    return {"values": [_row("lhs_status", "diverged", diag.lhs_status)],
            "computed_conclusion": diag.lhs_status,
            "verdict_matches": diag.lhs_status == "diverged"}


def _remark35c() -> dict:
    diag = _remark35(0.0)
    criterion = "met" if diag.criterion_met else "fails"
    return {"values": [_row("pseudo_integral_of_f", 0.25, diag.criterion_value, tol=math.inf),
                       _row("criterion >= 1", "fails", criterion)],
            "computed_conclusion": criterion, "verdict_matches": not diag.criterion_met}


def _sup_hardy(semiring_spec: str) -> dict:
    rep = run_check(HardyScenario(f_src="x*y", check_kind=SUP_HARDY, p=2.0,
                                  semiring_spec=semiring_spec))
    return _theorem(rep, [_row("lhs", None, rep.lhs), _row("rhs", None, rep.rhs)], notes=rep.notes)


def _classical() -> dict:
    rep = check_hardy_classical(lambda x: x, 2.0, 1e-6, 1.0)
    return _theorem(rep, [_row("lhs_integral", 1.0 / 12.0, rep.lhs), _row("rhs", 4.0 / 3.0, rep.rhs)],
                    conclusion="holds strictly")


# the source's worked examples: name -> (description, paper conclusion,
# runner, discrepancy notes); a runner returns the values, the computed
# conclusion and whether the verdict matches the paper's
SCENARIOS = {
    "ex32": ("g=sqrt(x), f=x^2*y^2, p=2", "holds", _ex32, [
        "printed lhs (1/25)^2 comes from integrating sqrt(R) instead of sqrt(R^p); "
        "recomputation gives g^{-1}(1/256) = 1/65536",
        "printed rhs integral 2/9 applies g^{-1}(u)=2u, but g=sqrt(x) has g^{-1}(u)=u^2, "
        "giving 1/81",
    ]),
    "ex33": ("g=x/2, f=(x+y)/2, p=2", "holds", _ex33, []),
    "remark35a": ("p=1/6 breaks the inequality (negative constant)", "fails", _remark35a, [
        "printed final values 1.015936 / 1.469388 apply g^{-1}(u)=2u under g=sqrt(x); "
        "the recomputed g^{-1} values differ, the failure verdict is robust to either reading",
    ]),
    "remark35b": ("p=-2: the lhs integral does not converge", "diverges", _remark35b, []),
    "remark35c": ("p=0: the asserted criterion needs the pseudo-integral of f >= 1", "fails",
                  _remark35c, [
        "printed 0.25 is the classical double integral; under g=sqrt(x) the pseudo-integral "
        "is g^{-1}(1/4) = 1/16; the criterion fails under either reading",
    ]),
    "ex38": ("sup-semiring reduction (supplus, psi = constant 0) with f=x*y, p=2", "holds",
             functools.partial(_sup_hardy, "supplus"), []),
    "ex39": ("sup-semiring reduction (suptimes, psi = constant 1) with f=x*y, p=2", "holds",
             functools.partial(_sup_hardy, "suptimes"), []),
    "classical": ("classical baseline: f=x, p=2 on [1e-6, 1]", "holds strictly", _classical, []),
}


def _reproduce(name: str) -> dict:
    """The report of one worked example: its values next to the paper's, and the verdict."""
    description, paper_conclusion, run, discrepancies = SCENARIOS[name]
    return {"scenario": name, "description": description, "discrepancies": list(discrepancies),
            "paper_conclusion": paper_conclusion, **run()}


# name -> zero-argument callable returning the report
REPRODUCE = {name: functools.partial(_reproduce, name) for name in SCENARIOS}


def cmd_reproduce(args) -> int:
    if args.name not in REPRODUCE:
        print(f"unknown scenario {args.name!r}; choose from {', '.join(sorted(REPRODUCE))}",
              file=sys.stderr)
        return EXIT_USAGE
    result = REPRODUCE[args.name]()
    rows = [dict(v) for v in result["values"]]
    _emit(_payload("reproduce", result, {"scenario": args.name}),
          args.format, args.output, rows=rows)
    return EXIT_OK if result["verdict_matches"] else EXIT_USAGE


# --- fuzz / refine -------------------------------------------------------------


def cmd_fuzz(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = FuzzConfig.from_dict(json.load(fh))
    else:
        cfg = FuzzConfig()
    overrides = {"trials": args.trials, "seed": args.seed}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    report = run_campaign(cfg, corpus_dir=args.corpus)
    payload = _payload("campaign", report.to_dict(), cfg.to_dict())
    rows = [
        {"index": t.index, "kind": t.scenario.check_kind, "p": t.scenario.p,
         "f": t.scenario.f_src, "g": t.scenario.gen_spec or "",
         "semiring": t.scenario.semiring_spec or "", "outcome": t.outcome,
         "lhs": t.report.lhs, "rhs": t.report.rhs}
        for t in report.trials
    ]
    _emit(payload, args.format, args.output, rows=rows)
    return EXIT_OK if report.violations == 0 else EXIT_USAGE


def cmd_refine(args) -> int:
    with open(args.scenario) as fh:
        scenario = HardyScenario.from_dict(json.load(fh))
    levels = [int(v) for v in args.levels.split(",")]
    try:
        report: ConvergenceReport = refine_study(scenario, levels)
    except ArithmeticError as e:
        # refine_study's error for a level that is not evaluable is an ArithmeticError
        print(f"divergent scenario rejected: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    _emit(_payload("convergence", report.to_dict(), {"levels": levels}),
          args.format, args.output)
    return EXIT_OK


# --- entry ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors exiting EXIT_USAGE, as every other usage error does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pseudocalc",
        description="pseudo-integrals and Hardy-type inequality checks on [0,1]^2",
    )
    ap.add_argument("--version", action="version", version=f"pseudocalc {__version__}")
    sub = ap.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--output", help="write the report to a file instead of stdout")

    p = sub.add_parser("integrate", help="evaluate a pseudo-integral")
    p.add_argument("--f", required=True, help="integrand expression in x (and y)")
    p.add_argument("--g", help="generator spec, e.g. sqrt, power:0.5, exp:4.0")
    p.add_argument("--semiring", help="semiring spec: g:<gen>, supplus, suptimes, maxmin")
    p.add_argument("--dim", type=int, choices=(1, 2), default=2)
    p.add_argument("--domain", help="a,b (dim 1) or a,b,c,d (dim 2); default the unit interval or square")
    p.add_argument("--psi", help="sup-measure density expression in x (default: unit)")
    p.add_argument("--sugeno", action="store_true", help="two-dimensional Sugeno integral")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--grid", type=int, default=DEFAULT_LEVEL_SET_GRID, help="Sugeno level-set grid")
    common(p)

    p = sub.add_parser("hardy", help="run one Hardy inequality check")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--semiring")
    p.add_argument("--psi")
    p.add_argument("--p", type=float)
    p.add_argument("--kind", choices=(G_HARDY, SUP_HARDY, SUGENO_HARDY, CLASSICAL))
    p.add_argument("--domain", default="0,1,0,1")
    p.add_argument("--diagnostics", action="store_true",
                   help="p <= 1 regime diagnostics instead of a theorem check")
    common(p)

    p = sub.add_parser("reproduce", help="re-run a built-in source scenario")
    p.add_argument("name", help=f"one of: {', '.join(sorted(REPRODUCE))}")
    common(p)

    p = sub.add_parser("fuzz", help="run a randomized campaign (exit 1 on violations)")
    p.add_argument("--config", help="campaign config JSON")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--corpus", help="directory for violation scenario dumps")
    common(p)

    p = sub.add_parser("refine", help="grid-refinement convergence study")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--levels", default="4,6,8", help="ascending comma-separated levels")
    common(p)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_help()
        return EXIT_USAGE
    handlers = {
        "integrate": cmd_integrate,
        "hardy": cmd_hardy,
        "reproduce": cmd_reproduce,
        "fuzz": cmd_fuzz,
        "refine": cmd_refine,
    }
    try:
        return handlers[args.command](args)
    except (expr_mod.LexError, expr_mod.ParseError) as e:
        print(f"expression error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
