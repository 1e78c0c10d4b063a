"""The four workloads: their inputs, their ops, and the checks of their outputs.

An op is one ``hardy.run_check`` on one scenario (g_hardy, sugeno_hardy,
sup_hardy) or one pass over the paper's worked examples and the README's
``integrate`` examples (paper).  A run repeats whole rounds of ops until its
time is up; README.md says why each workload and each round looks as it does.

This module imports no numpy and no pseudocalc at import time, so that a
set-up measurement can start its clock before either is loaded.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_CAMPAIGN_SEED = 20260808   # FuzzConfig's default seed
G_POOL = 80                        # the default campaign's first 80 g_hardy trials
PAPER_PASSES = 3                   # paper passes per round; op_p50_s is their median

WORKLOADS = ("g_hardy", "sugeno_hardy", "sup_hardy", "paper")
# sugeno_hardy and sup_hardy rounds hold one trial of every (family, semiring, p)
# cell of the seed's campaign; this many rounds are built and then repeated
STRATIFIED_ROUNDS = {"sugeno_hardy": 6, "sup_hardy": 12}

REPRODUCE_FIXTURES = ("ex32", "ex33", "remark35a", "remark35b", "remark35c",
                      "ex38", "ex39", "classical")
INTEGRATE_EXAMPLES = (
    ("g_sqrt", ["integrate", "--f", "x^2*y^2", "--g", "sqrt", "--dim", "2",
                "--domain", "0,1,0,1"]),
    ("divergent", ["integrate", "--f", "(x*y)^(-2)", "--g", "sqrt", "--dim", "2"]),
    ("sugeno_min", ["integrate", "--f", "min(x,y)", "--sugeno", "--dim", "2"]),
    ("sup_psi", ["integrate", "--f", "x*y", "--semiring", "suptimes", "--psi", "1-x",
                 "--dim", "2"]),
)


def load_program():
    """Import pseudocalc from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import pseudocalc
    import pseudocalc.cli

    origin = Path(pseudocalc.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"pseudocalc was imported from {origin}, not from {SRC}")
    return pseudocalc


@dataclass
class Inputs:
    items: list          # scenarios in op order, or [None] for the paper pass
    round_size: int


def _kind_trials(pc, cfg, kind: str):
    """The trials of `kind` in campaign `cfg`, in index order, without end."""
    index = cfg.kinds.index(kind)
    while True:
        yield pc.harness.build_trial_scenario(cfg, index)
        index += len(cfg.kinds)


def _stratified_rounds(pc, cfg, kind: str, rounds: int) -> tuple[list, int]:
    """Rounds with one trial per cell, each cell's trials in campaign order."""
    from checks import FAMILIES, parse_family

    cells = {(f, s, p): [] for f in FAMILIES for p in cfg.p_values
             for s in (cfg.semirings if kind == "sup_hardy" else (None,))}
    for scanned, scn in enumerate(_kind_trials(pc, cfg, kind)):
        if scanned > 100 * rounds * len(cells):
            raise RuntimeError(f"campaign {cfg.seed} does not fill every {kind} cell")
        cell = cells[(parse_family(scn.f_src)[0], scn.semiring_spec, scn.p)]
        if len(cell) < rounds:
            cell.append(scn)
            if all(len(c) == rounds for c in cells.values()):
                break
    return [c[r] for r in range(rounds) for c in cells.values()], len(cells)


def build_inputs(pc, workload: str, seed: int) -> Inputs:
    """Everything an op needs, built before the first op starts."""
    harness = pc.harness
    if workload == "g_hardy":
        cfg = harness.FuzzConfig(seed=DEFAULT_CAMPAIGN_SEED)
        trials = _kind_trials(pc, cfg, "g_hardy")
        items = [next(trials) for _ in range(G_POOL)]
        random.Random(seed).shuffle(items)
        return Inputs(items, G_POOL)
    if workload in STRATIFIED_ROUNDS:
        cfg = harness.FuzzConfig(seed=seed)
        return Inputs(*_stratified_rounds(pc, cfg, workload, STRATIFIED_ROUNDS[workload]))
    missing = [n for n in REPRODUCE_FIXTURES if n not in pc.cli.REPRODUCE]
    if missing:
        raise KeyError(f"reproduce fixtures missing: {missing}")
    return Inputs([None], PAPER_PASSES)


def paper_pass(pc, span) -> dict:
    """One pass: every reproduce fixture, then every integrate example."""
    cli = pc.cli
    out = {}
    for name in REPRODUCE_FIXTURES:
        with span(f"cli.reproduce.{name}"):
            out[name] = cli.REPRODUCE[name]()
    for label, argv in INTEGRATE_EXAMPLES:
        buf = io.StringIO()
        with span(f"cli.integrate.{label}"), contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        out[label] = (code, json.loads(buf.getvalue()) if buf.getvalue().strip() else {})
    return out


def run_op(pc, workload: str, item, span):
    if workload == "paper":
        return paper_pass(pc, span)
    return pc.hardy.run_check(item)


def check_outputs(workload: str, outputs: list) -> list:
    """Problems of each (input, output) pair that did not raise; [] means correct.

    References are computed once per distinct input.
    """
    import checks

    quad = checks.GradedGauss() if workload == "g_hardy" else None
    references: dict = {}
    problems = []
    for item, out in outputs:
        if workload == "paper":
            problems.append(checks.check_paper(out))
            continue
        key = id(item)
        if workload == "g_hardy":
            if key not in references:
                references[key] = checks.g_reference(item.f_src, item.gen_spec, item.p, quad)
            problems.append(checks.check_g(item.f_src, item.gen_spec, item.p, out,
                                           references[key]))
        elif workload == "sugeno_hardy":
            if key not in references:
                references[key] = checks.sugeno_reference(item.f_src, item.p)
            problems.append(checks.check_sugeno(item.f_src, item.p, out, references[key]))
        else:
            problems.append(checks.check_sup(item.f_src, item.p, out))
    return problems

