"""Property-based fuzz campaigns and grid-refinement convergence studies.

Randomness comes from an explicitly seeded splitmix64 stream; the algorithm
is part of the external contract so campaigns replay bit-for-bit across
implementations.  Trial i draws from SplitMix64((seed + (i+1)·GOLDEN) mod 2⁶⁴),
so every scenario is reproducible from (seed, trial index) alone.

Random functions are built from provably coordinate-monotone families
(monomials, affine means, non-negative monomial mixtures with coefficient sum
≤ 1), so the theorem hypotheses hold by construction rather than by sampling
luck.

A campaign report keeps only its config and its trials: the counts of
holds, violations and not-evaluable trials, and the violation indices, are
derived from the trials' outcomes, so they cannot disagree with them.
Campaign reports serialize without wall-clock times: identical seeds yield
byte-identical JSON.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .hardy import (
    CHECK_KINDS,
    G_HARDY,
    SUGENO_HARDY,
    SUP_HARDY,
    HardyConfig,
    HardyReport,
    HardyScenario,
    Record,
    run_check,
)

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

MONOMIAL = "monomial"
AFFINE_MEAN = "affine-mean"
PRODUCT_MONOTONE = "product-of-monotone"
FAMILIES = (MONOMIAL, AFFINE_MEAN, PRODUCT_MONOTONE)


class SplitMix64:
    """Deterministic 64-bit PRNG (splitmix64); part of the replay contract."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * (1.0 / (1 << 53)))

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]


def trial_rng(seed: int, index: int) -> SplitMix64:
    return SplitMix64((seed + (index + 1) * GOLDEN) & MASK64)


def random_function(rng: SplitMix64, family: str) -> str:
    """Source of a non-negative, coordinate-nondecreasing f: [0,1]² → [0,1]."""
    if family == MONOMIAL:
        a = rng.uniform(0.0, 4.0)
        b = rng.uniform(0.0, 4.0)
        return f"x^{a!r}*y^{b!r}"
    if family == AFFINE_MEAN:
        c = 1.0 - rng.uniform(0.0, 1.0)  # (0, 1]
        return f"{c!r}*(x+y)/2"
    if family == PRODUCT_MONOTONE:
        k = rng.choice((1, 2, 3))
        weights = [rng.uniform(1e-6, 1.0) for _ in range(k)]
        scale = rng.uniform(0.0, 1.0)
        total = sum(weights)
        terms = []
        for w in weights:
            c = w / total * scale
            a = rng.uniform(0.0, 4.0)
            b = rng.uniform(0.0, 4.0)
            terms.append(f"{c!r}*x^{a!r}*y^{b!r}")
        return "+".join(terms)
    raise ValueError(f"unknown family {family!r}")


@dataclass
class FuzzConfig(Record):
    seed: int = 20260808
    trials: int = 500
    p_values: tuple = (1.5, 2.0, 3.0)
    families: tuple = FAMILIES
    kinds: tuple = (G_HARDY, SUP_HARDY, SUGENO_HARDY)
    gens: tuple = ("identity", "sqrt", "half")
    semirings: tuple = ("suptimes", "supplus")
    tolerance_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for k in self.kinds:
            if k not in CHECK_KINDS:
                raise ValueError(f"unknown check kind {k!r}")
        needs_p_gt_1 = any(k in (G_HARDY, SUP_HARDY) for k in self.kinds)
        for p in self.p_values:
            if needs_p_gt_1 and p <= 1.0:
                raise ValueError("theorem-regime campaigns need every p > 1")
            if p < 1.0:
                raise ValueError("campaign p values must be >= 1")

    def hardy_config(self) -> HardyConfig:
        cfg = HardyConfig()
        for name, value in self.tolerance_overrides.items():
            if not hasattr(cfg, name):
                raise ValueError(f"unknown tolerance override {name!r}")
            setattr(cfg, name, value)
        return cfg


@dataclass
class TrialRecord:
    index: int
    scenario: HardyScenario
    report: HardyReport
    wall_time: float

    @property
    def outcome(self) -> str:
        if self.report.holds is None:
            return "not_evaluable"
        return "holds" if self.report.holds else "violation"


@dataclass
class CampaignReport:
    """A campaign's config and trials; every count is read off the trials' outcomes."""

    config: FuzzConfig
    trials: list  # of TrialRecord

    def _indices(self, outcome: str) -> list:
        return [t.index for t in self.trials if t.outcome == outcome]

    @property
    def holds(self) -> int:
        return len(self._indices("holds"))

    @property
    def violations(self) -> int:
        return len(self.violation_indices)

    @property
    def not_evaluable(self) -> int:
        return len(self._indices("not_evaluable"))

    @property
    def violation_indices(self) -> list:
        return self._indices("violation")

    def to_dict(self) -> dict:
        # wall times deliberately excluded: identical seed => identical bytes
        return {
            "config": self.config.to_dict(),
            "counts": {
                "holds": self.holds,
                "violations": self.violations,
                "not_evaluable": self.not_evaluable,
            },
            "violation_indices": self.violation_indices,
            "trials": [
                {
                    "index": t.index,
                    "scenario": t.scenario.to_dict(),
                    "report": t.report.to_dict(),
                    "outcome": t.outcome,
                }
                for t in self.trials
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignReport":
        # wall times are not serialized; restored records carry 0.0
        trials = [
            TrialRecord(
                index=t["index"],
                scenario=HardyScenario.from_dict(t["scenario"]),
                report=HardyReport.from_dict(t["report"]),
                wall_time=0.0,
            )
            for t in d["trials"]
        ]
        return cls(config=FuzzConfig.from_dict(d["config"]), trials=trials)


def build_trial_scenario(cfg: FuzzConfig, index: int) -> HardyScenario:
    """The scenario for trial `index`: a pure function of (config, index)."""
    rng = trial_rng(cfg.seed, index)
    kind = cfg.kinds[index % len(cfg.kinds)]
    family = rng.choice(cfg.families)
    f_src = random_function(rng, family)
    p = rng.choice(cfg.p_values)
    gen_spec = None
    semiring_spec = None
    if kind == G_HARDY:
        gen_spec = rng.choice(cfg.gens)
    elif kind == SUP_HARDY:
        semiring_spec = rng.choice(cfg.semirings)
    return HardyScenario(
        f_src=f_src, check_kind=kind, p=p,
        gen_spec=gen_spec, semiring_spec=semiring_spec,
    )


def run_campaign(cfg: FuzzConfig, corpus_dir: str | Path | None = None) -> CampaignReport:
    """Execute all trials; each violation dumps a replayable scenario file to corpus_dir."""
    records: list[TrialRecord] = []
    for index in range(cfg.trials):
        rec = replay_trial(cfg, index)
        records.append(rec)
        if rec.outcome == "violation" and corpus_dir is not None:
            path = Path(corpus_dir)
            path.mkdir(parents=True, exist_ok=True)
            with open(path / f"violation-{cfg.seed}-{index:05d}.json", "w") as fh:
                json.dump(rec.scenario.to_dict(), fh, sort_keys=True, indent=2)
    return CampaignReport(config=cfg, trials=records)


def replay_trial(cfg: FuzzConfig, index: int) -> TrialRecord:
    """Re-run a single trial; identical to its campaign run."""
    scenario = build_trial_scenario(cfg, index)
    start = time.perf_counter()
    report = run_check(scenario, cfg.hardy_config())
    return TrialRecord(index, scenario, report, time.perf_counter() - start)


# --- refinement studies -------------------------------------------------------


class DivergenceError(ArithmeticError):
    """A refinement study met a level at which its scenario is not evaluable."""


@dataclass
class ConvergenceReport(Record):
    scenario: HardyScenario
    levels: list
    lhs_values: list
    rhs_values: list
    errors: list          # |lhs_i - lhs_finest| for i < last
    observed_order: float | None
    notes: list

    @classmethod
    def from_dict(cls, d: dict) -> "ConvergenceReport":
        return replace(super().from_dict(d), scenario=HardyScenario.from_dict(d["scenario"]))


def _config_for_level(kind: str, level: int) -> HardyConfig:
    try:
        tol = 10.0 ** (-level)
    except OverflowError:
        tol = math.inf
    if not 0.0 < tol < math.inf:
        raise ValueError(f"level {level}: the tolerance 10^{-level} is not a positive finite float")
    cfg = HardyConfig(quad_tol=tol)
    if kind == G_HARDY:
        cfg.kernel_panels = 2 ** min(max(level, 4), 9)
    elif kind == SUP_HARDY:
        cfg.sup_level = min(max(level, 3), 10)
    elif kind == SUGENO_HARDY:
        cfg.sugeno_outer = 2 ** min(max(level - 2, 3), 6)
        cfg.sugeno_lhs_grid = 2 ** min(max(level + 2, 6), 11)
    return cfg


def refine_study(scenario: HardyScenario, levels: list[int]) -> ConvergenceReport:
    """Recompute a scenario at increasing resolution and estimate convergence order.

    Level L maps to tolerance 10^{-L} and a grid resolution ladder per kind.
    A level whose tolerance is not a positive finite float is a ValueError,
    raised before any level runs.  Divergent scenarios are rejected
    (DivergenceError propagates).
    """
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be an ascending list with at least two entries")
    configs = [_config_for_level(scenario.check_kind, level) for level in levels]
    lhs_values: list[float] = []
    rhs_values: list[float] = []
    notes: list[str] = []
    for level, config in zip(levels, configs):
        report = run_check(scenario, config)
        if report.not_evaluable:
            raise DivergenceError(f"scenario not evaluable at level {level}")
        lhs_values.append(report.lhs)
        rhs_values.append(report.rhs)
    finest = lhs_values[-1]
    errors = [abs(v - finest) for v in lhs_values[:-1]]
    orders = []
    for i in range(len(errors) - 1):
        if errors[i] > 0 and errors[i + 1] > 0:
            step = levels[i + 1] - levels[i]
            orders.append(math.log2(errors[i] / errors[i + 1]) / step)
    observed = sum(orders) / len(orders) if orders else None
    if all(e == 0.0 for e in errors):
        notes.append("zero variation across levels")
    return ConvergenceReport(
        scenario=scenario, levels=list(levels), lhs_values=lhs_values,
        rhs_values=rhs_values, errors=errors, observed_order=observed, notes=notes,
    )
