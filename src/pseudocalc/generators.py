"""Generator functions g and their inverses.

A generator is a strictly monotone continuous map on [domain_low, domain_high]
together with its inverse; it induces the pseudo-operations
x ⊕ y = g⁻¹(g(x)+g(y)) and x ⊙ y = g⁻¹(g(x)·g(y)) and the g-integral
g⁻¹(∫ g∘f).  The built-in catalog covers every generator used by the
Hardy-check scenarios: identity, sqrt, half (x/2), power:a (x^a), exp:λ
(e^{λx}) and invpower:λ (x^{-λ}).

The forward/inverse callables are numpy-polymorphic (work on floats and
arrays) so grid pipelines can evaluate them vectorized.

This module alone knows where g⁻¹ is defined: on g's range, widened by a
slack of RANGE_SLACK·max(1, |y|) at a value y (outside_range).  eval_inverse
inverts a value within that slack, clamped to the range, and raises
RangeError farther out; every engine that inverts a classical integral goes
through it, so an undefined side reads the same everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

ROUNDTRIP_TOL = 1e-9  # fixed, not configurable: failures mean a wrong inverse
SINGULAR_CLAMP = 1e-6  # domain_low clamp for generators unbounded at 0
RANGE_SLACK = 1e-12  # g⁻¹ is taken this far outside g's range, relative to max(1, |y|)

INCREASING = "increasing"
DECREASING = "decreasing"


class GeneratorError(ValueError):
    pass


class RangeError(GeneratorError):
    """Argument outside the closure of the generator's range."""


@dataclass(frozen=True)
class Generator:
    name: str
    forward: Callable
    inverse: Callable
    direction: str = INCREASING
    domain_low: float = 0.0
    domain_high: float = 1.0
    singular_at_zero: bool = False
    notes: tuple[str, ...] = field(default=())

    # cached: the range rule reads both ends at every g⁻¹ (a frozen dataclass
    # keeps its own __dict__, which cached_property fills)
    @cached_property
    def range_low(self) -> float:
        if self.direction == INCREASING:
            return float(self.forward(self.domain_low))
        return float(self.forward(self.domain_high))

    @cached_property
    def range_high(self) -> float:
        if self.direction == INCREASING:
            return float(self.forward(self.domain_high))
        return float(self.forward(self.domain_low))


def outside_range(gen: Generator, y: float) -> bool:
    """Whether y lies farther than RANGE_SLACK·max(1, |y|) outside g's range.

    y ± slack(y) is monotone in y, so an array lies within the slack iff its
    minimum and maximum do.
    """
    slack = RANGE_SLACK * max(1.0, abs(y))
    return y < gen.range_low - slack or y > gen.range_high + slack


def eval_inverse(gen: Generator, y: float) -> float:
    """g⁻¹(y), clamped to g's range, for y within the slack of it; RangeError farther out."""
    lo, hi = gen.range_low, gen.range_high
    if outside_range(gen, y):
        raise RangeError(f"{gen.name}: y={y!r} outside range [{lo}, {hi}]")
    return float(gen.inverse(min(max(y, lo), hi)))


@dataclass
class ValidationReport:
    name: str
    samples: int
    max_roundtrip_error: float
    monotonic: bool
    violation_at: float | None
    passed: bool
    notes: list[str]


def validate_generator(gen: Generator, samples: int = 1000) -> ValidationReport:
    """Grid check of strict monotonicity and inverse round-trip accuracy."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    # interior grid: endpoints excluded so singular generators validate too
    xs = np.linspace(gen.domain_low, gen.domain_high, samples + 2)[1:-1]
    fx = np.asarray(gen.forward(xs), dtype=float)
    back = np.asarray(gen.inverse(fx), dtype=float)
    errors = np.abs(back - xs)
    max_err = float(np.max(errors))
    diffs = np.diff(fx)
    want = 1.0 if gen.direction == INCREASING else -1.0
    bad = np.where(np.sign(diffs) != want)[0]
    monotonic = bad.size == 0
    violation_at = float(xs[bad[0]]) if not monotonic else None
    notes = list(gen.notes)
    if gen.singular_at_zero:
        notes.append(f"domain_low clamped to {gen.domain_low} (g unbounded at 0)")
    return ValidationReport(
        name=gen.name,
        samples=samples,
        max_roundtrip_error=max_err,
        monotonic=monotonic,
        violation_at=violation_at,
        passed=monotonic and max_err < ROUNDTRIP_TOL,
        notes=notes,
    )


# --- catalog ---------------------------------------------------------------


def identity() -> Generator:
    return Generator("identity", lambda x: x, lambda y: y)


def sqrt_gen() -> Generator:
    return Generator("sqrt", np.sqrt, lambda y: y * y)


def half() -> Generator:
    return Generator("half", lambda x: x / 2.0, lambda y: 2.0 * y)


def power(a: float) -> Generator:
    if a <= 0:
        raise ValueError("power generator requires a > 0")
    return Generator(f"power:{a:g}", lambda x: x**a, lambda y: y ** (1.0 / a))


def exp_family(lam: float) -> Generator:
    if lam <= 0:
        raise ValueError("exp generator requires lambda > 0")
    return Generator(
        f"exp:{lam:g}",
        lambda x: np.exp(lam * x),
        lambda y: np.log(y) / lam,
    )


def inv_power(lam: float) -> Generator:
    if lam <= 0:
        raise ValueError("invpower generator requires lambda > 0")
    return Generator(
        f"invpower:{lam:g}",
        lambda x: x ** (-lam),
        lambda y: y ** (-1.0 / lam),
        direction=DECREASING,
        domain_low=SINGULAR_CLAMP,
        singular_at_zero=True,
    )


_PARAMETRIC = {"power": power, "exp": exp_family, "invpower": inv_power}
_PLAIN = {"identity": identity, "sqrt": sqrt_gen, "half": half}


def make_generator(spec: str) -> Generator:
    """Build a catalog generator from its CLI name, e.g. "sqrt", "power:0.5", "exp:4.0"."""
    spec = spec.strip()
    if ":" in spec:
        name, _, arg = spec.partition(":")
        name = name.strip()
        if name not in _PARAMETRIC:
            raise ValueError(f"unknown generator {name!r}")
        return _PARAMETRIC[name](float(arg))
    if spec in _PLAIN:
        return _PLAIN[spec]()
    if spec in _PARAMETRIC:
        raise ValueError(f"generator {spec!r} needs a parameter, e.g. {spec}:2.0")
    raise ValueError(f"unknown generator {spec!r}")
