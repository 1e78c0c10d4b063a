"""Pseudo-addition and pseudo-multiplication on the carrier [0, 1].

Four kinds:

    g_generated  x ⊕ y = g⁻¹(g(x)+g(y)),  x ⊙ y = g⁻¹(g(x)·g(y))
    sup_plus     x ⊕ y = max(x, y),        x ⊙ y = x + y   (clamped to carrier)
    sup_times    x ⊕ y = max(x, y),        x ⊙ y = x · y
    max_min      x ⊕ y = max(x, y),        x ⊙ y = min(x, y)

sup_plus and sup_times are the λ→∞ limit semirings of the generator families
e^{λx} and x^{-λ}; the limits are implemented in closed form since large λ
overflows doubles.  Results outside [0,1] (sup_plus addition) or outside a
generator's range (g-generated) clamp to the boundary and are flagged through
an optional SaturationFlags accumulator rather than silently accepted.

All operations are numpy-polymorphic: floats or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import Generator, RangeError, eval_inverse, make_generator

G_GENERATED = "g_generated"
SUP_PLUS = "sup_plus"
SUP_TIMES = "sup_times"
MAX_MIN = "max_min"

CARRIER_LOW = 0.0
CARRIER_HIGH = 1.0


@dataclass
class SaturationFlags:
    """Mutable counter threaded through operations that may clamp."""

    add_saturations: int = 0
    mul_saturations: int = 0

    @property
    def saturated(self) -> bool:
        return self.add_saturations > 0 or self.mul_saturations > 0


@dataclass(frozen=True)
class Semiring:
    kind: str
    gen: Generator | None = None
    # neutral elements; None when the element falls outside the carrier
    # (e.g. the ⊙-unit for g(x)=x/2 would be 2)
    zero: float | None = 0.0
    unit: float | None = 1.0

    @property
    def name(self) -> str:
        if self.kind == G_GENERATED:
            return f"g:{self.gen.name}"
        return {SUP_PLUS: "supplus", SUP_TIMES: "suptimes", MAX_MIN: "maxmin"}[self.kind]


def sup_plus() -> Semiring:
    # ⊙ = + has unit 0
    return Semiring(SUP_PLUS, zero=0.0, unit=0.0)


def sup_times() -> Semiring:
    return Semiring(SUP_TIMES, zero=0.0, unit=1.0)


def max_min() -> Semiring:
    return Semiring(MAX_MIN, zero=0.0, unit=1.0)


def g_generated(gen: Generator) -> Semiring:
    """The g-generated semiring; a neutral element is None where g⁻¹ or the carrier has none."""

    def neutral(y: float) -> float | None:
        try:
            v = eval_inverse(gen, y)
        except (RangeError, ArithmeticError):
            return None
        return v if CARRIER_LOW - 1e-12 <= v <= CARRIER_HIGH + 1e-12 else None

    return Semiring(G_GENERATED, gen=gen, zero=neutral(0.0), unit=neutral(1.0))


def _clamp_to_range(gen: Generator, v, flags: SaturationFlags | None, which: str):
    lo, hi = gen.range_low, gen.range_high
    clipped = np.clip(v, lo, hi)
    if np.any(np.asarray(v) != np.asarray(clipped)):
        if flags is not None:
            if which == "add":
                flags.add_saturations += int(np.sum(np.asarray(v) != np.asarray(clipped)))
            else:
                flags.mul_saturations += int(np.sum(np.asarray(v) != np.asarray(clipped)))
    return clipped


def pseudo_add(s: Semiring, a, b, flags: SaturationFlags | None = None):
    """x ⊕ y per the semiring kind; clamps + flags on range overflow."""
    if s.kind == G_GENERATED:
        total = s.gen.forward(a) + s.gen.forward(b)
        total = _clamp_to_range(s.gen, total, flags, "add")
        return s.gen.inverse(total)
    return np.maximum(a, b)


def pseudo_mul(s: Semiring, a, b, flags: SaturationFlags | None = None):
    """x ⊙ y per the semiring kind; same saturation contract as pseudo_add."""
    if s.kind == G_GENERATED:
        prod = s.gen.forward(a) * s.gen.forward(b)
        prod = _clamp_to_range(s.gen, prod, flags, "mul")
        return s.gen.inverse(prod)
    if s.kind == SUP_PLUS:
        total = a + b
        clipped = np.clip(total, CARRIER_LOW, CARRIER_HIGH)
        if flags is not None and np.any(np.asarray(total) > CARRIER_HIGH):
            flags.mul_saturations += int(np.sum(np.asarray(total) > CARRIER_HIGH))
        return clipped
    if s.kind == SUP_TIMES:
        return a * b
    return np.minimum(a, b)


def parse_semiring(spec: str) -> Semiring:
    """CLI names: "g:<generator-spec>", "supplus", "suptimes", "maxmin"."""
    spec = spec.strip()
    if spec.startswith("g:"):
        return g_generated(make_generator(spec[2:]))
    table = {"supplus": sup_plus, "suptimes": sup_times, "maxmin": max_min}
    if spec in table:
        return table[spec]()
    raise ValueError(f"unknown semiring {spec!r}")
