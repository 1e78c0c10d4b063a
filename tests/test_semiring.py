"""Pseudo-operation laws on the carrier [0,1]."""

import numpy as np
import pytest

from pseudocalc import generators as G
from pseudocalc import semiring as S
from pseudocalc.harness import SplitMix64

KINDS = {
    "g_sqrt": S.g_generated(G.sqrt_gen()),
    "g_power2": S.g_generated(G.power(2.0)),
    "supplus": S.sup_plus(),
    "suptimes": S.sup_times(),
    "maxmin": S.max_min(),
}

# triple ranges that keep g-generated sums inside the generator range,
# so closure clamping does not mask the algebraic laws
SAFE_HIGH = {"g_sqrt": 0.1, "g_power2": 0.6, "supplus": 0.33,
             "suptimes": 1.0, "maxmin": 1.0}


class TestExamples:
    def test_g_sqrt_add(self):
        s = KINDS["g_sqrt"]
        # (sqrt(a)+sqrt(b))^2 by hand: a=b=0.25 -> 1
        assert S.pseudo_add(s, 0.25, 0.25) == pytest.approx(1.0, abs=1e-12)

    def test_g_sqrt_mul(self):
        s = KINDS["g_sqrt"]
        assert S.pseudo_mul(s, 0.25, 0.25) == pytest.approx(0.0625, abs=1e-15)

    def test_sup_plus_add_is_max(self):
        assert S.pseudo_add(S.sup_plus(), 0.3, 0.8) == 0.8

    def test_max_min(self):
        s = S.max_min()
        assert S.pseudo_add(s, 0.2, 0.9) == 0.9
        assert S.pseudo_mul(s, 0.2, 0.9) == 0.2

    def test_sup_times_mul(self):
        assert S.pseudo_mul(S.sup_times(), 0.5, 0.5) == 0.25

    def test_sup_plus_mul_is_clamped_sum(self):
        flags = S.SaturationFlags()
        assert S.pseudo_mul(S.sup_plus(), 0.3, 0.4, flags) == pytest.approx(0.7)
        assert not flags.saturated
        assert S.pseudo_mul(S.sup_plus(), 0.8, 0.7, flags) == 1.0
        assert flags.mul_saturations == 1

    def test_g_add_saturation_flagged(self):
        flags = S.SaturationFlags()
        # sqrt: g(0.81)+g(0.81) = 1.8 > g(1): clamps to the range boundary
        assert S.pseudo_add(KINDS["g_sqrt"], 0.81, 0.81, flags) == 1.0
        assert flags.add_saturations == 1

    def test_rounding_at_a_range_end_is_not_saturation(self):
        # exp:2: x ⊙ (1 − x) = g⁻¹(e^{2x}·e^{2(1−x)}) is exactly the range end e²;
        # the rounded product lands on either side of it and is clamped, but
        # g⁻¹ takes it, so no saturation is counted
        s = S.g_generated(G.exp_family(2.0))
        x = np.random.default_rng(7).random(100_000)
        flags = S.SaturationFlags()
        got = S.pseudo_mul(s, x, 1.0 - x, flags)
        assert flags.mul_saturations == 0
        assert np.abs(got - 1.0).max() < 1e-12

    def test_out_of_range_product_counts(self):
        # exp:2: 0.75 ⊙ 0.75 would be 1.5, as g(0.75)² = e³ lies past e²
        s = S.g_generated(G.exp_family(2.0))
        flags = S.SaturationFlags()
        assert S.pseudo_mul(s, np.array([0.75, 0.25]), np.array([0.75, 0.25]), flags).tolist() == [1.0, 0.5]
        assert flags.mul_saturations == 1


class TestGeneratedFamilies:
    def test_exp_family_mul_is_addition(self):
        # g(x)=e^{lambda x}: x ⊙ y = x + y exactly, any lambda
        for lam in (1.0, 4.0, 9.0):
            s = S.g_generated(G.exp_family(lam))
            assert S.pseudo_mul(s, 0.3, 0.4) == pytest.approx(0.7, abs=1e-12)

    def test_inv_power_mul_is_product(self):
        # g(x)=x^{-lambda}: x ⊙ y = x·y exactly, any lambda
        for lam in (1.0, 2.0, 5.0):
            s = S.g_generated(G.inv_power(lam))
            assert S.pseudo_mul(s, 0.5, 0.4) == pytest.approx(0.2, abs=1e-12)

    def test_inv_power_add_closed_form(self):
        lam = 3.0
        s = S.g_generated(G.inv_power(lam))
        got = S.pseudo_add(s, 0.5, 0.4)
        assert got == pytest.approx((0.5**-lam + 0.4**-lam) ** (-1.0 / lam), rel=1e-12)


class TestNeutralElements:
    def test_zero_and_unit_where_defined(self):
        rng = SplitMix64(5)
        for name, s in KINDS.items():
            for _ in range(50):
                x = rng.uniform(0.0, SAFE_HIGH[name])
                if s.zero is not None:
                    assert S.pseudo_add(s, s.zero, x) == pytest.approx(x, abs=1e-9)
                if s.unit is not None:
                    assert S.pseudo_mul(s, s.unit, x) == pytest.approx(x, abs=1e-9)

    def test_half_unit_outside_carrier(self):
        s = S.g_generated(G.half())
        assert s.zero == 0.0
        assert s.unit is None  # would be 2, outside [0,1]

    def test_exp_family_zero_undefined(self):
        s = S.g_generated(G.exp_family(4.0))
        assert s.zero is None


@pytest.mark.parametrize("name", sorted(KINDS))
class TestLaws:
    def _triples(self, name, count=10_000):
        rng = SplitMix64(hash(name) & 0xFFFF)
        hi = SAFE_HIGH[name]
        for _ in range(count):
            yield rng.uniform(0, hi), rng.uniform(0, hi), rng.uniform(0, hi)

    def test_commutative(self, name):
        s = KINDS[name]
        for a, b, _ in self._triples(name):
            assert S.pseudo_add(s, a, b) == S.pseudo_add(s, b, a)
            assert S.pseudo_mul(s, a, b) == S.pseudo_mul(s, b, a)

    def test_associative(self, name):
        s = KINDS[name]
        for a, b, c in self._triples(name):
            left = S.pseudo_add(s, a, S.pseudo_add(s, b, c))
            right = S.pseudo_add(s, S.pseudo_add(s, a, b), c)
            assert abs(left - right) < 1e-9
            left = S.pseudo_mul(s, a, S.pseudo_mul(s, b, c))
            right = S.pseudo_mul(s, S.pseudo_mul(s, a, b), c)
            assert abs(left - right) < 1e-9

    def test_monotone(self, name):
        s = KINDS[name]
        rng = SplitMix64(99)
        for _ in range(2000):
            a = rng.uniform(0, SAFE_HIGH[name])
            a2 = a + rng.uniform(0, SAFE_HIGH[name] - a)
            b = rng.uniform(0, SAFE_HIGH[name])
            assert S.pseudo_add(s, a, b) <= S.pseudo_add(s, a2, b) + 1e-12
            assert S.pseudo_mul(s, a, b) <= S.pseudo_mul(s, a2, b) + 1e-12


def test_distributive_g_generated():
    # a ⊙ (b ⊕ c) = (a ⊙ b) ⊕ (a ⊙ c) within 1e-8 away from saturation
    for name in ("g_sqrt", "g_power2"):
        s = KINDS[name]
        rng = SplitMix64(1234)
        hi = SAFE_HIGH[name]
        for _ in range(10_000):
            a, b, c = (rng.uniform(0, hi) for _ in range(3))
            flags = S.SaturationFlags()
            left = S.pseudo_mul(s, a, S.pseudo_add(s, b, c, flags), flags)
            right = S.pseudo_add(
                s, S.pseudo_mul(s, a, b, flags), S.pseudo_mul(s, a, c, flags), flags
            )
            if flags.saturated:
                continue
            assert abs(left - right) < 1e-8


def test_vectorized_matches_scalar():
    s = KINDS["g_sqrt"]
    a = np.array([0.1, 0.04, 0.09])
    b = np.array([0.04, 0.01, 0.0])
    vec = S.pseudo_add(s, a, b)
    for i in range(3):
        assert vec[i] == pytest.approx(S.pseudo_add(s, float(a[i]), float(b[i])), abs=0)


def test_parse_semiring():
    assert S.parse_semiring("supplus").kind == S.SUP_PLUS
    assert S.parse_semiring("suptimes").kind == S.SUP_TIMES
    assert S.parse_semiring("maxmin").kind == S.MAX_MIN
    s = S.parse_semiring("g:sqrt")
    assert s.kind == S.G_GENERATED and s.gen.name == "sqrt"
    assert S.parse_semiring("g:power:2").gen.name == "power:2"
    with pytest.raises(ValueError):
        S.parse_semiring("bogus")
