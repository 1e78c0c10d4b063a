"""Generator catalog: the range rule, round trips, monotonicity, spec parsing."""

import re

import numpy as np
import pytest

from pseudocalc import generators as G
from pseudocalc import semiring as S

CATALOG = [
    G.identity(),
    G.sqrt_gen(),
    G.half(),
    G.power(0.5),
    G.power(2.0),
    G.power(3.0),
    G.exp_family(4.0),
    G.inv_power(2.0),
]


class TestEval:
    def test_inverse_examples(self):
        assert G.eval_inverse(G.sqrt_gen(), 1.0 / 3.0) == pytest.approx(1.0 / 9.0, abs=1e-15)
        # worked value: g(x)=x/2 has g^{-1}(7/192) = 14/192
        assert G.eval_inverse(G.half(), 7.0 / 192.0) == pytest.approx(14.0 / 192.0, abs=1e-15)
        assert G.eval_inverse(G.identity(), 0.3) == 0.3

    def test_inverse_range_error(self):
        with pytest.raises(G.RangeError):
            G.eval_inverse(G.sqrt_gen(), 2.0)
        with pytest.raises(G.RangeError):
            G.eval_inverse(G.inv_power(2.0), 0.5)


# each generator's range rule, with the ⊕-zero and ⊙-unit g_generated finds
# through it (values recorded before the rule moved into generators)
RANGE_RULE = {
    "identity": (0.0, 1.0),
    "sqrt": (0.0, 1.0),
    "half": (0.0, None),
    "power:2": (0.0, 1.0),
    "power:0.5": (0.0, 1.0),
    "exp:2": (None, 0.0),
    "invpower:1": (None, 1.0),
}


def slack(y: float) -> float:
    return G.RANGE_SLACK * max(1.0, abs(y))


class TestRangeRule:
    @pytest.mark.parametrize("spec", sorted(RANGE_RULE))
    def test_neutral_elements(self, spec):
        s = S.g_generated(G.make_generator(spec))
        assert (s.zero, s.unit) == RANGE_RULE[spec]

    @pytest.mark.parametrize("spec", sorted(RANGE_RULE))
    def test_within_half_a_slack_inverts_the_clamped_end(self, spec):
        gen = G.make_generator(spec)
        lo, hi = gen.range_low, gen.range_high
        assert G.eval_inverse(gen, lo - 0.5 * slack(lo)) == float(gen.inverse(lo))
        assert G.eval_inverse(gen, hi + 0.5 * slack(hi)) == float(gen.inverse(hi))
        assert not G.outside_range(gen, lo - 0.5 * slack(lo))
        assert not G.outside_range(gen, hi + 0.5 * slack(hi))

    @pytest.mark.parametrize("spec", sorted(RANGE_RULE))
    def test_two_slacks_out_is_refused(self, spec):
        gen = G.make_generator(spec)
        lo, hi = gen.range_low, gen.range_high
        for y in (lo - 2.0 * slack(lo), hi + 2.0 * slack(hi)):
            assert G.outside_range(gen, y)
            note = f"{spec}: y={y!r} outside range [{lo}, {hi}]"
            with pytest.raises(G.RangeError, match=f"^{re.escape(note)}$"):
                G.eval_inverse(gen, y)

    def test_slack_is_relative(self):
        # hi = e² ≈ 7.39, so a fixed slack of 1e-12 would refuse hi + 2e-12
        gen = G.make_generator("exp:2")
        hi = gen.range_high
        assert hi > 7.0
        assert G.eval_inverse(gen, hi + 2e-12) == float(gen.inverse(hi))
        with pytest.raises(G.RangeError):
            G.eval_inverse(gen, hi + 2.0 * slack(hi))


class TestRoundTripGrid:
    @pytest.mark.parametrize("gen", CATALOG, ids=lambda g: g.name)
    def test_interior_grid_roundtrip(self, gen):
        xs = np.linspace(gen.domain_low, gen.domain_high, 1002)[1:-1]
        back = np.asarray(gen.inverse(np.asarray(gen.forward(xs))))
        assert float(np.max(np.abs(back - xs))) < 1e-9

    @pytest.mark.parametrize("gen", CATALOG, ids=lambda g: g.name)
    def test_strict_monotonicity(self, gen):
        xs = np.linspace(gen.domain_low, gen.domain_high, 1002)[1:-1]
        diffs = np.diff(np.asarray(gen.forward(xs), dtype=float))
        want = 1.0 if gen.direction == G.INCREASING else -1.0
        assert np.all(np.sign(diffs) == want)

    @pytest.mark.parametrize("gen", CATALOG, ids=lambda g: g.name)
    def test_domain_ends_invert_through_the_range_rule(self, gen):
        # the interior grid leaves the ends out; g at either end of the domain
        # is an end of the range, and g⁻¹ takes it back to that end
        for x in (gen.domain_low, gen.domain_high):
            y = float(gen.forward(x))
            assert not G.outside_range(gen, y)
            assert G.eval_inverse(gen, y) == pytest.approx(x, rel=1e-9, abs=1e-12)

    def test_user_built_generator(self):
        # a generator outside the catalog gets its range from its domain ends
        gen = G.Generator("square", lambda x: x**2, np.sqrt)
        assert (gen.range_low, gen.range_high) == (0.0, 1.0)
        assert G.eval_inverse(gen, 0.25) == 0.5
        with pytest.raises(G.RangeError):
            G.eval_inverse(gen, 1.5)
        assert (S.g_generated(gen).zero, S.g_generated(gen).unit) == (0.0, 1.0)

    def test_singular_generator_is_clamped(self):
        # invpower is unbounded at 0, so its domain starts at the clamp
        assert G.inv_power(1.5).domain_low == G.SINGULAR_CLAMP


class TestSpecParsing:
    def test_plain_names(self):
        assert G.make_generator("sqrt").name == "sqrt"
        assert G.make_generator("identity").name == "identity"
        assert G.make_generator("half").name == "half"

    def test_parametric(self):
        gen = G.make_generator("power:0.5")
        assert gen.forward(0.25) == pytest.approx(0.5)
        gen = G.make_generator("exp:4.0")
        assert gen.forward(0.0) == 1.0
        gen = G.make_generator("invpower:2")
        assert gen.direction == G.DECREASING

    def test_errors(self):
        with pytest.raises(ValueError):
            G.make_generator("nope")
        with pytest.raises(ValueError):
            G.make_generator("power")
        with pytest.raises(ValueError):
            G.make_generator("power:-1")
        with pytest.raises(ValueError):
            G.make_generator("exp:0")
