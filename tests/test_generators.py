"""Generator catalog: the range rule, round trips, monotonicity, validation, spec parsing."""

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


class TestValidation:
    @pytest.mark.parametrize("gen", CATALOG, ids=lambda g: g.name)
    def test_catalog_passes(self, gen):
        report = G.validate_generator(gen, 1000)
        assert report.passed, report
        assert report.max_roundtrip_error < 1e-9
        assert report.monotonic

    def test_square_with_sqrt_inverse(self):
        gen = G.Generator("square", lambda x: x**2, np.sqrt)
        assert G.validate_generator(gen, 100).passed

    def test_mismatched_inverse_fails(self):
        # forward sqrt with inverse 2y: |2*sqrt(x) - x| is the reported error
        gen = G.Generator("broken", np.sqrt, lambda y: 2.0 * y)
        report = G.validate_generator(gen, 100)
        assert not report.passed
        xs = np.linspace(0, 1, 102)[1:-1]
        assert report.max_roundtrip_error == pytest.approx(
            float(np.max(np.abs(2.0 * np.sqrt(xs) - xs))), abs=1e-12
        )

    def test_non_monotone_fails(self):
        gen = G.Generator("bump", lambda x: x * (1.0 - x), lambda y: y)
        report = G.validate_generator(gen, 200)
        assert not report.monotonic
        assert report.violation_at is not None

    def test_samples_floor(self):
        with pytest.raises(ValueError):
            G.validate_generator(G.identity(), 1)

    def test_singular_clamp_recorded(self):
        gen = G.inv_power(1.5)
        assert gen.domain_low == G.SINGULAR_CLAMP
        report = G.validate_generator(gen, 100)
        assert any("clamp" in note for note in report.notes)


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
