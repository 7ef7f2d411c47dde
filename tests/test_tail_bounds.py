import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from spr import (
    erlang_cdf_lower,
    erlang_tail_upper,
    lemma4_bound,
    lemma4_bound_loose,
    lemma5_bound,
    lemma5_threshold,
    lemma6_bound,
    monte_carlo_geometric,
    monte_carlo_lower,
)
from spr import tail_bounds
from spr.errors import KappaTooLargeError, ParamOutOfRegimeError


class TestErlangCdf:
    def test_exponential_closed_form(self):
        assert erlang_cdf_lower(1, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-13)
        assert erlang_cdf_lower(1, 0.25) == pytest.approx(1 - math.exp(-0.25), abs=1e-13)

    def test_zero_threshold(self):
        assert erlang_cdf_lower(2, 0.0) == 0.0
        assert erlang_tail_upper(2, 0.0) == 1.0

    def test_against_scipy_grid(self):
        for m in (1, 2, 3, 5, 10, 20, 50, 60, 200, 1000):
            for x in (0.01, 0.25, 0.5 * m, float(m), m + 0.999, m + 1.0, 2.0 * m, 6.0 * m):
                mine = erlang_cdf_lower(m, x)
                ref = float(special.gammainc(m, x))
                assert mine == pytest.approx(ref, abs=1e-12)

    def test_upper_tail_against_scipy(self):
        for m in (1, 5, 30, 50):
            for c in (2.0, 6.0, 10.0):
                mine = erlang_tail_upper(m, c * m)
                ref = float(special.gammaincc(m, c * m))
                assert mine == pytest.approx(ref, rel=1e-10, abs=1e-300)

    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_monotone_in_threshold(self, m, x1, x2):
        lo, hi = sorted((x1, x2))
        assert erlang_cdf_lower(m, lo) <= erlang_cdf_lower(m, hi) + 1e-12

    def test_tends_to_one(self):
        for m in (1, 5, 20):
            assert erlang_cdf_lower(m, 60.0 * m) > 1 - 1e-9

    def test_complementarity(self):
        for m in (1, 4, 9):
            for x in (0.5, 2.0, 10.0):
                total = erlang_cdf_lower(m, x) + erlang_tail_upper(m, x)
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            erlang_cdf_lower(0, 1.0)
        with pytest.raises(ValueError):
            erlang_cdf_lower(2, -1.0)

    def test_unconverged_series_raises(self, monkeypatch):
        monkeypatch.setattr(tail_bounds, "_MAX_ITER", 3)
        with pytest.raises(ParamOutOfRegimeError, match="power series did not converge"):
            erlang_cdf_lower(50, 40.0)

    def test_shapes_past_the_tested_range_are_refused(self):
        # Evaluated, this read 0.4997056535 where scipy gives 0.4997056346.
        for tail in (erlang_cdf_lower, erlang_tail_upper):
            with pytest.raises(ParamOutOfRegimeError, match="shape m=10000000 exceeds 1000"):
                tail(10**7, 10**7 + 2)

    def test_largest_tested_shape_is_accepted(self):
        assert erlang_tail_upper(1000, 1002.0) == pytest.approx(
            special.gammaincc(1000, 1002.0), abs=1e-12
        )
        assert erlang_cdf_lower(1000, 900.0) == pytest.approx(
            special.gammainc(1000, 900.0), abs=1e-12
        )

    def test_unconverged_continued_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(tail_bounds, "_MAX_ITER", 3)
        with pytest.raises(ParamOutOfRegimeError, match="continued fraction did not converge"):
            erlang_tail_upper(50, 300.0)


class TestLemma4:
    def test_loose_values(self):
        assert lemma4_bound_loose(1, 0.25) == pytest.approx(0.75, rel=1e-12)
        assert lemma4_bound_loose(2, 0.25) == pytest.approx(0.5625, rel=1e-12)
        assert lemma4_bound_loose(3, 0.0) == 0.0

    def test_tight_below_loose(self):
        for m in (1, 2, 5, 10, 20):
            for kappa in (0.02, 0.05, 0.1, 0.25):
                assert lemma4_bound(m, kappa) <= lemma4_bound_loose(m, kappa) + 1e-15

    def test_dominates_exact_tail_on_grid(self):
        for m in (1, 2, 5, 10, 20):
            for kappa in (0.02, 0.05, 0.1, 0.25):
                exact = erlang_cdf_lower(m, kappa * m)
                assert exact <= lemma4_bound(m, kappa)
                assert exact <= lemma4_bound_loose(m, kappa)

    def test_kappa_guard(self):
        with pytest.raises(KappaTooLargeError):
            lemma4_bound(3, 0.3)
        with pytest.raises(KappaTooLargeError):
            lemma4_bound_loose(3, 0.26)


class TestLemma5:
    def test_reference_values(self):
        assert lemma5_threshold(18.0, 0.5, 4) == 36.0 * math.log(4)
        assert lemma5_bound(18, 0.5, 4) == pytest.approx(2 * 4.0**-6, rel=1e-12)
        assert lemma5_bound(18, 0.5, 4) == pytest.approx(4.8828125e-4, rel=1e-9)
        assert lemma5_bound(18, 0.5, 10) == pytest.approx(2e-6, rel=1e-12)

    def test_exponent_scales_with_m(self):
        for k in (3, 7, 12):
            assert lemma5_bound(36, 0.5, k) == pytest.approx(2.0 * k**-9.0, rel=1e-12)

    def test_regime_guards(self):
        for guarded in (lemma5_bound, lemma5_threshold):
            with pytest.raises(ParamOutOfRegimeError):
                guarded(17.9, 0.5, 4)
            with pytest.raises(ParamOutOfRegimeError):
                guarded(18, 0.6, 4)
            with pytest.raises(ParamOutOfRegimeError):
                guarded(18, 0.5, 2)


class TestLemma6:
    def test_reference_points(self):
        assert erlang_tail_upper(30, 180.0) <= lemma6_bound(30, 6.0)
        assert erlang_tail_upper(5, 50.0) <= lemma6_bound(5, 10.0)

    def test_m1_closed_form(self):
        exact = erlang_tail_upper(1, 6.0)
        bound = lemma6_bound(1, 6.0)
        assert exact == pytest.approx(math.exp(-6.0), rel=1e-10)
        assert bound == pytest.approx(math.exp(-3.0), rel=1e-12)
        assert exact <= bound

    def test_grid(self):
        for m in (5, 10, 30, 50):
            for c in (6.0, 8.0, 10.0):
                exact, bound = erlang_tail_upper(m, c * m), lemma6_bound(m, c)
                assert exact <= bound, (m, c, exact, bound)
                assert exact > 0.0  # no underflow to zero


class TestMonteCarlo:
    def test_erlang_m1_matches_closed_form(self):
        probability, _ = monte_carlo_lower(1, 1.0, 100_000, seed=7)
        exact = 1 - math.exp(-1)
        sigma = math.sqrt(exact * (1 - exact) / 100_000)
        assert abs(probability - exact) <= 3 * sigma

    def test_erlang_bounded_by_lemma4(self):
        probability, std_error = monte_carlo_lower(5, 1.25, 100_000, seed=11)
        assert probability <= lemma4_bound(5, 0.25) + 3 * std_error

    def test_geometric_sum_bounded_by_lemma5(self):
        probability, std_error = monte_carlo_geometric(0.5, 4, 18.0, 100_000, seed=3)
        assert probability <= lemma5_bound(18.0, 0.5, 4) + 3 * std_error

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            monte_carlo_lower(1, 1.0, 9_999, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_geometric(0.5, 4, 18.0, 9_999, seed=0)

    def test_deterministic_in_seed(self):
        a = monte_carlo_lower(3, 2.0, 20_000, seed=42)
        b = monte_carlo_lower(3, 2.0, 20_000, seed=42)
        assert a == b

    def test_truncation_budget(self):
        r, terms = tail_bounds._geometric_terms(0.5, 4)
        discarded = 1.0 / (r ** (terms - 1) * (r - 1.0))
        assert discarded < 1e-12


class TestQueries:
    def test_geometric_defaults(self):
        r, _ = tail_bounds._geometric_terms(0.5, 10)
        assert r == pytest.approx(1 + 0.5 / math.log(10), rel=1e-12)
        threshold = lemma5_threshold(20.0, 0.5, 10)
        assert threshold == pytest.approx(20.0 * math.log(10) / 0.5, rel=1e-12)

    def test_guards(self):
        with pytest.raises(ParamOutOfRegimeError):
            monte_carlo_geometric(0.7, 10, 20.0, 10_000, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_lower(3, -1.0, 10_000, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_lower(0, 2.0, 10_000, seed=0)
