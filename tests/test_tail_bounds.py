import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from spr import (
    erlang_cdf_lower,
    erlang_cdf_lower_poisson,
    erlang_tail_upper,
    geometric_tail_chernoff,
    lemma4_bound,
    lemma4_bound_loose,
    lemma5_bound,
    lemma5_threshold,
    lemma6_bound,
)
from spr import tail_bounds
from spr.errors import KappaTooLargeError, ParamOutOfRegimeError

from conftest import monte_carlo_geometric, monte_carlo_lower

# The (m, x) points of the lemma4, lemma6 and cdf suites.
SUITE_POINTS = [
    *((m, kappa * m) for m in (1, 2, 5, 10, 20) for kappa in (0.02, 0.05, 0.1, 0.25)),
    *((m, c * m) for m in (5, 10, 30, 50) for c in (6.0, 8.0, 10.0)),
    *((m, factor * m) for m in (1, 2, 5, 10) for factor in (0.25, 0.5, 1.0, 2.0)),
]


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


class TestPoissonSum:
    def test_matches_the_incomplete_gamma_on_the_suite_points(self):
        for m, x in SUITE_POINTS:
            exact, poisson = erlang_cdf_lower(m, x), erlang_cdf_lower_poisson(m, x)
            assert abs(exact - poisson) <= 1e-12 * max(exact, poisson), (m, x)

    def test_against_scipy_grid(self):
        for m in (1, 2, 3, 5, 10, 20, 50, 200, 1000):
            for x in (0.01, 0.25, 0.5 * m, float(m), m + 1.0, 2.0 * m):
                ref = float(special.gammainc(m, x))
                assert erlang_cdf_lower_poisson(m, x) == pytest.approx(ref, rel=1e-11, abs=1e-300)

    def test_zero_threshold(self):
        assert erlang_cdf_lower_poisson(3, 0.0) == 0.0

    def test_stays_a_probability_at_large_thresholds(self):
        # Uncapped, the sum reads 1.0000000000032825 at x = 9000.
        for m in (1, 5):
            for x in (2000.0, 9000.0):
                value = erlang_cdf_lower_poisson(m, x)
                assert 0.0 <= value <= 1.0, (m, x)
                assert abs(value - erlang_cdf_lower(m, x)) <= 1e-11, (m, x)

    def test_refuses_thresholds_past_9000(self):
        assert erlang_cdf_lower(1, 9500.0) == 1.0
        with pytest.raises(ParamOutOfRegimeError, match="Poisson sum did not converge"):
            erlang_cdf_lower_poisson(1, 9500.0)

    def test_unconverged_sum_raises(self, monkeypatch):
        monkeypatch.setattr(tail_bounds, "_MAX_ITER", 3)
        with pytest.raises(ParamOutOfRegimeError, match="Poisson sum did not converge"):
            erlang_cdf_lower_poisson(1, 40.0)


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


class TestChernoff:
    def test_reference_values(self):
        for k, expected in ((4, 1.1572859296872651e-18), (10, 1.4748440345010842e-31)):
            bound = geometric_tail_chernoff(0.5, k, lemma5_threshold(18.0, 0.5, k))
            assert bound == pytest.approx(expected, rel=1e-9)

    def test_above_the_first_two_terms_tail(self):
        # S >= X_0 + X_1, whose tail (r e^-t - e^-rt) / (r - 1) is closed form.
        for k in (3, 4, 10, 1000):
            r = 1.0 + 0.5 / math.log(k)
            for t in (1.0, 5.0, 10.0, 20.0, 50.0, 80.0):
                two_terms = (r * math.exp(-t) - math.exp(-r * t)) / (r - 1.0)
                assert geometric_tail_chernoff(0.5, k, t) >= two_terms, (k, t)

    def test_no_looser_than_janson(self):
        # Janson (Statist. Probab. Lett. 2018, Thm 5.1) bounds the tail at
        # lambda * mean by exp(-a* mean (lambda - 1 - ln lambda)), a* the
        # smallest rate (here 1), from one s of the same Chernoff bound, so
        # the infimum must come out no larger.
        for k in (3, 4, 10, 1000):
            r = 1.0 + 0.5 / math.log(k)
            mean = r / (r - 1.0)
            for lam in (1.05, 1.5, 2.0, 5.0, 20.0):
                janson = math.exp(-mean * (lam - 1.0 - math.log(lam)))
                assert geometric_tail_chernoff(0.5, k, lam * mean) <= janson, (k, lam)

    def test_decreasing_in_threshold(self):
        bounds = [geometric_tail_chernoff(0.5, 4, t) for t in (0.0, 2.0, 5.0, 10.0, 20.0, 50.0)]
        assert bounds == sorted(bounds, reverse=True)
        assert bounds[0] == 1.0


class TestMonteCarlo:
    """The Monte Carlo oracles of ``conftest``, at fixed seeds, against the
    deterministic evaluations."""

    def test_erlang_m1_matches_closed_form(self):
        exact = 1 - math.exp(-1)
        assert erlang_cdf_lower_poisson(1, 1.0) == pytest.approx(exact, rel=1e-15)
        probability, _ = monte_carlo_lower(1, 1.0, 100_000, seed=7)
        sigma = math.sqrt(exact * (1 - exact) / 100_000)
        assert abs(probability - exact) <= 3 * sigma

    def test_erlang_tails_match_the_estimates(self):
        for index, (m, x) in enumerate(((2, 1.0), (5, 2.5), (5, 5.0), (10, 15.0))):
            probability, _ = monte_carlo_lower(m, x, 100_000, seed=100 + index)
            for exact in (erlang_cdf_lower(m, x), erlang_cdf_lower_poisson(m, x)):
                sigma = math.sqrt(exact * (1 - exact) / 100_000)
                assert abs(probability - exact) <= 3 * sigma, (m, x)

    def test_erlang_bounded_by_lemma4(self):
        probability, std_error = monte_carlo_lower(5, 1.25, 100_000, seed=11)
        assert probability <= lemma4_bound(5, 0.25) + 3 * std_error
        assert erlang_cdf_lower_poisson(5, 1.25) <= lemma4_bound(5, 0.25)

    def test_geometric_sum_bounded_by_lemma5(self):
        for k in (4, 10):
            threshold = lemma5_threshold(18.0, 0.5, k)
            assert geometric_tail_chernoff(0.5, k, threshold) <= lemma5_bound(18.0, 0.5, k)

    @pytest.mark.parametrize("k, t, seed", [(4, 9.0, 3), (10, 12.0, 4)])
    def test_chernoff_lies_above_the_estimate(self, k, t, seed):
        # At the lemma's threshold the tail is ~1e-18 and no draw hits it;
        # here it is 1e-3 to 1e-2, so the estimate can refute the bound.
        probability, _ = monte_carlo_geometric(0.5, k, t, 100_000, seed)
        assert 1e-3 <= probability <= 1e-2
        assert probability <= geometric_tail_chernoff(0.5, k, t) < 1.0

    def test_deterministic_in_seed(self):
        assert monte_carlo_lower(3, 2.0, 20_000, seed=42) == monte_carlo_lower(3, 2.0, 20_000, seed=42)
        assert monte_carlo_geometric(0.5, 4, 9.0, 20_000, 42) == monte_carlo_geometric(
            0.5, 4, 9.0, 20_000, 42
        )

    def test_truncation_budget(self, monkeypatch):
        # How many factors are summed exactly before the closed-form
        # remainder takes over moves the bound by less than 1e-7.  Fewer
        # exact factors never give a smaller bound.
        bounds = {}
        for terms in (50, 200, 2000):
            monkeypatch.setattr(tail_bounds, "_CHERNOFF_TERMS", terms)
            bounds[terms] = [
                geometric_tail_chernoff(0.5, k, lemma5_threshold(18.0, 0.5, k)) for k in (4, 10)
            ]
        for loose, tight in zip(bounds[50], bounds[2000]):
            assert tight <= loose
            assert loose == pytest.approx(tight, rel=1e-7)
        assert bounds[200] == pytest.approx(bounds[2000], rel=1e-12)


class TestQueries:
    def test_geometric_defaults(self):
        # r = 1 + delta / ln k makes the sum's mean r / (r - 1) = 1 + ln(k) / delta:
        # below it the Chernoff bound is the trivial 1, above it less.
        mean = 1.0 + math.log(10) / 0.5
        assert geometric_tail_chernoff(0.5, 10, 0.99 * mean) == 1.0
        assert geometric_tail_chernoff(0.5, 10, 1.01 * mean) < 1.0
        threshold = lemma5_threshold(20.0, 0.5, 10)
        assert threshold == pytest.approx(20.0 * math.log(10) / 0.5, rel=1e-12)

    def test_guards(self):
        with pytest.raises(ParamOutOfRegimeError):
            geometric_tail_chernoff(0.7, 10, 1.0)
        with pytest.raises(ParamOutOfRegimeError):
            geometric_tail_chernoff(0.5, 2, 1.0)
        with pytest.raises(ParamOutOfRegimeError, match="rounds to 1"):
            geometric_tail_chernoff(1e-300, 10, 1.0)
        with pytest.raises(ValueError):
            geometric_tail_chernoff(0.5, 10, -1.0)
        with pytest.raises(ValueError):
            erlang_cdf_lower_poisson(3, -1.0)
        with pytest.raises(ValueError):
            erlang_cdf_lower_poisson(0, 2.0)
        with pytest.raises(ParamOutOfRegimeError, match="exceeds 1000"):
            erlang_cdf_lower_poisson(1001, 2.0)
