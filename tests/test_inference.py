import math

import numpy as np
import pytest

from helpers import constant_propensity, dataset_from, random_dataset
from riskratio import (
    ForestConfig,
    ObservationalDataset,
    ValidationError,
    attach_interval,
    fit_forest_classifier,
    fit_logistic_mle,
    katz_ci,
    log_delta_ci,
    norm_quantile,
    optimal_e_ht,
    optimal_e_neyman,
    rr_ipw,
    rr_neyman,
    var_g,
    var_ht,
    var_ipw,
    var_ipw_mle_adjusted,
    var_neyman,
    var_os,
    wald_ci,
)
from riskratio.dgp import DGPSpec, generate, oracle_models
from riskratio.estimators import CrossfitScores, FoldPartition, RRPoint
from riskratio.inference import INTERVALS
from riskratio.nuisance import Constant, Linear, Logistic, OutcomeModel, PropensityModel


def _phi(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _quantile_by_bisection(p, lo=-40.0, hi=40.0):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _phi(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# p -> its standard normal quantile rounded to the nearest double, computed
# offline as sqrt(2) erfinv(2p - 1) at 80 significant digits (mpmath 1.3.0)
QUANTILES = {
    1e-30: "-0x1.6ed94a4dacdc8p+3",
    1e-8: "-0x1.672b074435e3dp+2",
    1e-4: "-0x1.dc08bb712893bp+1",
    0.02425: "-0x1.f913f9b7aa943p+0",
    0.3: "-0x1.0c7e39582c5fbp-1",
    0.500000001: "0x1.588223b049edfp-29",
    0.95: "0x1.a515209676abbp+0",
    0.975: "0x1.f5c0331eeff83p+0",
    0.995: "0x1.49b4c64d69160p+1",
    1 - 2.8e-14: "0x1.e11a0e1ca01d4p+2",
}


class TestNormQuantile:
    @pytest.mark.parametrize("p", sorted(QUANTILES))
    def test_within_four_ulps_of_correctly_rounded(self, p):
        exact = float.fromhex(QUANTILES[p])
        assert abs(norm_quantile(p) - exact) <= 4 * math.ulp(exact)

    def test_against_bisection_oracle(self):
        for p in (1e-9, 1e-6, 1e-4, 0.02, 0.2, 0.5, 0.7, 0.975, 0.995, 1 - 1e-6):
            assert abs(norm_quantile(p) - _quantile_by_bisection(p)) < 1e-9

    def test_symmetry_and_domain(self):
        assert norm_quantile(0.5) == 0.0
        assert norm_quantile(0.975) == pytest.approx(-norm_quantile(0.025), abs=1e-12)
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValidationError):
                norm_quantile(bad)


class TestVarNeyman:
    def test_constant_outcomes_give_zero(self):
        d = dataset_from(t=[1, 0, 1, 0], y=[3.0, 3.0, 3.0, 3.0])
        assert var_neyman(d) == 0.0

    def test_two_point_arms_hand_value(self):
        d = dataset_from(t=[1, 1, 0, 0], y=[2.0, 4.0, 1.0, 3.0])
        # arm means 3 and 2, arm mean square deviations 1 and 1, share 1/2
        expected = 1.5**2 * (1.0 / (0.5 * 9.0) + 1.0 / (0.5 * 4.0))
        assert var_neyman(d) == pytest.approx(expected, rel=1e-12)

    def test_binary_reduces_to_event_count_form(self):
        for seed in range(50):
            d = random_dataset(seed, n=40, binary=True)
            s1 = float(np.sum(d.t * d.y))
            s0 = float(np.sum((1 - d.t) * d.y))
            expected = rr_neyman(d).value ** 2 * (
                1.0 / s1 - 1.0 / d.n1 + 1.0 / s0 - 1.0 / d.n0
            )
            assert var_neyman(d) / d.n == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_zero_arm_mean_errors(self):
        d = dataset_from(t=[1, 1, 0, 0], y=[1.0, -1.0, 2.0, 2.0])
        with pytest.raises(ValidationError):
            var_neyman(d)


class TestVarHT:
    def test_difference_from_neyman_is_design_term(self):
        for seed in range(100):
            d = random_dataset(seed)
            e_hat = d.n1 / d.n
            gap = var_ht(d, e_hat) - var_neyman(d)
            expected = rr_neyman(d).value ** 2 / (e_hat * (1.0 - e_hat))
            assert gap == pytest.approx(expected, rel=1e-10)

    def test_unit_outcomes_hand_value(self):
        d = dataset_from(t=[1, 0, 1, 0], y=[1.0, 1.0, 1.0, 1.0])
        # second moments 1, arm means 1, tau 1: 1/e + 1/(1-e) at e = 1/2
        assert var_ht(d, 0.5) == pytest.approx(4.0, rel=1e-12)

    def test_single_arm_errors(self):
        with pytest.raises(ValidationError):
            var_ht(dataset_from(t=[1, 1], y=[1.0, 2.0]), 0.5)

    def test_e_outside_unit_interval_errors(self):
        d = dataset_from(t=[1, 0, 1, 0], y=[1.0, 1.0, 1.0, 1.0])
        for e in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError, match="must lie in"):
                var_ht(d, e)


class TestVarIPW:
    def test_constant_half_on_balanced_data_matches_ht(self):
        for seed in range(40):
            g = np.random.default_rng(seed)
            n = 30
            t = np.repeat([1, 0], n // 2)
            y = g.integers(0, 2, size=n).astype(float)
            y[0] = y[-1] = 1.0
            d = dataset_from(t=t, y=y)
            model = constant_propensity(0.5, clip=1e-9)
            assert var_ipw(d, model.predict(d.x)) == pytest.approx(var_ht(d, 0.5), rel=1e-12)

    def test_empirical_share_constant_matches_ht_generally(self):
        for seed in range(40):
            d = random_dataset(seed + 300)
            model = constant_propensity(d.n1 / d.n, clip=1e-9)
            assert var_ipw(d, model.predict(d.x)) == pytest.approx(
                var_ht(d, d.n1 / d.n), rel=1e-11
            )

    def test_six_row_hand_value(self):
        e_by_row = np.array([0.4, 0.5, 0.8, 0.7, 0.5, 0.4])
        model = PropensityModel(lambda x: e_by_row[x[:, 0].astype(int)], clip=1e-9)
        x = np.arange(6.0).reshape(-1, 1)
        d = dataset_from(t=[1, 1, 1, 0, 0, 0], y=[2.0, 3.0, 1.0, 1.0, 2.0, 4.0], x=x)
        num1 = ((2 / 0.4) ** 2 + (3 / 0.5) ** 2 + (1 / 0.8) ** 2) / 6
        den1 = (2 / 0.4 + 3 / 0.5 + 1 / 0.8) / 6
        num0 = ((1 / 0.3) ** 2 + (2 / 0.5) ** 2 + (4 / 0.6) ** 2) / 6
        den0 = (1 / 0.3 + 2 / 0.5 + 4 / 0.6) / 6
        tau = den1 / den0
        expected = tau**2 * (num1 / den1**2 + num0 / den0**2)
        e = model.predict(d.x)
        assert var_ipw(d, e) == pytest.approx(expected, rel=1e-12)
        assert rr_ipw(d, e).value == pytest.approx(tau, rel=1e-12)

    def test_zero_weighted_arm_mean_errors(self):
        d = dataset_from(t=[1, 1, 0, 0], y=[1.0, -1.0, 2.0, 2.0])
        with pytest.raises(ValidationError, match="weighted arm mean is zero"):
            var_ipw(d, constant_propensity(0.5).predict(d.x))

    def test_clipping_keeps_variance_finite(self):
        g = np.random.default_rng(5)
        x = g.normal(size=(200, 1))
        d = dataset_from(
            t=(g.random(200) < 0.5).astype(int), y=g.uniform(0.5, 2.0, 200), x=x
        )
        extreme = PropensityModel(Logistic(0.0, np.array([50.0])), clip=0.01, n_features=1)
        v = var_ipw(d, extreme.predict(d.x))
        assert np.isfinite(v) and v >= 0.0


class TestVarIPWAdjusted:
    def test_intercept_only_recovers_neyman(self):
        # estimating a constant propensity removes exactly the design term
        for seed in range(20):
            d = random_dataset(seed, n=60)
            empty = np.zeros((d.n, 0))
            d0 = ObservationalDataset(x=empty, t=d.t, y=d.y)
            model = fit_logistic_mle(d0.x, d0.t, clip=1e-9)
            adjusted = var_ipw_mle_adjusted(d0, model)
            assert adjusted == pytest.approx(var_neyman(d0), rel=1e-7)

    def test_adjustment_never_exceeds_plain_variance(self):
        sample = generate(DGPSpec(kind="lunceford", n=4_000, seed=31))
        model = fit_logistic_mle(sample.dataset.x, sample.dataset.t)
        adjusted = var_ipw_mle_adjusted(sample.dataset, model)
        plain = var_ipw(sample.dataset, model.predict(sample.dataset.x))
        assert adjusted <= plain + 1e-9
        assert adjusted > 0.0

    def test_requires_logistic_model(self):
        d = random_dataset(3)
        function_like = PropensityModel(lambda x: np.full(len(x), 0.5))
        ols_like = PropensityModel(Linear(0.5, np.zeros(d.p)))
        forest = fit_forest_classifier(d.x, d.t, ForestConfig(n_trees=2))
        # the correction is that of a logistic fit on (1, x), which a
        # constant never estimated (on lunceford n=2000 it gave about a
        # third of var_neyman for the constant n1/n)
        constant = constant_propensity(d.n1 / d.n)
        for model in (function_like, ols_like, forest, constant):
            with pytest.raises(ValidationError, match="logistic-model propensities"):
                var_ipw_mle_adjusted(d, model)
        # a known propensity is not an estimated one: the oracle is refused too
        sample = generate(DGPSpec(kind="lunceford", n=200, seed=32))
        with pytest.raises(ValidationError, match="logistic-model propensities"):
            var_ipw_mle_adjusted(sample.dataset, oracle_models("lunceford")[0])


class TestVarG:
    def test_proportional_constant_surfaces_give_zero(self):
        d = random_dataset(11)
        mu0 = OutcomeModel(Constant(1.5))
        mu1 = OutcomeModel(Constant(3.0))
        assert var_g(d, mu0.predict(d.x), mu1.predict(d.x)) == pytest.approx(0.0, abs=1e-25)

    def test_no_effect_surfaces_reduce_to_scaled_prediction_variance(self):
        d = random_dataset(12, n=80)
        shared = OutcomeModel(Linear(1.0, np.array([0.7, -0.2])), n_features=2)
        y1, y0 = d.y[d.t == 1], d.y[d.t == 0]
        ybar1, ybar0 = y1.mean(), y0.mean()
        pred = shared.predict(d.x)
        tau = pred.mean() / pred.mean()
        expected = tau**2 * (1 / ybar1 - 1 / ybar0) ** 2 * np.mean((pred - pred.mean()) ** 2)
        assert var_g(d, pred, pred) == pytest.approx(expected, rel=1e-10)

    def test_four_row_hand_value(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        d = dataset_from(t=[1, 0, 1, 0], y=[2.0, 1.0, 4.0, 3.0], x=x)
        mu1 = OutcomeModel(Linear(0.0, np.array([1.0])), n_features=1)
        mu0 = OutcomeModel(Linear(0.5, np.array([0.5])), n_features=1)
        # arm means 3 and 2; deltas x/3 - (0.5 + 0.5 x)/2; tau = 2.5/1.75
        deltas = np.array([v / 3.0 - (0.5 + 0.5 * v) / 2.0 for v in (1.0, 2.0, 3.0, 4.0)])
        expected = (2.5 / 1.75) ** 2 * np.mean((deltas - deltas.mean()) ** 2)
        assert var_g(d, mu0.predict(d.x), mu1.predict(d.x)) == pytest.approx(expected, rel=1e-12)


class TestVarOS:
    def _toy_scores(self):
        x = np.arange(4.0).reshape(-1, 1)
        d = dataset_from(t=[1, 0, 1, 0], y=[2.0, 1.0, 4.0, 3.0], x=x)
        folds = FoldPartition(k=2, assignment=np.array([1, 1, 2, 2]), seed=0)
        scores = CrossfitScores(
            d=d,
            e=np.array([0.5, 0.5, 0.25, 0.75]),
            mu0=np.array([1.0, 1.0, 2.0, 2.0]),
            mu1=np.array([2.0, 2.0, 3.0, 3.0]),
            folds=folds,
        )
        return d, scores

    def test_constant_unit_data_gives_zero(self):
        d = dataset_from(t=[1, 0, 1, 0], y=np.ones(4))
        folds = FoldPartition(k=2, assignment=np.array([1, 1, 2, 2]), seed=0)
        scores = CrossfitScores(
            d=d, e=np.full(4, 0.5), mu0=np.ones(4), mu1=np.ones(4), folds=folds
        )
        assert var_os(scores, RRPoint(1.0, "aipw")) == 0.0

    def test_zero_augmented_arm_mean_errors(self):
        d = dataset_from(t=[1, 0, 1, 0], y=[1.0, 1.0, -1.0, 1.0])
        folds = FoldPartition(k=2, assignment=np.array([1, 1, 2, 2]), seed=0)
        scores = CrossfitScores(
            d=d, e=np.full(4, 0.5), mu0=np.ones(4), mu1=np.zeros(4), folds=folds
        )
        with pytest.raises(ValidationError, match="augmented arm mean is zero"):
            var_os(scores, RRPoint(1.0, "aipw"))

    def test_four_row_hand_value(self):
        d, scores = self._toy_scores()
        gamma1 = np.array([2.0, 2.0, 3.0 + (4.0 - 3.0) / 0.25, 3.0])
        gamma0 = np.array([1.0, 1.0 + 0.0, 2.0, 2.0 + (3.0 - 2.0) / 0.25])
        delta = gamma1 / gamma1.mean() - gamma0 / gamma0.mean()
        expected = 1.4**2 * np.mean((delta - delta.mean()) ** 2)
        got = var_os(scores, RRPoint(1.4, "aipw"))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_oracle_nuisances_match_population_variance(self):
        # population variance evaluated by simulation, then compared with the
        # plug-in on one large oracle-scored sample
        e_model, mu0, mu1 = oracle_models("linear_rct")
        big = np.random.default_rng(0).normal(size=(10**6, 6))
        contrast = mu1.predict(big) / 12.0 - mu0.predict(big) / 6.0
        v_population = 4.0 * (
            np.var(contrast) + 1.0 / (0.5 * 144.0) + 1.0 / (0.5 * 36.0)
        )
        sample = generate(DGPSpec(kind="linear_rct", n=20_000, seed=33))
        d = sample.dataset
        folds = FoldPartition(k=2, assignment=np.tile([1, 2], 10_000), seed=0)
        scores = CrossfitScores(
            d=d,
            e=e_model.predict(d.x),
            mu0=mu0.predict(d.x),
            mu1=mu1.predict(d.x),
            folds=folds,
        )
        got = var_os(scores, rr_neyman(d))
        assert got == pytest.approx(v_population, rel=0.2)


class TestIntervals:
    def test_wald_zero_variance_collapses(self):
        assert wald_ci(2.0, 0.0, 50) == (2.0, 2.0)

    def test_wald_arithmetic(self):
        lo, hi = wald_ci(2.0, 4.0, 400, alpha=0.05)
        assert lo == pytest.approx(2.0 - 1.959963984540054 * 0.1, abs=1e-9)
        assert hi == pytest.approx(2.0 + 1.959963984540054 * 0.1, abs=1e-9)

    def test_wald_alpha_one_degenerates(self):
        assert wald_ci(1.5, 4.0, 10, alpha=1.0) == (1.5, 1.5)

    def test_alpha_one_gives_zero_width_in_every_interval(self):
        d = dataset_from(t=[1, 1, 0, 0], y=[1.0, 0.0, 1.0, 0.0])
        assert log_delta_ci(1.5, 4.0, 10, alpha=1.0) == (1.5, 1.5)
        assert katz_ci(d, alpha=1.0) == (1.0, 1.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.5, 3.0])
    def test_alpha_outside_unit_interval_errors_naming_alpha(self, alpha):
        d = dataset_from(t=[1, 1, 0, 0], y=[1.0, 0.0, 1.0, 0.0])
        for interval in (
            lambda: wald_ci(1.5, 4.0, 10, alpha=alpha),
            lambda: log_delta_ci(1.5, 4.0, 10, alpha=alpha),
            lambda: katz_ci(d, alpha=alpha),
        ):
            with pytest.raises(ValidationError, match=r"alpha must lie in \(0, 1\]"):
                interval()

    def test_log_delta_zero_variance(self):
        assert log_delta_ci(2.0, 0.0, 50) == (2.0, 2.0)

    def test_log_delta_doubling_construction(self):
        z = norm_quantile(0.975)
        v = (math.log(2.0) / z) ** 2
        lo, hi = log_delta_ci(1.0, v, 1, alpha=0.05)
        assert lo == pytest.approx(0.5, rel=1e-12)
        assert hi == pytest.approx(2.0, rel=1e-12)

    def test_log_delta_needs_positive_point(self):
        with pytest.raises(ValidationError):
            log_delta_ci(0.0, 1.0, 10)

    def test_negative_variance_errors(self):
        for interval in (wald_ci, log_delta_ci):
            with pytest.raises(ValidationError, match="non-negative"):
                interval(2.0, -1e-12, 50)

    def test_katz_hand_arithmetic(self):
        t = np.repeat([1, 0], 20)
        y = np.concatenate([np.ones(10), np.zeros(10), np.ones(5), np.zeros(15)])
        d = dataset_from(t=t, y=y)
        sigma = math.sqrt(1 / 10 - 1 / 20 + 1 / 5 - 1 / 20)
        z = norm_quantile(0.975)
        lo, hi = katz_ci(d)
        assert lo == pytest.approx(2.0 * math.exp(-z * sigma), rel=1e-12)
        assert hi == pytest.approx(2.0 * math.exp(z * sigma), rel=1e-12)

    def test_katz_all_events_zero_width(self):
        d = dataset_from(t=[1, 1, 0, 0], y=[1.0, 1.0, 1.0, 1.0])
        assert katz_ci(d) == (1.0, 1.0)

    def test_katz_zero_events_error(self):
        d = dataset_from(t=[1, 1, 0, 0], y=[1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            katz_ci(d)

    def test_katz_needs_binary_outcome(self):
        with pytest.raises(ValidationError):
            katz_ci(random_dataset(1))

    def test_katz_equals_log_delta_on_binary_data(self):
        for seed in range(50):
            d = random_dataset(seed, n=60, binary=True)
            v = var_neyman(d)
            tau = rr_neyman(d).value
            katz = katz_ci(d)
            delta = log_delta_ci(tau, v, d.n)
            assert katz[0] == pytest.approx(delta[0], rel=1e-12)
            assert katz[1] == pytest.approx(delta[1], rel=1e-12)

    def test_width_monotone_in_variance_and_alpha(self):
        widths = [wald_ci(2.0, v, 100)[1] - wald_ci(2.0, v, 100)[0] for v in (0.0, 1.0, 4.0, 9.0)]
        assert widths == sorted(widths)
        by_alpha = [
            wald_ci(2.0, 4.0, 100, alpha=a)[1] - wald_ci(2.0, 4.0, 100, alpha=a)[0]
            for a in (0.01, 0.05, 0.2, 0.5)
        ]
        assert by_alpha == sorted(by_alpha, reverse=True)
        log_by_alpha = [
            log_delta_ci(2.0, 4.0, 100, alpha=a)[1] - log_delta_ci(2.0, 4.0, 100, alpha=a)[0]
            for a in (0.01, 0.05, 0.2, 0.5)
        ]
        assert log_by_alpha == sorted(log_by_alpha, reverse=True)


class TestVarianceInvariants:
    def test_non_negative_and_permutation_invariant(self):
        mu0 = OutcomeModel(Linear(1.0, np.array([0.5, 0.1])), n_features=2)
        mu1 = OutcomeModel(Linear(2.0, np.array([-0.5, 0.3])), n_features=2)
        model = constant_propensity(0.4)
        for seed in range(20):
            d = random_dataset(seed, n=50)
            perm = np.random.default_rng(seed).permutation(d.n)
            shuffled = ObservationalDataset(x=d.x[perm], t=d.t[perm], y=d.y[perm])
            for fn in (
                var_neyman,
                lambda dd: var_ht(dd, 0.3),
                lambda dd: var_ipw(dd, model.predict(dd.x)),
                lambda dd: var_g(dd, mu0.predict(dd.x), mu1.predict(dd.x)),
            ):
                v, v_perm = fn(d), fn(shuffled)
                assert v >= 0.0
                assert v == pytest.approx(v_perm, rel=1e-11)


class TestOptimalAssignment:
    def test_equal_dispersion_gives_half(self):
        assert optimal_e_neyman(4.0, 2.0, 1.0, 1.0) == 0.5
        assert optimal_e_ht(4.0, 2.0, 1.0, 1.0) == 0.5

    def test_closed_form_case(self):
        # C1 = 4, C0 = 1 -> (4 - 2) / 3
        assert optimal_e_neyman(4.0, 1.0, 1.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert optimal_e_ht(4.0, 1.0, 1.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_grid_never_beats_closed_form(self):
        grid = np.linspace(0.001, 0.999, 999)
        g = np.random.default_rng(0)
        for _ in range(100):
            c1, c0 = g.uniform(0.01, 10.0, size=2)
            mean1, mean0 = g.uniform(0.5, 4.0, size=2)
            var1, var0 = c1 * mean1**2, c0 * mean0**2
            e_opt = optimal_e_neyman(var1, mean1, var0, mean0)
            profile = lambda e: c1 / e + c0 / (1.0 - e)
            assert profile(e_opt) <= profile(grid).min() + 1e-9

    def test_boundary_is_clamped_into_open_interval(self):
        e = optimal_e_neyman(1.0, 1.0, 0.0, 1.0)  # no control dispersion
        assert 0.0 < e < 1.0 and e > 0.99
        e0 = optimal_e_neyman(0.0, 1.0, 1.0, 1.0)
        assert 0.0 < e0 < 1.0 and e0 < 0.01

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            optimal_e_neyman(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            optimal_e_neyman(-1.0, 1.0, 1.0, 1.0)


class TestAttachInterval:
    def test_degenerate_point_suppresses_interval(self):
        est = attach_interval(RRPoint(0.0, "neyman", degenerate=True), None, 10)
        assert est.v_hat is None and est.ci_lower is None and est.ci_upper is None
        assert est.se is None

    def test_interval_brackets_point(self):
        est = attach_interval(RRPoint(2.0, "neyman"), 4.0, 100)
        assert est.ci_lower <= 2.0 <= est.ci_upper
        log_est = attach_interval(RRPoint(2.0, "neyman"), 4.0, 100, ci_style="log_delta")
        assert 0.0 < log_est.ci_lower <= 2.0 <= log_est.ci_upper

    def test_negative_variance_raises(self):
        for ci_style in INTERVALS:
            with pytest.raises(ValidationError, match="variance must be non-negative"):
                attach_interval(RRPoint(2.0, "neyman"), -1e-12, 100, ci_style=ci_style)

    def test_katz_style_needs_dataset(self):
        with pytest.raises(ValidationError):
            attach_interval(RRPoint(2.0, "neyman"), 1.0, 10, ci_style="katz")

    def test_alpha_and_style_validation(self):
        with pytest.raises(ValidationError):
            attach_interval(RRPoint(2.0, "neyman"), 1.0, 10, alpha=1.0)
        with pytest.raises(ValidationError):
            attach_interval(RRPoint(2.0, "neyman"), 1.0, 10, ci_style="bootstrap")
