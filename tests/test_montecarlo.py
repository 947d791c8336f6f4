import csv
import json
from collections import Counter

import numpy as np
import pytest

from helpers import dataset_from, random_dataset
from riskratio import (
    EstimatorConfig,
    ExperimentPlan,
    RRPoint,
    ValidationError,
    attach_interval,
    katz_ci,
    run_experiment,
    run_single,
    write_report_csv,
    write_report_json,
)
from riskratio import montecarlo
from riskratio.dgp import DGPSpec, generate
from riskratio.nuisance import OutcomeModel, PropensityModel


def small_plan(**overrides):
    base = dict(
        dgp_kind="linear_rct",
        sample_sizes=(80,),
        reps=5,
        estimators=(
            EstimatorConfig(method="neyman"),
            EstimatorConfig(method="g", nuisance="oracle"),
        ),
        master_seed=3,
        truth_draws=10**5,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


class TestRunSingle:
    def test_neyman_estimate_on_plain_dataset(self):
        d = random_dataset(0, n=60)
        est = run_single(d, EstimatorConfig(method="neyman"), seed=1)
        assert est.ci_lower < est.point.value < est.ci_upper
        assert est.v_hat > 0 and est.n == 60

    def test_oracle_requires_generated_context(self):
        d = random_dataset(1, n=60)
        with pytest.raises(ValidationError):
            run_single(d, EstimatorConfig(method="g", nuisance="oracle"), seed=1)

    def test_ht_requires_e(self):
        d = random_dataset(2, n=60)
        with pytest.raises(ValidationError):
            run_single(d, EstimatorConfig(method="ht"), seed=1)

    def test_failed_variance_keeps_the_point(self):
        # the treated mean is 0: a valid ratio of 0 whose variance divides by it
        d = dataset_from(t=[1, 1, 0, 0], y=[1.0, -1.0, 2.0, 2.0])
        est = run_single(d, EstimatorConfig(method="neyman"), seed=1)
        assert est.point.value == 0.0 and not est.point.degenerate
        assert est.v_hat is None and est.ci_lower is None and est.ci_upper is None
        assert est.flags == ("variance-failed: variance undefined: an arm mean is zero",)

    def test_failed_interval_keeps_the_point_and_variance(self):
        d = dataset_from(t=[1, 1, 0, 0], y=[2.0, 4.0, -1.0, -3.0])
        est = run_single(d, EstimatorConfig(method="neyman", ci_style="log_delta"), seed=1)
        assert est.point.value == -1.5
        assert est.v_hat > 0.0 and est.ci_lower is None and est.ci_upper is None
        message = "log-scale interval needs a positive point estimate"
        assert est.flags == (f"interval-failed: {message}",)

    def test_neyman_log_delta_is_the_event_count_interval(self):
        # the crude ratio's event-count interval needs no style of its own
        cfg = EstimatorConfig(method="neyman", ci_style="log_delta")
        for seed in range(500):
            d = random_dataset(seed, n=50, binary=True)
            est = run_single(d, cfg, seed=1)
            lower, upper = katz_ci(d)
            assert est.ci_lower == pytest.approx(lower, rel=1e-12)
            assert est.ci_upper == pytest.approx(upper, rel=1e-12)


# the functions run_single calls through riskratio.montecarlo's globals, and
# the ones each method must call exactly once; a per-layer tracer rebinds
# exactly these attributes, so a call that bypasses them escapes its counts
_TRACED = (
    "rr_neyman", "rr_ht", "rr_ipw", "rr_g", "rr_os", "rr_aipw",
    "var_neyman", "var_ht", "var_ipw", "var_g", "var_os",
    "arm_functionals", "fit_propensity", "fit_outcomes", "crossfit_nuisances", "make_folds",
)
_CROSSFIT = {"make_folds", "crossfit_nuisances", "arm_functionals", "var_os"}
_EXPECTED_CALLS = {
    "neyman": {"rr_neyman", "var_neyman"},
    "ht": {"rr_ht", "var_ht"},
    "ipw": {"fit_propensity", "rr_ipw", "var_ipw"},
    "g": {"fit_outcomes", "rr_g", "var_g"},
    "os": _CROSSFIT | {"rr_os"},
    "aipw": _CROSSFIT | {"rr_aipw"},
}


@pytest.mark.parametrize("method", sorted(_EXPECTED_CALLS))
def test_run_single_calls_through_module_globals(monkeypatch, method):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in _TRACED:
        monkeypatch.setattr(montecarlo, name, counting(name, getattr(montecarlo, name)))
    d = generate(DGPSpec(kind="lunceford", n=200, seed=4)).dataset
    run_single(d, EstimatorConfig(method=method, k=2, e=0.5), seed=1)
    assert calls == Counter(_EXPECTED_CALLS[method])


@pytest.mark.parametrize("method, predictions", [("ipw", 1), ("g", 2)])
def test_full_sample_models_predict_once(monkeypatch, method, predictions):
    # the fit stage predicts on d.x once; the point and the variance read those arrays
    calls = Counter()
    for cls in (PropensityModel, OutcomeModel):

        def counting(self, x, predict=cls.predict):
            calls[method] += 1
            return predict(self, x)

        monkeypatch.setattr(cls, "predict", counting)
    d = generate(DGPSpec(kind="lunceford", n=200, seed=4)).dataset
    run_single(d, EstimatorConfig(method=method), seed=1)
    assert calls[method] == predictions


class TestRunExperiment:
    def test_zero_noise_oracle_smoke(self):
        plan = small_plan(
            reps=1,
            noise_sd=0.0,
            estimators=(EstimatorConfig(method="g", nuisance="oracle"),),
        )
        report = run_experiment(plan)
        assert report.true_rr == 2.0
        (cell,) = report.cells
        assert cell.n_degenerate == 0 and cell.n_failed == 0
        assert cell.reps == 1 and np.isfinite(cell.bias)

    def test_identical_plans_give_identical_reports(self):
        a = run_experiment(small_plan())
        b = run_experiment(small_plan())
        assert a == b
        c = run_experiment(small_plan(master_seed=4))
        assert c != a

    def test_parallel_equals_serial(self):
        serial = run_experiment(small_plan(reps=8, workers=1))
        parallel = run_experiment(small_plan(reps=8, workers=4))
        assert serial == parallel

    def test_rmse_decomposition(self):
        report = run_experiment(small_plan(reps=20))
        for cell in report.cells:
            assert cell.rmse**2 == pytest.approx(cell.bias**2 + cell.sd**2, rel=1e-9)
            assert 0.0 <= cell.coverage <= 1.0
            assert cell.coverage_denominator == cell.reps - cell.n_failed - cell.n_degenerate

    def test_points_whose_intervals_fail_enter_the_moments(self):
        # lunceford's arm-means ratio is negative in every replication here, so
        # no log-scale interval exists; the points still count, with no coverage
        plan = small_plan(
            dgp_kind="lunceford",
            sample_sizes=(500,),
            estimators=(EstimatorConfig(method="neyman", ci_style="log_delta"),),
        )
        (cell,) = run_experiment(plan).cells
        assert cell.n_failed == 0 and cell.coverage_denominator == 0
        assert cell.mean_estimate < 0.0 and cell.sd > 0.0
        assert cell.coverage is None and cell.mean_ci_length is None

    def test_failures_are_contained_per_estimator(self):
        # OLS needs p+1 = 7 rows per arm; at n = 12 that fails every time,
        # while the arm-means estimator keeps succeeding
        plan = small_plan(
            sample_sizes=(12,),
            reps=4,
            estimators=(
                EstimatorConfig(method="neyman"),
                EstimatorConfig(method="g", nuisance="parametric"),
            ),
        )
        report = run_experiment(plan)
        by_name = {c.estimator: c for c in report.cells}
        assert by_name["neyman"].n_failed == 0
        assert by_name["parametric_g"].n_failed == 4
        assert by_name["parametric_g"].mean_estimate is None


class TestPlanValidation:
    def test_bad_plans_rejected(self):
        with pytest.raises(ValidationError):
            small_plan(reps=0).validate()
        with pytest.raises(ValidationError):
            small_plan(sample_sizes=(5,)).validate()
        with pytest.raises(ValidationError):
            small_plan(estimators=()).validate()
        with pytest.raises(ValidationError):
            small_plan(dgp_kind="nope").validate()
        with pytest.raises(ValidationError):
            small_plan(workers=0).validate()
        with pytest.raises(ValidationError, match="distinct"):
            small_plan(sample_sizes=(60, 80, 60)).validate()

    def test_event_count_style_is_an_unknown_interval_style(self):
        plan = small_plan(estimators=(EstimatorConfig(method="neyman", ci_style="katz"),))
        with pytest.raises(ValidationError, match="unknown interval style"):
            plan.validate()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(method="os", k=1), "k >= 2"),
            (dict(method="aipw", k=1), "k >= 2"),
            (dict(alpha=0.0), "alpha"),
            (dict(alpha=1.0), "alpha"),
            (dict(eta=0.0), "eta"),
            (dict(eta=0.6), "eta"),
        ],
    )
    def test_bad_estimator_configs_rejected(self, overrides, message):
        cfg = EstimatorConfig(**{"method": "neyman", **overrides})
        with pytest.raises(ValidationError, match=message):
            cfg.validate()

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_alpha_check_names_the_value_as_attach_interval_does(self, alpha):
        with pytest.raises(ValidationError) as by_config:
            EstimatorConfig(method="neyman", alpha=alpha).validate()
        with pytest.raises(ValidationError) as by_interval:
            attach_interval(RRPoint(2.0, "neyman"), 1.0, 10, alpha=alpha)
        assert str(by_config.value) == str(by_interval.value)
        assert str(by_config.value) == f"alpha must lie in (0, 1), got {alpha}"

    def test_unknown_method_is_validation_error(self):
        plan = small_plan(estimators=(EstimatorConfig(method="bogus"),))
        with pytest.raises(ValidationError, match="unknown method"):
            plan.validate()

    def test_unknown_nuisance_rejected_for_every_method(self):
        for method in montecarlo.METHODS:
            cfg = EstimatorConfig(method=method, nuisance="bogus", e=0.5)
            with pytest.raises(ValidationError, match="nuisance"):
                cfg.validate()

    def test_ht_needs_probability(self):
        plan = small_plan(estimators=(EstimatorConfig(method="ht"),))
        with pytest.raises(ValidationError):
            plan.validate()

    def test_duplicate_labels_rejected(self):
        plan = small_plan(
            estimators=(EstimatorConfig(method="neyman"), EstimatorConfig(method="neyman"))
        )
        with pytest.raises(ValidationError, match="unique"):
            plan.validate()

    @pytest.mark.parametrize(
        "method, k, n_ok",
        [("g", 2, 14), ("ipw", 2, 14), ("os", 2, 28), ("aipw", 5, 18)],
    )
    def test_parametric_plans_need_p_plus_one_rows_per_arm(self, method, k, n_ok):
        # six covariates: the smallest training set must hold 2 * 7 = 14 rows;
        # it is n for ipw / g and n - ceil(n / k) for os / aipw
        def plan(n):
            cfg = EstimatorConfig(method=method, nuisance="parametric", k=k)
            return small_plan(sample_sizes=(n, 500), estimators=(cfg,))

        plan(n_ok).check_parametric_rows()
        with pytest.raises(ValidationError, match="training rows"):
            plan(n_ok - 1).check_parametric_rows()

    def test_row_check_ignores_non_parametric_nuisances(self):
        small_plan(sample_sizes=(10,)).check_parametric_rows()


class TestSerialization:
    def test_csv_long_format(self, tmp_path):
        report = run_experiment(small_plan())
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["estimator", "n", "metric", "value"]
        assert rows[1][2] == "true_rr" and float(rows[1][3]) == report.true_rr
        named = {(r[0], r[2]) for r in rows[2:]}
        assert ("neyman", "coverage") in named
        assert ("oracle_g", "bias") in named

    def test_json_round_trip_of_cells(self, tmp_path):
        report = run_experiment(small_plan())
        path = tmp_path / "report.json"
        write_report_json(report, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["true_rr"] == report.true_rr
        assert len(data["cells"]) == len(report.cells)
        first = report.cells[0]
        assert data["cells"][0]["estimator"] == first.estimator
        assert data["cells"][0]["bias"] == first.bias
