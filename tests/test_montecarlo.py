import csv
import json

import numpy as np
import pytest

from helpers import random_dataset
from riskratio import (
    EstimatorConfig,
    ExperimentPlan,
    ValidationError,
    compare_estimators,
    run_experiment,
    run_single,
    write_report_csv,
    write_report_json,
)
from riskratio.montecarlo import MonteCarloReport, ReportCell


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

    def test_event_count_interval_rejected_for_continuous_outcomes(self):
        plan = small_plan(estimators=(EstimatorConfig(method="neyman", ci_style="katz"),))
        with pytest.raises(ValidationError, match="binary"):
            plan.validate()

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


def _report_with(cells):
    return MonteCarloReport(
        dgp_kind="linear_rct", noise_sd=1.0, master_seed=0, true_rr=2.0, cells=tuple(cells)
    )


def _cell(name, n, bias, rmse):
    return ReportCell(
        estimator=name,
        n=n,
        reps=10,
        n_failed=0,
        n_degenerate=0,
        coverage_denominator=10,
        mean_estimate=2.0 + bias,
        bias=bias,
        sd=0.1,
        rmse=rmse,
        coverage=0.9,
        mean_ci_length=0.5,
    )


class TestCompare:
    def test_equal_metrics_keep_input_order(self):
        report = _report_with([_cell("a", 100, 0.1, 0.2), _cell("b", 100, 0.1, 0.2)])
        rows = compare_estimators(report)
        assert [r.estimator for r in rows] == ["a", "b"]

    def test_dominated_estimator_ranks_last(self):
        report = _report_with(
            [_cell("worse", 100, 0.5, 0.9), _cell("better", 100, 0.01, 0.1)]
        )
        rows = compare_estimators(report)
        assert rows[0].estimator == "better" and rows[-1].estimator == "worse"
        assert [r.rank for r in rows] == [1, 2]

    def test_singleton(self):
        rows = compare_estimators(_report_with([_cell("only", 100, 0.2, 0.3)]))
        assert len(rows) == 1 and rows[0].rank == 1


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
