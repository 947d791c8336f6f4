"""Acceptance suite: every criterion prints one PASS/FAIL line (run with -s).

Fast algebraic criteria run on seeded random datasets; the statistical
criteria run scaled-down replication studies through the Monte-Carlo
engine with fixed master seeds, so every number here is reproducible.
"""

import numpy as np
import pytest

from helpers import constant_propensity, random_dataset
from riskratio import (
    EstimatorConfig,
    ExperimentPlan,
    fit_logistic_mle,
    fit_ols,
    katz_ci,
    log_delta_ci,
    optimal_e_ht,
    optimal_e_neyman,
    rr_aipw,
    rr_ipw,
    rr_neyman,
    rr_os,
    run_experiment,
    softplus_mean_quadrature,
    true_rr,
    var_ht,
    var_neyman,
)
from riskratio.dgp import DGPSpec, generate
from riskratio.estimators import ArmFunctionals
from riskratio.nuisance import expit


def _check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_c01_ipw_collapses_to_arm_means_ratio():
    worst = 0.0
    for seed in range(1000):
        d = random_dataset(seed)
        model = constant_propensity(d.n1 / d.n, clip=1e-9)
        gap = abs(rr_ipw(d, model.predict(d.x)).value - rr_neyman(d).value)
        worst = max(worst, gap / max(1.0, abs(rr_neyman(d).value)))
    _check(
        "c01 weighted/arm-means collapse",
        worst <= 1e-12,
        f"worst relative gap {worst:.2e} over 1000 datasets (tol 1e-12)",
    )


def test_c02_known_probability_variance_identity():
    worst = 0.0
    for seed in range(1000):
        d = random_dataset(seed + 5000)
        e_hat = d.n1 / d.n
        gap = var_ht(d, e_hat) - var_neyman(d)
        expected = rr_neyman(d).value ** 2 / (e_hat * (1.0 - e_hat))
        worst = max(worst, abs(gap - expected) / max(1.0, abs(expected)))
    _check(
        "c02 variance identity",
        worst <= 1e-10,
        f"worst relative error {worst:.2e} over 1000 datasets (tol 1e-10)",
    )


def test_c03_event_count_interval_equals_log_scale_interval():
    worst = 0.0
    for seed in range(500):
        d = random_dataset(seed, n=50, binary=True)
        katz = katz_ci(d)
        delta = log_delta_ci(rr_neyman(d).value, var_neyman(d), d.n)
        worst = max(
            worst,
            abs(katz[0] - delta[0]) / max(1.0, katz[0]),
            abs(katz[1] - delta[1]) / max(1.0, katz[1]),
        )
    _check(
        "c03 binary interval equivalence",
        worst <= 1e-12,
        f"worst endpoint gap {worst:.2e} over 500 binary datasets (tol 1e-12)",
    )


def test_c04_one_step_equals_augmented_ratio_when_denominators_agree():
    g = np.random.default_rng(0)
    exact = True
    for _ in range(200):
        shared = g.uniform(0.2, 5.0)
        af = ArmFunctionals(
            tau_g_1=g.uniform(0.2, 5.0),
            tau_g_0=shared,
            tau_aipw_1=g.uniform(0.2, 5.0),
            tau_aipw_0=shared,
        )
        exact = exact and rr_os(af).value == rr_aipw(af).value
    _check("c04 one-step/augmented coincidence", exact, "exact equality on 200 constructed cases")


def test_c05_fitted_models_satisfy_their_estimating_equations():
    worst_score, worst_ols = 0.0, 0.0
    for seed, kind in enumerate(("lunceford", "wager_nl_logistic", "linear_rct")):
        for rep in range(3):
            d = generate(DGPSpec(kind=kind, n=2000, seed=100 * seed + rep)).dataset
            model = fit_logistic_mle(d.x, d.t)
            xt = np.column_stack([np.ones(d.n), d.x])
            prob = expit(model.surface.intercept + d.x @ model.surface.coef)
            worst_score = max(worst_score, np.max(np.abs(xt.T @ (d.t - prob) / d.n)))
            for arm in (0, 1):
                rows = d.t == arm
                ols = fit_ols(d.x[rows], d.y[rows])
                resid = d.y[rows] - (ols.surface.intercept + d.x[rows] @ ols.surface.coef)
                design = np.column_stack([np.ones(rows.sum()), d.x[rows]])
                scale = max(1.0, np.sqrt(np.mean(d.y[rows] ** 2)) * np.abs(design).max())
                worst_ols = max(
                    worst_ols, np.max(np.abs(design.T @ resid / rows.sum())) / scale
                )
    _check(
        "c05 estimating equations",
        worst_score <= 1e-8 and worst_ols <= 1e-8,
        f"max score norm {worst_score:.2e}, max scaled normal-equation residual "
        f"{worst_ols:.2e} (tol 1e-8)",
    )


def test_c06_closed_form_design_probability_beats_grid():
    grid = np.linspace(0.001, 0.999, 999)
    g = np.random.default_rng(1)
    worst = -np.inf
    for _ in range(100):
        mean1, mean0 = g.uniform(0.5, 4.0, size=2)
        var1, var0 = g.uniform(0.01, 10.0, size=2)
        m2_1 = var1 + mean1**2
        m2_0 = var0 + mean0**2
        for num1, num0, solver in (
            (var1, var0, optimal_e_neyman),
            (m2_1, m2_0, optimal_e_ht),
        ):
            c1, c0 = num1 / mean1**2, num0 / mean0**2
            e_opt = solver(num1, mean1, num0, mean0)
            best_grid = np.min(c1 / grid + c0 / (1.0 - grid))
            worst = max(worst, (c1 / e_opt + c0 / (1.0 - e_opt)) - best_grid)
    _check(
        "c06 design-probability optimality",
        worst <= 1e-9,
        f"worst closed-form excess over a 999-point grid {worst:.2e} (tol 1e-9)",
    )


@pytest.fixture(scope="module")
def lunceford_coverage_report():
    plan = ExperimentPlan(
        dgp_kind="lunceford",
        sample_sizes=(1000,),
        reps=300,
        estimators=(
            EstimatorConfig(method="aipw", nuisance="parametric", k=5),
            EstimatorConfig(method="neyman"),
        ),
        master_seed=20240 + 1,
    )
    return run_experiment(plan)


def test_c07_confounded_design_coverage(lunceford_coverage_report):
    cells = {c.estimator: c for c in lunceford_coverage_report.cells}
    aipw = cells["parametric_aipw"].coverage
    neyman = cells["neyman"].coverage
    _check(
        "c07 coverage at n=1000 (300 reps)",
        0.90 <= aipw <= 1.0 and neyman <= 0.20,
        f"augmented-ratio coverage {aipw:.3f} (need >= 0.90), "
        f"arm-means coverage {neyman:.3f} (need <= 0.20)",
    )


def test_c08_confounded_design_consistency():
    plan = ExperimentPlan(
        dgp_kind="lunceford",
        sample_sizes=(5000,),
        reps=200,
        estimators=(
            EstimatorConfig(method="g", nuisance="parametric"),
            EstimatorConfig(method="os", nuisance="parametric", k=5),
            EstimatorConfig(method="aipw", nuisance="parametric", k=5),
        ),
        master_seed=20240 + 2,
    )
    report = run_experiment(plan)
    tol = 0.05 * report.true_rr
    detail = ", ".join(
        f"{c.estimator} |bias| {abs(c.bias):.4f}" for c in report.cells
    )
    _check(
        "c08 consistency at n=5000 (200 reps)",
        all(abs(c.bias) <= tol for c in report.cells),
        f"{detail} (tol {tol:.4f})",
    )


def test_c09_misspecified_surfaces_doubly_robust_protection():
    plan = ExperimentPlan(
        dgp_kind="wager_nl_logistic",
        sample_sizes=(10_000,),
        reps=100,
        estimators=(
            EstimatorConfig(method="g", nuisance="parametric"),
            EstimatorConfig(method="aipw", nuisance="parametric", k=5),
        ),
        master_seed=20240 + 3,
    )
    report = run_experiment(plan)
    cells = {c.estimator: c for c in report.cells}
    bias_g = abs(cells["parametric_g"].bias)
    bias_aipw = abs(cells["parametric_aipw"].bias)
    _check(
        "c09 doubly-robust protection at n=10000 (100 reps)",
        bias_g >= 2.0 * bias_aipw,
        f"surface-only |bias| {bias_g:.4f} vs augmented |bias| {bias_aipw:.4f} "
        f"(need factor >= 2)",
    )


@pytest.fixture(scope="module")
def randomised_design_report():
    plan = ExperimentPlan(
        dgp_kind="linear_rct",
        sample_sizes=(2000,),
        reps=500,
        estimators=(
            EstimatorConfig(method="neyman"),
            EstimatorConfig(method="ht", e=0.5),
            EstimatorConfig(method="g", nuisance="parametric"),
        ),
        master_seed=20240 + 4,
    )
    return run_experiment(plan)


def test_c10_covariate_adjustment_reduces_spread(randomised_design_report):
    cells = {c.estimator: c for c in randomised_design_report.cells}
    _check(
        "c10 adjusted vs unadjusted spread (n=2000, 500 reps)",
        cells["parametric_g"].sd <= cells["neyman"].sd,
        f"adjusted SD {cells['parametric_g'].sd:.4f} <= arm-means SD "
        f"{cells['neyman'].sd:.4f}",
    )


def test_c11_estimated_share_beats_known_probability(randomised_design_report):
    cells = {c.estimator: c for c in randomised_design_report.cells}
    _check(
        "c11 arm-means vs known-probability spread (n=2000, 500 reps)",
        cells["neyman"].sd <= cells["ht"].sd,
        f"arm-means SD {cells['neyman'].sd:.4f} <= known-probability SD "
        f"{cells['ht'].sd:.4f}",
    )


def test_c12_truth_oracle_self_consistency():
    mc = true_rr("wager_nl_logistic", mc_draws=10**6, seed=824)
    quad = 1.0 / softplus_mean_quadrature(scale_sq=3.0) + 1.0
    gap = abs(mc.value - quad)
    _check(
        "c12 truth oracle agreement",
        gap <= 1e-3,
        f"Monte-Carlo {mc.value:.6f} vs quadrature {quad:.6f}, gap {gap:.2e} (tol 1e-3)",
    )
