"""Replicated-experiment engine: bias, SD, coverage, and CI length.

An :class:`ExperimentPlan` names a data-generating process, sample sizes,
a replication count, and a list of estimator configurations.  Each
replication materialises every estimator's point estimate, variance, and
interval before any aggregation, so serial and parallel runs reduce to
identical reports and replications can be re-aggregated after the fact.

:data:`METHODS` maps each method to its stages ``(fit, point, variance)``;
:func:`run_single` runs them, then the interval, for every method.  The
stages look the estimators up in this module's globals when called, so
rebinding one here (as a per-layer tracer does) reaches every call.

Failure policy: a replication where one estimator's fit or point fails
(separation, a rank-deficient fold, ...) is dropped for that estimator
only and counted in ``n_failed``.  A valid point whose variance or
interval fails (a log-scale interval of a negative point, ...) keeps its
place in the moment statistics, carries no interval and a flag naming the
cause, and is left out of coverage and interval length.  Degenerate
results (zero-denominator fallback) keep their point value of 0 in the
moment statistics but are excluded from coverage and interval-length
averages, whose denominator is reported.
"""

from __future__ import annotations

import csv
import json
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .data import ObservationalDataset
from .dgp import KINDS, N_COVARIATES, DGPSpec, generate, oracle_models, true_rr
from .errors import EstimationError, ValidationError
from .estimators import (
    NuisanceRecipe,
    arm_functionals,
    crossfit_nuisances,
    fit_outcomes,
    fit_propensity,
    make_folds,
    rr_aipw,
    rr_g,
    rr_ht,
    rr_ipw,
    rr_neyman,
    rr_os,
)
from .inference import (
    RREstimate,
    attach_interval,
    check_alpha,
    check_ci_style,
    var_g,
    var_ht,
    var_ipw,
    var_neyman,
    var_os,
)
from .rng import derive_seed
from .trees import ForestConfig

_NUISANCES = ("parametric", "forest", "oracle")
_TRUTH_STREAM = 0x7271
_FOLD_STREAM = 0xF0
_FOREST_STREAM = 0xFE


def _crossfit(d: ObservationalDataset, cfg: EstimatorConfig, seed: int, recipe):
    folds = make_folds(d.n, cfg.k, derive_seed(seed, _FOLD_STREAM))
    return crossfit_nuisances(d, folds, recipe)


# fit(d, cfg, seed, recipe), point(d, cfg, nuisances), variance(d, cfg, nuisances, point);
# the nuisances of ipw and g are their models' predictions on d.x, made once
_Stages = namedtuple("_Stages", "fit point variance")

METHODS = {
    "neyman": _Stages(None, lambda d, c, e: rr_neyman(d), lambda d, c, e, p: var_neyman(d)),
    "ht": _Stages(None, lambda d, c, e: rr_ht(d, c.e), lambda d, c, e, p: var_ht(d, c.e)),
    "ipw": _Stages(
        lambda d, c, s, r: fit_propensity(d.x, d.t, r).predict(d.x),
        lambda d, c, e: rr_ipw(d, e),
        lambda d, c, e, p: var_ipw(d, e),
    ),
    "g": _Stages(
        lambda d, c, s, r: [mu.predict(d.x) for mu in fit_outcomes(d.x, d.t, d.y, r)],
        lambda d, c, e: rr_g(*e),
        lambda d, c, e, p: var_g(d, *e),
    ),
    "os": _Stages(
        _crossfit, lambda d, c, e: rr_os(arm_functionals(e)), lambda d, c, e, p: var_os(e, p)
    ),
    "aipw": _Stages(
        _crossfit, lambda d, c, e: rr_aipw(arm_functionals(e)), lambda d, c, e, p: var_os(e, p)
    ),
}


@dataclass(frozen=True)
class EstimatorConfig:
    """One estimator to run each replication.

    ``nuisance`` selects the learners for model-based methods:
    ``parametric`` (logistic MLE + OLS), ``forest`` (cross-fitted ``os``
    and ``aipw`` only), or ``oracle`` (the DGP's true nuisances).  ``e`` is
    the known assignment probability the ``ht`` method requires.
    """

    method: str
    nuisance: str = "parametric"
    k: int = 5
    ci_style: str = "wald"
    alpha: float = 0.05
    e: float | None = None
    eta: float = 0.01
    n_trees: int = 100

    @property
    def name(self) -> str:
        if self.method in METHODS and METHODS[self.method].fit is None:
            return self.method
        return f"{self.nuisance}_{self.method}"

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.nuisance not in _NUISANCES:
            raise ValidationError(f"unknown nuisance recipe {self.nuisance!r}")
        if self.nuisance == "forest" and METHODS[self.method].fit not in (None, _crossfit):
            raise ValidationError(
                f"{self.method} fits its nuisances on the full sample, where a forest has no "
                "valid plug-in; use os or aipw for forest nuisances"
            )
        if self.method == "ht" and (self.e is None or not 0.0 < self.e < 1.0):
            raise ValidationError("ht needs a known assignment probability e in (0, 1)")
        if METHODS[self.method].fit is _crossfit and self.k < 2:
            raise ValidationError("cross-fitted methods need k >= 2")
        if self.n_trees < 1:
            raise ValidationError("n_trees must be >= 1")
        check_ci_style(self.ci_style)
        check_alpha(self.alpha)
        if not 0.0 < self.eta <= 0.5:
            raise ValidationError("eta must lie in (0, 1/2]")


def validate_estimators(configs) -> None:
    if not configs:
        raise ValidationError("need at least one estimator")
    for cfg in configs:
        cfg.validate()
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ValidationError(f"estimator names must be unique, got {names}")


@dataclass(frozen=True)
class ExperimentPlan:
    dgp_kind: str
    sample_sizes: tuple[int, ...]
    reps: int
    estimators: tuple[EstimatorConfig, ...]
    noise_sd: float = 1.0
    master_seed: int = 0
    truth_draws: int = 10**6
    workers: int = 1

    def validate(self) -> None:
        if self.dgp_kind not in KINDS:
            raise ValidationError(f"unknown DGP kind {self.dgp_kind!r}")
        if self.reps < 1:
            raise ValidationError("reps must be >= 1")
        if not self.sample_sizes or any(n < 10 for n in self.sample_sizes):
            raise ValidationError("sample sizes must all be >= 10")
        if len(set(self.sample_sizes)) != len(self.sample_sizes):
            raise ValidationError(f"sample sizes must be distinct, got {self.sample_sizes}")
        validate_estimators(self.estimators)
        for cfg in self.estimators:
            if METHODS[cfg.method].fit is _crossfit and cfg.k > min(self.sample_sizes):
                raise ValidationError(
                    f"{cfg.name}: k={cfg.k} folds exceed the smallest sample size "
                    f"{min(self.sample_sizes)}"
                )
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")

    def check_parametric_rows(self) -> None:
        """Reject parametric nuisances that no replication can fit.

        OLS on one arm needs ``p + 1`` rows, so the smallest training set
        must hold ``2 (p + 1)``: ``n`` for ``ipw`` / ``g``, the smallest fold
        complement ``n - ceil(n / k)`` for ``os`` / ``aipw``.  The CLI calls
        this after :meth:`validate`; ``run_experiment`` does not, so such a
        plan still runs from Python and counts every replication as failed.
        """
        need = 2 * (N_COVARIATES + 1)
        n = min(self.sample_sizes)
        for cfg in self.estimators:
            if cfg.nuisance != "parametric" or METHODS[cfg.method].fit is None:
                continue
            rows = n - (n + cfg.k - 1) // cfg.k if METHODS[cfg.method].fit is _crossfit else n
            if rows < need:
                raise ValidationError(
                    f"{cfg.name}: parametric nuisances need {need} training rows "
                    f"({N_COVARIATES + 1} per arm), but sample size {n} leaves {rows}"
                )


@dataclass(frozen=True)
class ReportCell:
    estimator: str
    n: int
    reps: int
    n_failed: int
    n_degenerate: int
    coverage_denominator: int
    mean_estimate: float | None
    bias: float | None
    sd: float | None
    rmse: float | None
    coverage: float | None
    mean_ci_length: float | None


@dataclass(frozen=True)
class MonteCarloReport:
    dgp_kind: str
    noise_sd: float
    master_seed: int
    true_rr: float
    cells: tuple[ReportCell, ...]


def _recipe(cfg: EstimatorConfig, seed: int, oracle) -> NuisanceRecipe:
    """The learners ``cfg.nuisance`` names; forest seeds derive from ``seed``."""
    if cfg.nuisance == "oracle":
        if oracle is None:
            raise ValidationError("oracle nuisances are only available for generated samples")
        return NuisanceRecipe(propensity=oracle[0], outcome=oracle[1:], clip=cfg.eta)
    if cfg.nuisance == "forest":
        forest = ForestConfig(n_trees=cfg.n_trees, seed=derive_seed(seed, _FOREST_STREAM))
        return NuisanceRecipe(propensity="forest", outcome="forest", forest=forest, clip=cfg.eta)
    return NuisanceRecipe(clip=cfg.eta)


def run_single(d: ObservationalDataset, cfg: EstimatorConfig, seed: int, oracle=None) -> RREstimate:
    """Evaluate one estimator configuration on one dataset, stage by stage.

    Errors of the fit and point stages propagate.  A :class:`ValidationError`
    of the variance or interval stage keeps the point, and the variance if
    one was computed, with no interval and the flag
    ``"variance-failed: <message>"`` or ``"interval-failed: <message>"``.
    """
    cfg.validate()
    fit, point_of, variance_of = METHODS[cfg.method]
    nuisances = None if fit is None else fit(d, cfg, seed, _recipe(cfg, seed, oracle))
    point = point_of(d, cfg, nuisances)
    v, stage = None, "variance"
    try:
        if not point.degenerate:
            v = variance_of(d, cfg, nuisances, point)
        stage = "interval"
        return attach_interval(point, v, d.n, cfg.alpha, cfg.ci_style)
    except ValidationError as exc:
        flag = f"{stage}-failed: {exc}"
        return RREstimate(point, v, None, None, cfg.alpha, cfg.ci_style, d.n, (flag,))


def _one_replication(
    plan: ExperimentPlan, size_idx: int, rep_idx: int, oracle
) -> list[RREstimate | str]:
    """Each estimator's estimate on one sample, or its ``"name: error"`` text."""
    spec = DGPSpec(
        kind=plan.dgp_kind,
        n=plan.sample_sizes[size_idx],
        seed=derive_seed(plan.master_seed, size_idx, rep_idx),
        noise_sd=plan.noise_sd,
    )
    sample = generate(spec)
    out = []
    for cfg_idx, cfg in enumerate(plan.estimators):
        seed = derive_seed(plan.master_seed, size_idx, rep_idx, cfg_idx)
        try:
            out.append(run_single(sample.dataset, cfg, seed, oracle))
        except (ValidationError, EstimationError) as exc:
            out.append(f"{cfg.name}: {exc}")
    return out


def _aggregate(plan, truth, n, outcomes_by_cfg) -> list[ReportCell]:
    cells = []
    for cfg, outcomes in zip(plan.estimators, outcomes_by_cfg):
        ok = [o for o in outcomes if isinstance(o, RREstimate)]
        n_failed = len(outcomes) - len(ok)
        n_degenerate = sum(o.point.degenerate for o in ok)
        covered = [o for o in ok if not o.point.degenerate and o.ci_lower is not None]
        if ok:
            est = np.array([o.point.value for o in ok])
            mean_est = float(est.mean())
            bias = mean_est - truth
            sd = float(np.sqrt(np.mean((est - mean_est) ** 2)))
            rmse = float(np.sqrt(np.mean((est - truth) ** 2)))
        else:
            mean_est = bias = sd = rmse = None
        if covered:
            hits = [o.ci_lower <= truth <= o.ci_upper for o in covered]
            coverage = float(np.mean(hits))
            mean_len = float(np.mean([o.ci_upper - o.ci_lower for o in covered]))
        else:
            coverage = mean_len = None
        cells.append(
            ReportCell(
                estimator=cfg.name,
                n=n,
                reps=len(outcomes),
                n_failed=n_failed,
                n_degenerate=n_degenerate,
                coverage_denominator=len(covered),
                mean_estimate=mean_est,
                bias=bias,
                sd=sd,
                rmse=rmse,
                coverage=coverage,
                mean_ci_length=mean_len,
            )
        )
    return cells


def run_experiment(plan: ExperimentPlan) -> MonteCarloReport:
    """Run the plan; the report depends only on the plan (not on workers)."""
    plan.validate()
    truth = true_rr(
        plan.dgp_kind, plan.truth_draws, seed=derive_seed(plan.master_seed, _TRUTH_STREAM)
    )
    oracle = oracle_models(plan.dgp_kind)
    tasks = [(si, ri) for si in range(len(plan.sample_sizes)) for ri in range(plan.reps)]
    if plan.workers > 1:
        with ThreadPoolExecutor(max_workers=plan.workers) as pool:
            results = list(pool.map(lambda sr: _one_replication(plan, *sr, oracle), tasks))
    else:
        results = [_one_replication(plan, si, ri, oracle) for si, ri in tasks]
    cells: list[ReportCell] = []
    for si, n in enumerate(plan.sample_sizes):
        rows = [results[si * plan.reps + ri] for ri in range(plan.reps)]
        by_cfg = list(zip(*rows))
        cells.extend(_aggregate(plan, truth.value, n, by_cfg))
    return MonteCarloReport(
        dgp_kind=plan.dgp_kind,
        noise_sd=plan.noise_sd,
        master_seed=plan.master_seed,
        true_rr=truth.value,
        cells=tuple(cells),
    )


_METRIC_FIELDS = (
    "mean_estimate",
    "bias",
    "sd",
    "rmse",
    "coverage",
    "mean_ci_length",
    "reps",
    "n_failed",
    "n_degenerate",
    "coverage_denominator",
)


def report_to_json(report: MonteCarloReport) -> dict:
    return asdict(report)


def write_report_json(report: MonteCarloReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_json(report), fh, indent=2)


def write_report_csv(report: MonteCarloReport, path) -> None:
    """Long format, one metric per row: estimator,n,metric,value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator", "n", "metric", "value"])
        writer.writerow(["__truth__", "", "true_rr", repr(report.true_rr)])
        for cell in report.cells:
            for metric in _METRIC_FIELDS:
                value = getattr(cell, metric)
                writer.writerow(
                    [cell.estimator, cell.n, metric, "" if value is None else repr(value)]
                )

