"""Nuisance-function learners: propensity scores and outcome surfaces.

Available learners:

* logistic maximum likelihood for the propensity score (Newton-Raphson
  with step-halving; unpenalised by default, optional ridge rescue);
* ordinary least squares for outcome surfaces;
* bagged CART forests for both (see :mod:`riskratio.trees`).

Every propensity prediction is clipped to ``[clip, 1 - clip]`` so that no
downstream estimator divides by a value outside that band.

Fitted constant, logistic, and OLS models (and forests) serialise to a
JSON object ``{"model": <kind>, ...}``; field names per kind:

* ``constant``: ``value``, ``clip`` (propensity only)
* ``logistic``: ``intercept``, ``coef``, ``clip``
* ``ols``: ``intercept``, ``coef``, ``arm``
* ``forest``: ``config``, ``n_features``, ``trees`` (flat node arrays
  ``feature``, ``threshold``, ``left``, ``right``, ``value``), plus
  ``clip`` for classifiers and ``arm`` for regressors

``function`` models (used to wrap known oracle surfaces) do not serialise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConvergenceError,
    RankDeficiencyError,
    SeparationError,
    ValidationError,
)
from .trees import Forest, ForestConfig, fit_forest, forest_from_dict, forest_to_dict

DEFAULT_CLIP = 0.01
LOGISTIC_TOL = 1e-8
LOGISTIC_MAX_ITER = 100
_SEPARATION_NORM = 1e4


def expit(s: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


@dataclass(frozen=True, eq=False)
class PropensityModel:
    """Fitted (or fixed) treatment-probability model with prediction clipping."""

    kind: str  # constant | logistic | forest | function
    clip: float = DEFAULT_CLIP
    value: float | None = None
    intercept: float | None = None
    coef: np.ndarray | None = None
    forest: Forest | None = None
    func: Callable[[np.ndarray], np.ndarray] | None = None
    n_features: int | None = None

    def __post_init__(self):
        if not 0.0 < self.clip <= 0.5:
            raise ValidationError("clip must lie in (0, 1/2]")

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = _as_matrix(x, self.n_features)
        if self.kind == "constant":
            raw = np.full(x.shape[0], self.value, dtype=float)
        elif self.kind == "logistic":
            raw = expit(self.intercept + x @ self.coef)
        elif self.kind == "forest":
            raw = self.forest.predict(x)
        elif self.kind == "function":
            raw = np.asarray(self.func(x), dtype=float)
        else:
            raise ValidationError(f"unknown propensity model kind {self.kind!r}")
        return np.clip(raw, self.clip, 1.0 - self.clip)


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """Fitted (or fixed) outcome-surface model for one arm."""

    kind: str  # ols | forest | constant | function
    arm: int | None = None
    value: float | None = None
    intercept: float | None = None
    coef: np.ndarray | None = None
    forest: Forest | None = None
    func: Callable[[np.ndarray], np.ndarray] | None = None
    n_features: int | None = None

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = _as_matrix(x, self.n_features)
        if self.kind == "constant":
            return np.full(x.shape[0], self.value, dtype=float)
        if self.kind == "ols":
            return self.intercept + x @ self.coef
        if self.kind == "forest":
            return self.forest.predict(x)
        if self.kind == "function":
            return np.asarray(self.func(x), dtype=float)
        raise ValidationError(f"unknown outcome model kind {self.kind!r}")


def _as_matrix(x: np.ndarray, n_features: int | None) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2:
        raise ValidationError("covariates must be a row or a matrix")
    if n_features is not None and x.shape[1] != n_features:
        raise ValidationError(
            f"dimension mismatch: model expects {n_features} covariates, got {x.shape[1]}"
        )
    return x


def predict_propensity(model: PropensityModel, x: np.ndarray) -> np.ndarray | float:
    out = model.predict(x)
    return float(out[0]) if np.asarray(x).ndim == 1 else out


def predict_outcome(model: OutcomeModel, x: np.ndarray) -> np.ndarray | float:
    out = model.predict(x)
    return float(out[0]) if np.asarray(x).ndim == 1 else out


def constant_propensity(value: float, clip: float = DEFAULT_CLIP) -> PropensityModel:
    if not 0.0 < value < 1.0:
        raise ValidationError("constant propensity must lie in (0, 1)")
    return PropensityModel(kind="constant", clip=clip, value=float(value))


def constant_outcome(value: float, arm: int | None = None) -> OutcomeModel:
    return OutcomeModel(kind="constant", arm=arm, value=float(value))


def _neg_log_likelihood(s: np.ndarray, t: np.ndarray, beta, ridge: float) -> float:
    nll = float(np.mean(np.logaddexp(0.0, s) - t * s))
    if ridge > 0.0:
        nll += 0.5 * ridge * float(beta[1:] @ beta[1:])
    return nll


def fit_logistic_mle(
    x: np.ndarray,
    t: np.ndarray,
    tol: float = LOGISTIC_TOL,
    max_iter: int = LOGISTIC_MAX_ITER,
    ridge: float = 0.0,
    clip: float = DEFAULT_CLIP,
) -> PropensityModel:
    """Maximum-likelihood logistic regression of ``t`` on ``(1, x)``.

    Newton-Raphson with step-halving on the (optionally ridge-penalised)
    negative log-likelihood.  Convergence means the mean score
    ``(1/n) sum x~_i (t_i - p_i)`` has max-norm at most ``tol``.

    Raises:
        SeparationError: the coefficients diverge, so the score cannot
            vanish (perfect or quasi-perfect separation).
        ConvergenceError: ``max_iter`` exhausted; reports the final score norm.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    n, p = x.shape
    if n < p + 1:
        raise ValidationError(f"need at least p+1={p + 1} rows, got {n}")
    n1 = int(t.sum())
    if n1 == 0 or n1 == n:
        raise ValidationError("both treatment arms must be non-empty")
    xt = np.column_stack([np.ones(n), x])
    beta = np.zeros(p + 1)
    penalty = np.zeros(p + 1)
    if ridge > 0.0:
        penalty[1:] = ridge
    s = xt @ beta
    nll = _neg_log_likelihood(s, t, beta, ridge)
    for _ in range(max_iter):
        prob = expit(s)
        score = xt.T @ (t - prob) / n - penalty * beta
        if np.max(np.abs(score)) <= tol:
            # without a separating hyperplane some residual stays >= 0.5 at
            # every beta, so a vanishing score with uniformly tiny residuals
            # means the data are separated and no finite MLE exists
            if ridge == 0.0 and np.max(np.abs(t - prob)) < 1e-3:
                raise SeparationError(
                    "perfectly classified sample (coefficient max-norm "
                    f"{np.max(np.abs(beta)):.3e}); no finite MLE exists"
                )
            return PropensityModel(
                kind="logistic",
                clip=clip,
                intercept=float(beta[0]),
                coef=beta[1:].copy(),
                n_features=p,
            )
        w = prob * (1.0 - prob)
        hess = (xt * w[:, None]).T @ xt / n + np.diag(penalty)
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError:
            raise SeparationError(
                "singular information matrix with score norm "
                f"{np.max(np.abs(score)):.3e}; coefficient norm {np.max(np.abs(beta)):.3e}"
            ) from None
        lam = 1.0
        for _ in range(40):
            cand = beta + lam * step
            s_cand = xt @ cand
            nll_cand = _neg_log_likelihood(s_cand, t, cand, ridge)
            if nll_cand <= nll:
                break
            lam *= 0.5
        beta = beta + lam * step
        s = xt @ beta
        nll = _neg_log_likelihood(s, t, beta, ridge)
        if np.max(np.abs(beta)) > _SEPARATION_NORM:
            raise SeparationError(
                f"diverging coefficients (max |beta| = {np.max(np.abs(beta)):.3e}); "
                "data are (quasi-)separated"
            )
    prob = expit(xt @ beta)
    score_norm = float(np.max(np.abs(xt.T @ (t - prob) / n - penalty * beta)))
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations; score max-norm {score_norm:.3e}"
    )


def fit_ols(x: np.ndarray, y: np.ndarray, arm: int | None = None) -> OutcomeModel:
    """Least-squares fit of ``y`` on ``(1, x)``.

    Raises:
        RankDeficiencyError: the design matrix is column-rank deficient;
            the message names the first offending column (0 = intercept).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    if n < p + 1:
        raise ValidationError(f"need at least p+1={p + 1} rows, got {n}")
    xt = np.column_stack([np.ones(n), x])
    coef, _, rank, _ = np.linalg.lstsq(xt, y, rcond=None)
    if rank < p + 1:
        # locate the first dependent column only once the fit shows one exists
        prev = 0
        for j in range(p + 1):
            r = np.linalg.matrix_rank(xt[:, : j + 1])
            if r == prev:
                raise RankDeficiencyError(
                    f"design column {j} is linearly dependent on earlier columns"
                )
            prev = r
    return OutcomeModel(
        kind="ols",
        arm=arm,
        intercept=float(coef[0]),
        coef=coef[1:].copy(),
        n_features=p,
    )


def fit_forest_regressor(
    x: np.ndarray,
    y: np.ndarray,
    cfg: ForestConfig | None = None,
    arm: int | None = None,
) -> OutcomeModel:
    """Bagged CART regression forest; default mtry is ceil(p/3)."""
    x = np.asarray(x, dtype=float)
    cfg = cfg if cfg is not None else ForestConfig()
    forest = fit_forest(x, y, cfg, default_mtry=math.ceil(x.shape[1] / 3))
    return OutcomeModel(kind="forest", arm=arm, forest=forest, n_features=x.shape[1])


def fit_forest_classifier(
    x: np.ndarray,
    t: np.ndarray,
    cfg: ForestConfig | None = None,
    clip: float = DEFAULT_CLIP,
) -> PropensityModel:
    """Bagged CART classification forest; leaves predict the treated fraction.

    Default mtry is ceil(sqrt(p)); outputs are clipped like any propensity.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if not np.isin(t, (0.0, 1.0)).all():
        raise ValidationError("classification labels must lie in {0, 1}")
    cfg = cfg if cfg is not None else ForestConfig()
    forest = fit_forest(x, t, cfg, default_mtry=math.ceil(math.sqrt(x.shape[1])))
    return PropensityModel(kind="forest", clip=clip, forest=forest, n_features=x.shape[1])


def model_to_json(model: PropensityModel | OutcomeModel) -> str:
    """Serialise a fitted model; ``function`` models are not serialisable."""
    if model.kind == "function":
        raise ValidationError("function-backed models cannot be serialised")
    obj: dict = {"model": model.kind}
    if isinstance(model, PropensityModel):
        obj["target"] = "propensity"
        obj["clip"] = model.clip
    else:
        obj["target"] = "outcome"
        obj["arm"] = model.arm
    if model.kind == "constant":
        obj["value"] = model.value
    elif model.kind == "logistic":
        obj["intercept"] = model.intercept
        obj["coef"] = model.coef.tolist()
    elif model.kind == "ols":
        obj["intercept"] = model.intercept
        obj["coef"] = model.coef.tolist()
    elif model.kind == "forest":
        obj.update(forest_to_dict(model.forest))
    return json.dumps(obj)


def model_from_json(text: str) -> PropensityModel | OutcomeModel:
    obj = json.loads(text)
    kind = obj["model"]
    target = obj["target"]
    if target == "propensity":
        if kind == "constant":
            return PropensityModel(kind=kind, clip=obj["clip"], value=obj["value"])
        if kind == "logistic":
            coef = np.asarray(obj["coef"], dtype=float)
            return PropensityModel(
                kind=kind,
                clip=obj["clip"],
                intercept=obj["intercept"],
                coef=coef,
                n_features=coef.size,
            )
        if kind == "forest":
            forest = forest_from_dict(obj)
            return PropensityModel(
                kind=kind, clip=obj["clip"], forest=forest, n_features=forest.n_features
            )
    else:
        if kind == "constant":
            return OutcomeModel(kind=kind, arm=obj["arm"], value=obj["value"])
        if kind == "ols":
            coef = np.asarray(obj["coef"], dtype=float)
            return OutcomeModel(
                kind=kind,
                arm=obj["arm"],
                intercept=obj["intercept"],
                coef=coef,
                n_features=coef.size,
            )
        if kind == "forest":
            forest = forest_from_dict(obj)
            return OutcomeModel(
                kind=kind, arm=obj["arm"], forest=forest, n_features=forest.n_features
            )
    raise ValidationError(f"cannot deserialise model kind {kind!r} for {target!r}")
