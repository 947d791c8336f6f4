"""Nuisance-function learners: propensity scores and outcome surfaces.

A model is a *surface*, a callable from an ``(n, p)`` covariate matrix to
``n`` raw predictions, plus a ``clip`` (:class:`PropensityModel`) or an
``arm`` (:class:`OutcomeModel`).  Surfaces and the learners that fit them:

* :class:`Constant`: one value on every row;
* :class:`Linear`: ``intercept + x @ coef``, fitted by ordinary least
  squares for outcome surfaces;
* :class:`Logistic`: ``expit`` of a linear index, fitted by logistic
  maximum likelihood for the propensity score (Newton-Raphson with
  step-halving; unpenalised by default, optional ridge rescue);
* :class:`~riskratio.trees.Forest`: bagged CART trees for both (see
  :mod:`riskratio.trees`);
* any other callable, such as a known oracle surface (kind ``function``).

Every propensity prediction is clipped to ``[clip, 1 - clip]`` so that no
downstream estimator divides by a value outside that band.

Models on the four named surfaces serialise to a JSON object
``{"model": <kind>, "target": "propensity" | "outcome", ...}`` with
``clip`` for a propensity and ``arm`` for an outcome; further fields per
kind:

* ``constant``: ``value``
* ``logistic`` (propensity only), ``ols`` (outcome only): ``intercept``,
  ``coef``
* ``forest``: ``config``, ``n_features``, ``trees`` (flat node arrays
  ``feature``, ``threshold``, ``left``, ``right``, ``value``)

``function`` models do not serialise.
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
    # exp(-|s|) never overflows; each side of the where gets the arithmetic
    # of the textbook branch for its sign
    e = np.exp(-np.abs(s))
    d = 1.0 + e
    return np.where(s >= 0, 1.0 / d, e / d)


@dataclass(frozen=True, eq=False)
class Constant:
    """Surface ``x -> value`` on every row."""

    value: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.full(x.shape[0], self.value, dtype=float)


@dataclass(frozen=True, eq=False)
class Linear:
    """Surface ``x -> intercept + x @ coef``."""

    intercept: float
    coef: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.intercept + x @ self.coef


class Logistic(Linear):
    """Surface ``x -> expit(intercept + x @ coef)``."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return expit(super().__call__(x))


# serialisation tag of each surface type; any other callable is a "function"
_KINDS = {Constant: "constant", Logistic: "logistic", Linear: "ols", Forest: "forest"}
_TARGET_KINDS = {
    "propensity": ("constant", "logistic", "forest"),
    "outcome": ("constant", "ols", "forest"),
}


@dataclass(frozen=True, eq=False)
class PropensityModel:
    """Treatment-probability surface whose predictions are clipped to ``[clip, 1 - clip]``."""

    surface: Callable[[np.ndarray], np.ndarray]
    clip: float = DEFAULT_CLIP
    n_features: int | None = None

    def __post_init__(self):
        if not 0.0 < self.clip <= 0.5:
            raise ValidationError("clip must lie in (0, 1/2]")

    @property
    def kind(self) -> str:
        return _KINDS.get(type(self.surface), "function")

    def predict(self, x: np.ndarray) -> np.ndarray:
        raw = np.asarray(self.surface(_as_matrix(x, self.n_features)), dtype=float)
        return np.clip(raw, self.clip, 1.0 - self.clip)


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """Outcome surface for one arm."""

    surface: Callable[[np.ndarray], np.ndarray]
    arm: int | None = None
    n_features: int | None = None

    @property
    def kind(self) -> str:
        return _KINDS.get(type(self.surface), "function")

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.surface(_as_matrix(x, self.n_features)), dtype=float)


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


def constant_propensity(value: float, clip: float = DEFAULT_CLIP) -> PropensityModel:
    if not 0.0 < value < 1.0:
        raise ValidationError("constant propensity must lie in (0, 1)")
    return PropensityModel(Constant(float(value)), clip=clip)


def constant_outcome(value: float, arm: int | None = None) -> OutcomeModel:
    return OutcomeModel(Constant(float(value)), arm=arm)


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
                Logistic(float(beta[0]), beta[1:].copy()), clip=clip, n_features=p
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
                beta, s, nll = cand, s_cand, nll_cand
                break
            lam *= 0.5
        else:  # all 40 halvings failed: step by lam = 2**-40 and evaluate there
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
    return OutcomeModel(Linear(float(coef[0]), coef[1:].copy()), arm=arm, n_features=p)


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
    return OutcomeModel(forest, arm=arm, n_features=x.shape[1])


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
    return PropensityModel(forest, clip=clip, n_features=x.shape[1])


def model_to_json(model: PropensityModel | OutcomeModel) -> str:
    """Serialise a model; ``function`` models are not serialisable."""
    kind = model.kind
    if kind == "function":
        raise ValidationError("function-backed models cannot be serialised")
    obj: dict = {"model": kind}
    if isinstance(model, PropensityModel):
        obj["target"] = "propensity"
        obj["clip"] = model.clip
    else:
        obj["target"] = "outcome"
        obj["arm"] = model.arm
    surface = model.surface
    if isinstance(surface, Constant):
        obj["value"] = surface.value
    elif isinstance(surface, Linear):
        obj["intercept"] = surface.intercept
        obj["coef"] = surface.coef.tolist()
    else:
        obj.update(forest_to_dict(surface))
    return json.dumps(obj)


def model_from_json(text: str) -> PropensityModel | OutcomeModel:
    obj = json.loads(text)
    kind = obj["model"]
    target = obj["target"]
    if kind not in _TARGET_KINDS.get(target, ()):
        raise ValidationError(f"cannot deserialise model kind {kind!r} for {target!r}")
    if kind == "constant":
        surface, n_features = Constant(obj["value"]), None
    elif kind == "forest":
        surface = forest_from_dict(obj)
        n_features = surface.n_features
    else:
        coef = np.asarray(obj["coef"], dtype=float)
        surface = (Logistic if kind == "logistic" else Linear)(obj["intercept"], coef)
        n_features = coef.size
    if target == "propensity":
        return PropensityModel(surface, clip=obj["clip"], n_features=n_features)
    return OutcomeModel(surface, arm=obj["arm"], n_features=n_features)
