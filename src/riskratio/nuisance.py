"""Nuisance-function learners: propensity scores and outcome surfaces.

A model is a *surface*, a callable from an ``(n, p)`` covariate matrix to
``n`` raw predictions, plus a ``clip`` (:class:`PropensityModel`) or an
``arm`` (:class:`OutcomeModel`).  Surfaces and the learners that fit them:

* :class:`Constant`: one value on every row;
* :class:`Linear`: ``intercept + x @ coef``, fitted by ordinary least
  squares for outcome surfaces;
* :class:`Logistic`: ``expit`` of a linear index, fitted by logistic
  maximum likelihood for the propensity score (Newton-Raphson with
  step-halving, unpenalised; separated samples raise).  One
  Newton loop, :func:`fit_logistic_stack`, solves a stack of problems of
  equal shape at once; :func:`fit_logistic_mle` is its one-problem call,
  and :func:`fit_logistic_subsets` stacks the fits of many row subsets
  (a cross-fit's fold complements) up to ``_BATCH_CELLS`` design cells,
  the cap of a forest batch, compressing each design straight from
  ``x``.  Each Newton step takes one ``exp``: ``exp(-|s|)`` of the
  candidate index gives its likelihood and, once accepted, the next
  step's probabilities through :func:`expit`;
* :class:`~riskratio.trees.Forest`: bagged CART trees for both (see
  :mod:`riskratio.trees`);
* any other callable, such as a known oracle surface.

Every propensity prediction is clipped to ``[clip, 1 - clip]`` so that no
downstream estimator divides by a value outside that band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .errors import (
    ConvergenceError,
    RankDeficiencyError,
    SeparationError,
    ValidationError,
)
from .trees import (
    _BATCH_CELLS,
    Forest,
    ForestConfig,
    fit_forest,
    fit_forests,
)

DEFAULT_CLIP = 0.01
LOGISTIC_TOL = 1e-8
LOGISTIC_MAX_ITER = 100
_SEPARATION_NORM = 1e4


def expit(s: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function.

    ``e`` is ``exp(-|s|)`` when the caller holds it already.
    """
    s = np.asarray(s, dtype=float)
    if e is None:
        e = np.exp(-np.abs(s))  # never overflows
    # 1 / (1 + e) for s >= 0 and e / (1 + e) below: the textbook branch of
    # each sign, in one division
    return np.where(s >= 0, 1.0, e) / (1.0 + e)


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


def _check_clip(clip: float) -> None:
    if not 0.0 < clip <= 0.5:
        raise ValidationError("clip must lie in (0, 1/2]")


@dataclass(frozen=True, eq=False)
class PropensityModel:
    """Treatment-probability surface whose predictions are clipped to ``[clip, 1 - clip]``."""

    surface: Callable[[np.ndarray], np.ndarray]
    clip: float = DEFAULT_CLIP
    n_features: int | None = None

    def __post_init__(self):
        _check_clip(self.clip)
        if isinstance(self.surface, Constant) and not 0.0 < self.surface.value < 1.0:
            raise ValidationError("constant propensity must lie in (0, 1)")

    def predict(self, x: np.ndarray) -> np.ndarray:
        raw = np.asarray(self.surface(_as_matrix(x, self.n_features)), dtype=float)
        return np.clip(raw, self.clip, 1.0 - self.clip)


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """Outcome surface for one arm."""

    surface: Callable[[np.ndarray], np.ndarray]
    arm: int | None = None
    n_features: int | None = None

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


def _neg_log_likelihood(s: np.ndarray, t: np.ndarray, e: np.ndarray):
    """Mean negative log-likelihood of each problem of a stack, one per row of ``s``.

    ``e`` is ``exp(-|s|)``; each term is ``log(1 + exp(s)) - t s``, taken
    as ``max(s, 0) + log1p(e) - t s``.
    """
    terms = np.log1p(e)
    terms += np.maximum(s, 0.0)
    terms -= t * s
    return np.add.reduce(terms, axis=-1) / terms.shape[-1]  # np.mean's sum, then its divide


def _design(x: np.ndarray) -> np.ndarray:
    """The design ``(1, x)`` of an ``(n, p)`` matrix, C-contiguous."""
    n, p = x.shape
    xt = np.empty((n, p + 1))
    xt[:, 0] = 1.0
    xt[:, 1:] = x
    return xt


def _evaluate(xt: np.ndarray, t: np.ndarray, beta: np.ndarray):
    """Linear indices ``s`` and ``exp(-|s|)``, both ``(K, n)``, and the
    likelihoods ``(K,)`` of a stack at ``beta``."""
    s = np.matmul(xt, beta[..., None])[..., 0]
    e = np.exp(-np.abs(s))
    nll = np.empty(len(beta))
    nll[:] = _neg_log_likelihood(s, t, e)
    return s, e, nll


def fit_logistic_mle(
    x: np.ndarray,
    t: np.ndarray,
    tol: float = LOGISTIC_TOL,
    max_iter: int = LOGISTIC_MAX_ITER,
    clip: float = DEFAULT_CLIP,
) -> PropensityModel:
    """Maximum-likelihood logistic regression of ``t`` on ``(1, x)``.

    Newton-Raphson with step-halving on the negative log-likelihood.
    Convergence means the mean score ``(1/n) sum x~_i (t_i - p_i)`` has
    max-norm at most ``tol``.  This is the one-problem call of
    :func:`fit_logistic_stack`.

    Raises:
        RankDeficiencyError: the design ``(1, x)`` is column-rank deficient;
            the message names the first offending column (0 = intercept).
        SeparationError: the coefficients diverge, so the score cannot
            vanish (perfect or quasi-perfect separation), or the converged
            linear index weakly separates the two arms.
        ConvergenceError: ``max_iter`` exhausted with the score max-norm
            above ``tol`` (above ``10 * tol`` if the last step could not
            lower the likelihood); reports the final score norm.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    xt = _design(x)
    (fit,) = fit_logistic_stack(xt[None], t[None], tol, max_iter, clip)
    if isinstance(fit, Exception):
        raise fit
    return fit


def fit_logistic_stack(
    xt: np.ndarray,
    t: np.ndarray,
    tol: float = LOGISTIC_TOL,
    max_iter: int = LOGISTIC_MAX_ITER,
    clip: float = DEFAULT_CLIP,
) -> list:
    """Solve a stack of logistic problems in one Newton loop.

    Problem ``i`` regresses ``t[i]`` on the design ``xt[i]``, whose first
    column is ones: ``xt`` is ``(K, n, p+1)`` and ``t`` is ``(K, n)``, both
    float and C-contiguous.  Each Newton step makes one stacked ``matmul``
    per product, one ``np.linalg.solve`` and one ``_neg_log_likelihood``
    call over the whole stack, whose shape never changes: a problem that
    finishes stays in place with a zero step.  The steps rejected in one
    iteration halve together, one ``_neg_log_likelihood`` call per halving.
    Each problem's coefficients, or its error, are bit for bit what it
    gets alone, on the same numpy and BLAS build.

    Returns one item per problem: its :class:`PropensityModel`, or the
    :class:`ValidationError`, :class:`RankDeficiencyError`,
    :class:`SeparationError` or :class:`ConvergenceError` that
    :func:`fit_logistic_mle` raises for it.
    """
    k, n, q = xt.shape
    if n < q:
        return [ValidationError(f"need at least p+1={q} rows, got {n}") for _ in range(k)]
    fits: list = [None] * k
    n1 = t.sum(axis=1).astype(np.int64)
    running = (n1 != 0) & (n1 != n)
    for i in np.flatnonzero(~running):
        fits[i] = ValidationError("both treatment arms must be non-empty")
    if not running.any():
        return fits
    # masking the frozen problems costs every step, so it starts only once a
    # problem has finished
    finished = not running.all()
    beta = np.zeros((k, q))
    s, e, nll = _evaluate(xt, t, beta)
    progress = np.ones(k, dtype=bool)
    for it in range(max_iter + 1):
        prob = expit(s, e)
        score = np.matmul(xt.transpose(0, 2, 1), (t - prob)[..., None])[..., 0] / n
        score_norm = np.abs(score).max(axis=1)
        # at the rounding floor an accepted step can leave the likelihood
        # unchanged, so the score stops shrinking just above tol; once the
        # iterations run out, such a stalled fit is accepted within 10 * tol
        done = score_norm <= tol
        if it == max_iter:
            done |= ~progress & (score_norm <= 10.0 * tol)
        if finished:
            done &= running
        if it == max_iter or done.any():
            ends = running if it == max_iter else done
            for j in np.flatnonzero(ends):
                if done[j]:
                    fits[j] = _converged_fit(xt[j], t[j], s[j], prob[j], beta[j], tol, clip)
                else:
                    fits[j] = ConvergenceError(
                        f"no convergence after {max_iter} iterations; "
                        f"score max-norm {score_norm[j]:.3e}"
                    )
            running &= ~ends
            if not running.any():
                break
            finished = True
        w = prob * (1.0 - prob)
        hess = np.matmul((xt * w[..., None]).transpose(0, 2, 1), xt) / n
        if finished:  # a zero step for each finished problem
            hess[~running], score[~running] = np.eye(q), 0.0
        step, singular = _newton_steps(hess, score)
        if singular:
            for j in singular:
                fits[j] = _singular_fit(xt[j], score_norm[j], beta[j])
            running[singular] = False
            if not running.any():
                break
            finished = True
        cand = beta + step
        s_cand, e_cand, nll_cand = _evaluate(xt, t, cand)
        rejected = ~(nll_cand <= nll)
        if finished:
            rejected &= running
        rows = np.flatnonzero(rejected)
        lam = 1.0
        while rows.size:
            # halve the rejected steps together, up to 40 tries in all; the
            # 40th, lam = 2**-40, is taken whatever its likelihood
            lam *= 0.5
            c = beta[rows] + lam * step[rows]
            sc, ec, nc = _evaluate(xt[rows], t[rows], c)
            ok = (nc <= nll[rows]) | (lam == 0.5**40)
            took = rows[ok]
            cand[took], s_cand[took], e_cand[took], nll_cand[took] = c[ok], sc[ok], ec[ok], nc[ok]
            rows = rows[~ok]
        progress = nll_cand < nll
        beta, s, e, nll = cand, s_cand, e_cand, nll_cand
        size = np.abs(beta).max(axis=1)
        diverged = size > _SEPARATION_NORM
        if finished:
            diverged &= running
        if diverged.any():
            for j in np.flatnonzero(diverged):
                fits[j] = SeparationError(
                    f"diverging coefficients (max |beta| = {size[j]:.3e}); "
                    "data are (quasi-)separated"
                )
            running &= ~diverged
            if not running.any():
                break
            finished = True
    return fits


def fit_logistic_subsets(
    x: np.ndarray, t: np.ndarray, subsets: list, clip: float = DEFAULT_CLIP
) -> list:
    """The logistic fit of ``t[r]`` on ``x[r]`` for each boolean row mask ``r``.

    Problems of equal row count are solved together by
    :func:`fit_logistic_stack`, in stacks of at most ``_BATCH_CELLS``
    design cells, the cap of a forest batch; a problem above the cap is
    solved alone.  Each item is a model or an error, as in
    :func:`fit_logistic_stack`.
    """
    q = x.shape[1] + 1
    sizes = [int(np.count_nonzero(r)) for r in subsets]
    fits: list = [None] * len(subsets)
    for n in dict.fromkeys(sizes):
        group = [i for i, size in enumerate(sizes) if size == n]
        per_stack = max(1, _BATCH_CELLS // max(1, n * q))
        for a in range(0, len(group), per_stack):
            stack = group[a : a + per_stack]
            xt = np.empty((len(stack), n, q))
            xt[:, :, 0] = 1.0
            ts = np.empty((len(stack), n))
            for j, i in enumerate(stack):
                np.compress(subsets[i], x, axis=0, out=xt[j, :, 1:])
                ts[j] = np.compress(subsets[i], t)
            for i, fit in zip(stack, fit_logistic_stack(xt, ts, clip=clip)):
                fits[i] = fit
    return fits


def _newton_steps(hess: np.ndarray, score: np.ndarray):
    """Newton steps of a stack and the positions whose information matrix
    is singular (their steps are zero)."""
    try:
        return np.linalg.solve(hess, score[..., None])[..., 0], []
    except np.linalg.LinAlgError:
        if len(hess) == 1:
            return np.zeros_like(score), [0]
    # one singular matrix fails the whole stacked solve: solve each alone
    step = np.zeros_like(score)
    singular = []
    for j in range(len(hess)):
        try:
            step[j] = np.linalg.solve(hess[j : j + 1], score[j : j + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            singular.append(j)
    return step, singular


def _singular_fit(xt: np.ndarray, score_norm: float, beta: np.ndarray) -> Exception:
    """The error of a fit whose information matrix is singular."""
    return _rank_deficiency(xt) or SeparationError(
        f"singular information matrix with score norm {score_norm:.3e}; "
        f"coefficient norm {np.max(np.abs(beta)):.3e}"
    )


def _converged_fit(xt, t, s, prob, beta, tol, clip):
    """The model of a converged fit, or the error that rules it out."""
    # without a separating hyperplane some residual stays >= 0.5 at every
    # beta, so a vanishing score with uniformly tiny residuals means the
    # data are separated and no finite MLE exists
    if np.max(np.abs(t - prob)) < 1e-3:
        return SeparationError(
            "perfectly classified sample (coefficient max-norm "
            f"{np.max(np.abs(beta)):.3e}); no finite MLE exists"
        )
    # a non-zero slope whose index puts every row on its own arm's side (up
    # to rounding) certifies quasi-complete separation: the score can fall
    # below tol while the MLE lies at infinity (Albert & Anderson 1984)
    if (beta[1:] != 0.0).any() and ((2.0 * t - 1.0) * s >= -tol * np.max(np.abs(s))).all():
        return SeparationError(
            "quasi-separated sample: the fitted index splits the arms "
            f"(coefficient max-norm {np.max(np.abs(beta)):.3e}); no finite MLE exists"
        )
    try:
        return PropensityModel(
            Logistic(float(beta[0]), beta[1:].copy()), clip=clip, n_features=xt.shape[1] - 1
        )
    except ValidationError as exc:
        return exc


def _rank_deficiency(xt: np.ndarray) -> RankDeficiencyError | None:
    """The error naming the first column of ``xt`` that is linearly
    dependent on earlier ones, or ``None`` if there is none."""
    prev = 0
    for j in range(xt.shape[1]):
        r = np.linalg.matrix_rank(xt[:, : j + 1])
        if r == prev:
            return RankDeficiencyError(
                f"design column {j} is linearly dependent on earlier columns"
            )
        prev = r
    return None


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
    xt = _design(x)
    coef, _, rank, _ = np.linalg.lstsq(xt, y, rcond=None)
    # locate the first dependent column only once the fit shows one exists
    error = _rank_deficiency(xt) if rank < p + 1 else None
    if error is not None:
        raise error
    return OutcomeModel(Linear(float(coef[0]), coef[1:].copy()), arm=arm, n_features=p)


@dataclass(frozen=True, eq=False)
class ForestFit:
    """A forest learner's checked inputs, not yet grown.

    ``job`` is one ``(x, y, cfg, mtry)`` job of
    :func:`~riskratio.trees.fit_forests`; ``model`` turns the forest grown
    from it into the learner's model.
    """

    job: tuple[np.ndarray, np.ndarray, ForestConfig, int]
    model: Callable[[Forest], PropensityModel | OutcomeModel]


def forest_regressor_fit(
    x: np.ndarray,
    y: np.ndarray,
    cfg: ForestConfig | None = None,
    arm: int | None = None,
) -> ForestFit:
    """The :class:`ForestFit` of :func:`fit_forest_regressor`: ``mtry = ceil(p/3)``."""
    x = np.asarray(x, dtype=float)
    cfg = cfg if cfg is not None else ForestConfig()
    job = (x, y, cfg, math.ceil(x.shape[1] / 3))
    return ForestFit(job, partial(OutcomeModel, arm=arm, n_features=x.shape[1]))


def forest_classifier_fit(
    x: np.ndarray,
    t: np.ndarray,
    cfg: ForestConfig | None = None,
    clip: float = DEFAULT_CLIP,
) -> ForestFit:
    """The :class:`ForestFit` of :func:`fit_forest_classifier`: ``mtry = ceil(sqrt(p))``.

    ``clip`` is checked here, before any tree grows.
    """
    _check_clip(clip)
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if not np.isin(t, (0.0, 1.0)).all():
        raise ValidationError("classification labels must lie in {0, 1}")
    cfg = cfg if cfg is not None else ForestConfig()
    job = (x, t, cfg, math.ceil(math.sqrt(x.shape[1])))
    return ForestFit(job, partial(PropensityModel, clip=clip, n_features=x.shape[1]))


def grow_forest_fits(fits: list) -> Iterator:
    """The models of ``fits`` in order, each :class:`ForestFit` grown into its model.

    Their forests are one :func:`~riskratio.trees.fit_forests` stream: every
    forest job is checked here, before any tree grows, and each batch grows
    when its first forest's model is requested.  Any other item is a model
    already and is passed through.
    """
    forests = fit_forests([f.job for f in fits if isinstance(f, ForestFit)])
    return (f.model(next(forests)) if isinstance(f, ForestFit) else f for f in fits)


def fit_forest_regressor(
    x: np.ndarray,
    y: np.ndarray,
    cfg: ForestConfig | None = None,
    arm: int | None = None,
) -> OutcomeModel:
    """Bagged CART regression forest; mtry is ceil(p/3)."""
    fit = forest_regressor_fit(x, y, cfg, arm)
    return fit.model(fit_forest(*fit.job))


def fit_forest_classifier(
    x: np.ndarray,
    t: np.ndarray,
    cfg: ForestConfig | None = None,
    clip: float = DEFAULT_CLIP,
) -> PropensityModel:
    """Bagged CART classification forest; leaves predict the treated fraction.

    mtry is ceil(sqrt(p)); outputs are clipped like any propensity.
    """
    fit = forest_classifier_fit(x, t, cfg, clip)
    return fit.model(fit_forest(*fit.job))
