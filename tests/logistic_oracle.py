"""Reference specification of the logistic fit, kept as test oracles:

* ``expit``: ``riskratio.nuisance.expit`` before it became branch-free;
* ``expit_two_divisions``: its branch-free form before it took one division;
* ``fit_logistic_oracle``: ``fit_logistic_mle`` before its Newton loop kept
  the candidate its step-halving search accepted; this loop evaluates the
  accepted step again.  Its likelihood takes the library's expression,
  ``max(s, 0) + log1p(exp(-|s|)) - t s``.

The current functions must return the same floats, bit for bit.
"""

import numpy as np

from riskratio.errors import ConvergenceError, SeparationError, ValidationError
from riskratio.nuisance import (
    _SEPARATION_NORM,
    DEFAULT_CLIP,
    LOGISTIC_MAX_ITER,
    LOGISTIC_TOL,
    Logistic,
    PropensityModel,
)


def expit(s: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


def expit_two_divisions(s: np.ndarray) -> np.ndarray:
    """Branch-free logistic function, one division on each side of the where."""
    s = np.asarray(s, dtype=float)
    e = np.exp(-np.abs(s))
    d = 1.0 + e
    return np.where(s >= 0, 1.0 / d, e / d)


def _neg_log_likelihood(s: np.ndarray, t: np.ndarray) -> float:
    # log(1 + exp(s)) - t s, as the library takes it
    return float(np.mean(np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s))) - t * s))


def fit_logistic_oracle(
    x: np.ndarray,
    t: np.ndarray,
    tol: float = LOGISTIC_TOL,
    max_iter: int = LOGISTIC_MAX_ITER,
    clip: float = DEFAULT_CLIP,
) -> PropensityModel:
    """Maximum-likelihood logistic regression of ``t`` on ``(1, x)``.

    Newton-Raphson with step-halving on the negative log-likelihood.
    Convergence means the mean score ``(1/n) sum x~_i (t_i - p_i)`` has
    max-norm at most ``tol``.

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
    s = xt @ beta
    nll = _neg_log_likelihood(s, t)
    for _ in range(max_iter):
        prob = expit(s)
        score = xt.T @ (t - prob) / n
        if np.max(np.abs(score)) <= tol:
            # without a separating hyperplane some residual stays >= 0.5 at
            # every beta, so a vanishing score with uniformly tiny residuals
            # means the data are separated and no finite MLE exists
            if np.max(np.abs(t - prob)) < 1e-3:
                raise SeparationError(
                    "perfectly classified sample (coefficient max-norm "
                    f"{np.max(np.abs(beta)):.3e}); no finite MLE exists"
                )
            return PropensityModel(
                Logistic(float(beta[0]), beta[1:].copy()), clip=clip, n_features=p
            )
        w = prob * (1.0 - prob)
        hess = (xt * w[:, None]).T @ xt / n
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
            nll_cand = _neg_log_likelihood(s_cand, t)
            if nll_cand <= nll:
                break
            lam *= 0.5
        beta = beta + lam * step
        s = xt @ beta
        nll = _neg_log_likelihood(s, t)
        if np.max(np.abs(beta)) > _SEPARATION_NORM:
            raise SeparationError(
                f"diverging coefficients (max |beta| = {np.max(np.abs(beta)):.3e}); "
                "data are (quasi-)separated"
            )
    prob = expit(xt @ beta)
    score_norm = float(np.max(np.abs(xt.T @ (t - prob) / n)))
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations; score max-norm {score_norm:.3e}"
    )
