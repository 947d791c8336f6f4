"""Plug-in asymptotic variances and confidence intervals.

All variance estimators target the constant ``V`` in
``sqrt(n) (estimate - truth) -> N(0, V)``, so the standard error is
``sqrt(V / n)``.  Arm moments are always normalised by the arm size: for
arm ``a`` with ``N_a`` rows, ``ybar_a`` is the arm mean, ``s2_a`` the arm
mean squared deviation, ``m2_a`` the arm raw second moment.  This is the
one convention under which the exact finite-sample identities hold:

* ``var_ht(d, n1/n) - var_neyman(d) == tau^2 / (e (1 - e))``;
* on binary outcomes ``var_neyman / n`` equals
  ``tau^2 (1/sum(ty) - 1/N1 + 1/sum((1-t)y) - 1/N0)``, which makes the
  log-delta interval coincide with the event-count (Katz-style) interval.

Three interval constructions are provided: symmetric normal (``wald``),
normal on the log scale (``log_delta``), and the event-count interval for
binary outcomes (``katz``).  The standard-normal quantile uses Acklam's
rational approximation refined by one Halley step (coefficients below),
accurate to well under 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ObservationalDataset
from .errors import ValidationError
from .estimators import CrossfitScores, RRPoint, _ratio_point, rr_ht, rr_neyman
from .nuisance import OutcomeModel, PropensityModel

FLAG_VARIANCE_CLAMPED = "variance-clamped-to-zero"
_EPS_OPEN_INTERVAL = 1e-12  # clamp for optimal-e boundary cases

# Acklam's inverse normal CDF coefficients (central and tail regions).
_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
      1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
      6.680131188771972e01, -1.328068155288572e01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
      -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
      3.754408661907416e00)
_P_LOW = 0.02425


def norm_quantile(p: float) -> float:
    """Standard normal quantile on (0, 1); exact 0 at p = 1/2."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile argument must lie in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    # one Halley step against the exact CDF via erfc
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


@dataclass(frozen=True)
class RREstimate:
    """Point estimate with variance and confidence interval.

    ``v_hat`` estimates the asymptotic variance ``V`` (standard error is
    ``sqrt(v_hat / n)``).  Degenerate points carry no variance or interval.
    """

    point: RRPoint
    v_hat: float | None
    ci_lower: float | None
    ci_upper: float | None
    alpha: float
    ci_style: str
    n: int
    flags: tuple[str, ...] = ()

    @property
    def se(self) -> float | None:
        if self.v_hat is None:
            return None
        return math.sqrt(self.v_hat / self.n)


def _check_arms(d: ObservationalDataset):
    if d.n1 == 0 or d.n0 == 0:
        raise ValidationError("variance needs both arms non-empty")


def _arm_moments(d: ObservationalDataset):
    """Arm outcomes and their non-zero means ``(y1, y0, ybar1, ybar0)``."""
    _check_arms(d)
    treated = d.t == 1
    y1, y0 = d.y[treated], d.y[~treated]
    ybar1, ybar0 = float(y1.mean()), float(y0.mean())
    if ybar1 == 0.0 or ybar0 == 0.0:
        raise ValidationError("variance undefined: an arm mean is zero")
    return y1, y0, ybar1, ybar0


def var_neyman(d: ObservationalDataset) -> float:
    """Variance of the arm-means ratio, empirical share plugged in."""
    y1, y0, ybar1, ybar0 = _arm_moments(d)
    e_hat = d.n1 / d.n
    s2_1 = float(np.mean((y1 - ybar1) ** 2))
    s2_0 = float(np.mean((y0 - ybar0) ** 2))
    tau = rr_neyman(d).value
    return tau * tau * (s2_1 / (e_hat * ybar1**2) + s2_0 / ((1.0 - e_hat) * ybar0**2))


def var_ht(d: ObservationalDataset, e: float) -> float:
    """Variance of the known-probability weighted ratio at probability ``e``."""
    if not 0.0 < e < 1.0:
        raise ValidationError(f"e must lie in (0, 1), got {e}")
    y1, y0, ybar1, ybar0 = _arm_moments(d)
    m2_1 = float(np.mean(y1**2))
    m2_0 = float(np.mean(y0**2))
    tau = rr_ht(d, e).value
    return tau * tau * (m2_1 / (e * ybar1**2) + m2_0 / ((1.0 - e) * ybar0**2))


def _ipw_moments(d: ObservationalDataset, e: np.ndarray):
    """``(t, den1, den0, v)`` of the propensity-weighted ratio at propensities ``e``.

    ``den1`` / ``den0`` are the weighted arm means, whose ratio is the point
    estimate, and ``v`` is the :func:`var_ipw` variance.
    """
    _check_arms(d)
    t = d.t.astype(float)
    num1 = float(np.mean(t * (d.y / e) ** 2))
    den1 = float(np.mean(t * d.y / e))
    num0 = float(np.mean((1.0 - t) * (d.y / (1.0 - e)) ** 2))
    den0 = float(np.mean((1.0 - t) * d.y / (1.0 - e)))
    if den1 == 0.0 or den0 == 0.0:
        raise ValidationError("variance undefined: a weighted arm mean is zero")
    tau = den1 / den0  # the rr_ipw point estimate
    return t, den1, den0, tau * tau * (num1 / den1**2 + num0 / den0**2)


def var_ipw(d: ObservationalDataset, e_hat: PropensityModel) -> float:
    """Variance of the propensity-weighted ratio.

    Second moments are weighted sample means of ``(y / e)^2`` over the
    treated arm (and the mirrored control version); the normalisers are
    the weighted arm means, the same quantities whose ratio is the point
    estimate.  With a constant propensity equal to the empirical treated
    share this reduces exactly to ``var_ht`` at that share.
    """
    return _ipw_moments(d, e_hat.predict(d.x))[3]


def var_ipw_mle_adjusted(d: ObservationalDataset, e_hat: PropensityModel) -> float:
    """Diagnostic variance for a propensity estimated by logistic MLE.

    Subtracts from ``var_ipw`` the quadratic form that estimating the
    logistic coefficients removes from the asymptotic variance.  The
    result can be negative in finite samples; it is reported raw and is
    not used for interval construction.
    """
    if e_hat.kind not in ("logistic", "constant"):
        raise ValidationError("adjustment applies to logistic-model propensities")
    e = e_hat.predict(d.x)
    t, den1, den0, v_ipw = _ipw_moments(d, e)
    xt = np.column_stack([np.ones(d.n), d.x])
    w = e * (1.0 - e)
    q = (xt * w[:, None]).T @ xt / d.n
    c10 = xt.T @ ((1.0 - t) * d.y * e / (1.0 - e)) / d.n
    c01 = xt.T @ (t * d.y * (1.0 - e) / e) / d.n
    v = c10 / den0 + c01 / den1
    tau = den1 / den0
    correction = tau * tau * float(v @ np.linalg.solve(q, v))
    return v_ipw - correction


def var_g(d: ObservationalDataset, mu0: OutcomeModel, mu1: OutcomeModel) -> float:
    """Variance of the outcome-surface ratio via per-row contrasts."""
    _, _, ybar1, ybar0 = _arm_moments(d)
    pred1, pred0 = mu1.predict(d.x), mu0.predict(d.x)
    delta = pred1 / ybar1 - pred0 / ybar0
    tau = _ratio_point(float(pred1.mean()), float(pred0.mean()), "g").value
    return tau * tau * float(np.mean((delta - delta.mean()) ** 2))


def var_os(scores: CrossfitScores, point: RRPoint) -> float:
    """Efficient variance from cross-fitted augmented scores.

    Shared by the one-step and augmented-ratio estimators (both have the
    same limit distribution); pass whichever point estimate is reported.
    """
    s1 = float(scores.gamma1.mean())
    s0 = float(scores.gamma0.mean())
    if s1 == 0.0 or s0 == 0.0:
        raise ValidationError("variance undefined: an augmented arm mean is zero")
    delta = scores.gamma1 / s1 - scores.gamma0 / s0
    return point.value**2 * float(np.mean((delta - delta.mean()) ** 2))


def wald_ci(point: float, v_hat: float, n: int, alpha: float = 0.05) -> tuple[float, float]:
    """Symmetric normal interval ``point +- z sqrt(v_hat / n)``."""
    if v_hat < 0.0:
        raise ValidationError("variance must be non-negative")
    z = norm_quantile(1.0 - alpha / 2.0) if alpha < 1.0 else 0.0
    half = z * math.sqrt(v_hat / n)
    return point - half, point + half


def log_delta_ci(point: float, v_hat: float, n: int, alpha: float = 0.05) -> tuple[float, float]:
    """Normal interval on the log scale, ``point * exp(+- z sqrt(v/(n point^2)))``."""
    if point <= 0.0:
        raise ValidationError("log-scale interval needs a positive point estimate")
    if v_hat < 0.0:
        raise ValidationError("variance must be non-negative")
    z = norm_quantile(1.0 - alpha / 2.0) if alpha < 1.0 else 0.0
    half = z * math.sqrt(v_hat / (n * point * point))
    return point * math.exp(-half), point * math.exp(half)


def katz_ci(d: ObservationalDataset, alpha: float = 0.05) -> tuple[float, float]:
    """Event-count interval for binary outcomes.

    ``tau * exp(+- z sigma)`` with
    ``sigma^2 = 1/sum(ty) - 1/N1 + 1/sum((1-t)y) - 1/N0``.
    """
    if not d.binary_outcome:
        raise ValidationError("event-count interval requires a binary outcome")
    _check_arms(d)
    t = d.t.astype(float)
    events1 = float(np.sum(t * d.y))
    events0 = float(np.sum((1.0 - t) * d.y))
    if events1 == 0.0 or events0 == 0.0:
        raise ValidationError("event-count interval needs events in both arms")
    sigma2 = 1.0 / events1 - 1.0 / d.n1 + 1.0 / events0 - 1.0 / d.n0
    sigma = math.sqrt(max(sigma2, 0.0))
    z = norm_quantile(1.0 - alpha / 2.0) if alpha < 1.0 else 0.0
    tau = rr_neyman(d).value
    return tau * math.exp(-z * sigma), tau * math.exp(z * sigma)


def optimal_e_neyman(var1: float, mean1: float, var0: float, mean0: float) -> float:
    """Assignment probability minimising the arm-means-ratio variance.

    With ``C_a = var_a / mean_a^2`` the minimiser of ``C1/e + C0/(1-e)``
    is 0.5 when ``C1 == C0`` and ``(C1 - sqrt(C1 C0)) / (C1 - C0)``
    otherwise, clamped into the open unit interval.
    """
    return _optimal_e(var1, mean1, var0, mean0)


def optimal_e_ht(m2_1: float, mean1: float, m2_0: float, mean0: float) -> float:
    """Same minimiser with raw second moments in place of variances."""
    return _optimal_e(m2_1, mean1, m2_0, mean0)


def _optimal_e(num1: float, mean1: float, num0: float, mean0: float) -> float:
    if mean1 <= 0.0 or mean0 <= 0.0:
        raise ValidationError("arm means must be positive")
    if num1 < 0.0 or num0 < 0.0:
        raise ValidationError("second moments must be non-negative")
    c1 = num1 / mean1**2
    c0 = num0 / mean0**2
    if c1 == c0:
        return 0.5
    e = (c1 - math.sqrt(c1 * c0)) / (c1 - c0)
    return min(max(e, _EPS_OPEN_INTERVAL), 1.0 - _EPS_OPEN_INTERVAL)


def attach_interval(
    point: RRPoint,
    v_hat: float | None,
    n: int,
    alpha: float = 0.05,
    ci_style: str = "wald",
    dataset: ObservationalDataset | None = None,
) -> RREstimate:
    """Bundle a point estimate with its variance and interval.

    Degenerate points get no variance or interval.  A (numerically) tiny
    negative variance is clamped to zero and flagged.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if ci_style not in ("wald", "log_delta", "katz"):
        raise ValidationError(f"unknown interval style {ci_style!r}")
    if point.degenerate:
        return RREstimate(point, None, None, None, alpha, ci_style, n)
    flags: tuple[str, ...] = ()
    if v_hat is not None and v_hat < 0.0:
        v_hat = 0.0
        flags = (FLAG_VARIANCE_CLAMPED,)
    if ci_style == "katz":
        if dataset is None:
            raise ValidationError("event-count interval needs the dataset")
        lower, upper = katz_ci(dataset, alpha)
    elif ci_style == "log_delta":
        lower, upper = log_delta_ci(point.value, v_hat, n, alpha)
    else:
        lower, upper = wald_ci(point.value, v_hat, n, alpha)
    return RREstimate(point, v_hat, lower, upper, alpha, ci_style, n, flags)
