"""Synthetic data-generating processes with known risk ratios.

Every generator follows the same template: draw covariates ``X``, a
treatment ``T ~ Bernoulli(e(X))``, and potential outcomes

    y0 = b(X) + eps0,   y1 = m(X) + b(X) + eps1,

with independent ``eps ~ N(0, noise_sd^2)`` per unit and arm, observing
``y = t*y1 + (1-t)*y0`` row-wise.  The true risk ratio is
``E[m(X)] / E[b(X)] + 1``.

Catalogue (all with six covariate columns):

================  ==========================  =====================================
kind              covariates                  design
================  ==========================  =====================================
linear_rct        N(0, I6)                    linear arms, e = 0.5, true RR = 2
nonlinear_rct     Unif(0,1)^6                 non-linear arms, e = 0.5
lunceford         Gaussian mixture + binary   linear arms, logistic e (3 confounders)
wager_nl_logistic N(0, I6)                    softplus baseline, logistic e
wager_nl_nonlog   Unif(0,1)^6                 non-linear arms, clipped-sine e
================  ==========================  =====================================

The ``lunceford`` covariate matrix stacks the three confounders first and
the three outcome-only covariates last; only the first three enter the
propensity.  Draw order per kind is fixed: covariates from stream 0 of the
spec seed, treatment uniforms from stream 1, control noise from stream 2,
treated noise from stream 3, so identical specs give identical samples.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .data import ObservationalDataset, write_csv
from .errors import ValidationError
from .nuisance import Linear, Logistic, OutcomeModel, PropensityModel, constant_propensity, expit
from .rng import CounterRng, derive_seed

KINDS = (
    "linear_rct",
    "nonlinear_rct",
    "lunceford",
    "wager_nl_logistic",
    "wager_nl_nonlogistic",
)

N_COVARIATES = 6  # every design draws six covariates

ORACLE_CLIP = 1e-6  # oracle propensities are essentially unclipped

_STREAM_COVARIATES = 0
_STREAM_TREATMENT = 1
_STREAM_NOISE_0 = 2
_STREAM_NOISE_1 = 3

# linear_rct arm coefficients (intercepts 6 and 12, so the true RR is 2)
_LIN_C0, _LIN_C1 = 6.0, 12.0
_LIN_BETA0 = np.array([3.0, -7.0, 1.0, 4.0, -2.0, 2.0])
_LIN_BETA1 = np.array([2.0, -5.0, 2.0, 8.0, -2.0, 8.0])

# lunceford design: baseline coefficients over (X1, X2, X3, V1, V2, V3),
# logistic propensity over the confounders (X1, X2, X3) only
_LUN_BETA_B = np.array([-1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
_LUN_BETA_E = np.array([-0.6, 0.6, -0.6])
_LUN_EFFECT = 2.0
_LUN_MEAN1 = np.array([1.0, 1.0, -1.0, -1.0])  # (X1, V1, X2, V2) given X3 = 1
_LUN_COV = np.array(
    [
        [1.0, 0.5, -0.5, -0.5],
        [0.5, 1.0, -0.5, -0.5],
        [-0.5, -0.5, 1.0, 0.5],
        [-0.5, -0.5, 0.5, 1.0],
    ]
)
_LUN_CHOL = np.linalg.cholesky(_LUN_COV)


@dataclass(frozen=True)
class DGPSpec:
    kind: str
    n: int
    seed: int
    noise_sd: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown DGP kind {self.kind!r}; choose from {KINDS}")
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        if self.noise_sd < 0.0:
            raise ValidationError("noise_sd must be >= 0")


@dataclass(frozen=True, eq=False)
class GeneratedSample:
    dataset: ObservationalDataset
    y0: np.ndarray
    y1: np.ndarray
    e_true: np.ndarray
    mu0_true: np.ndarray
    mu1_true: np.ndarray


@dataclass(frozen=True)
class TrueRR:
    value: float
    provenance: str  # closed_form | mc_oracle
    mc_draws: int | None = None
    mc_se: float | None = None


def _draw_covariates(kind: str, n: int, rng: CounterRng) -> np.ndarray:
    if kind in ("linear_rct", "wager_nl_logistic"):
        return rng.normals(6 * n).reshape(n, 6)
    if kind in ("nonlinear_rct", "wager_nl_nonlogistic"):
        return rng.uniforms(6 * n).reshape(n, 6)
    # lunceford: X3, then the 4-d Gaussian block (X1, V1, X2, V2), then V3
    x3 = (rng.uniforms(n) < 0.2).astype(float)
    z = rng.normals(4 * n).reshape(n, 4) @ _LUN_CHOL.T
    block = z + np.where(x3[:, None] == 1.0, _LUN_MEAN1, -_LUN_MEAN1)
    v3 = (rng.uniforms(n) < (0.75 * x3 + 0.25 * (1.0 - x3))).astype(float)
    return np.column_stack([block[:, 0], block[:, 2], x3, block[:, 1], block[:, 3], v3])


def _effect(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "linear_rct":
        return (_LIN_C1 - _LIN_C0) + x @ (_LIN_BETA1 - _LIN_BETA0)
    if kind == "nonlinear_rct":
        return (
            np.sin(x[:, 0]) * x[:, 1] ** 2
            + x[:, 2] / (x[:, 3] + 1.0)
            - np.log(x[:, 4] + 1.0)
            + x[:, 5] ** 3
            + 1.0
        )
    if kind == "lunceford":
        return np.full(x.shape[0], _LUN_EFFECT)
    if kind == "wager_nl_logistic":
        return np.ones(x.shape[0])
    return (
        np.sin(np.pi * x[:, 0] * x[:, 1])
        + 2.0 * (x[:, 2] - 0.5) ** 2
        + x[:, 3]
        + 0.5 * x[:, 4]
        - (x[:, 0] + x[:, 1]) / 4.0
    )


def _baseline(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "linear_rct":
        return _LIN_C0 + x @ _LIN_BETA0
    if kind == "nonlinear_rct":
        return 4.0 * np.maximum(x[:, 0] + x[:, 1] + x[:, 2], 0.0) - np.minimum(
            x[:, 3] + x[:, 5], 0.0
        )
    if kind == "lunceford":
        return x @ _LUN_BETA_B
    if kind == "wager_nl_logistic":
        return 2.0 * np.logaddexp(0.0, x[:, 0] + x[:, 1] + x[:, 2])
    return (x[:, 0] + x[:, 1]) / 2.0


def _propensity(kind: str, x: np.ndarray) -> np.ndarray:
    if kind in ("linear_rct", "nonlinear_rct"):
        return np.full(x.shape[0], 0.5)
    if kind == "lunceford":
        return expit(x[:, :3] @ _LUN_BETA_E)
    if kind == "wager_nl_logistic":
        return expit(-(x[:, 1] + x[:, 2]))
    return np.clip(np.sin(np.pi * x[:, 0]), 0.1, 0.9)


def generate(spec: DGPSpec) -> GeneratedSample:
    """Draw one sample; identical specs give bit-identical samples."""
    x = _draw_covariates(spec.kind, spec.n, CounterRng(derive_seed(spec.seed, _STREAM_COVARIATES)))
    b = _baseline(spec.kind, x)
    m = _effect(spec.kind, x)
    e = _propensity(spec.kind, x)
    t = CounterRng(derive_seed(spec.seed, _STREAM_TREATMENT)).bernoulli(e).astype(np.int8)
    eps0 = spec.noise_sd * CounterRng(derive_seed(spec.seed, _STREAM_NOISE_0)).normals(spec.n)
    eps1 = spec.noise_sd * CounterRng(derive_seed(spec.seed, _STREAM_NOISE_1)).normals(spec.n)
    y0 = b + eps0
    y1 = m + b + eps1
    y = np.where(t == 1, y1, y0)
    dataset = ObservationalDataset(x=x, t=t, y=y)
    return GeneratedSample(
        dataset=dataset, y0=y0, y1=y1, e_true=e, mu0_true=b, mu1_true=m + b
    )


def true_rr(kind: str, mc_draws: int = 10**6, seed: int = 0) -> TrueRR:
    """True risk ratio: closed form where available, else a Monte-Carlo oracle.

    The oracle draws covariates only (noise cancels in both means) and
    reports the delta-method standard error of the estimated ratio.
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown DGP kind {kind!r}")
    if kind == "linear_rct":
        # zero-mean covariates: the ratio of intercepts
        return TrueRR(value=_LIN_C1 / _LIN_C0, provenance="closed_form")
    if mc_draws < 10**5:
        raise ValidationError("Monte-Carlo oracle needs at least 1e5 draws")
    rng = CounterRng(derive_seed(seed, _STREAM_COVARIATES))
    x = _draw_covariates(kind, mc_draws, rng)
    m = _effect(kind, x)
    b = _baseline(kind, x)
    m_bar = float(m.mean())
    b_bar = float(b.mean())
    value = m_bar / b_bar + 1.0
    infl = m - (m_bar / b_bar) * b
    se = float(np.std(infl) / (abs(b_bar) * np.sqrt(mc_draws)))
    return TrueRR(value=value, provenance="mc_oracle", mc_draws=mc_draws, mc_se=se)


def softplus_mean_quadrature(scale_sq: float = 3.0, nodes: int = 128) -> float:
    """``E[2 log(1 + exp(Z))]`` for ``Z ~ N(0, scale_sq)`` by Gauss-Hermite.

    Independent cross-check for the ``wager_nl_logistic`` oracle: its
    baseline mean is exactly this expectation with ``scale_sq = 3``.
    """
    points, weights = np.polynomial.hermite.hermgauss(nodes)
    z = np.sqrt(2.0 * scale_sq) * points
    return float(np.sum(weights * 2.0 * np.logaddexp(0.0, z)) / np.sqrt(np.pi))


def oracle_models(kind: str) -> tuple[PropensityModel, OutcomeModel, OutcomeModel]:
    """True nuisances wrapped as fixed models: (e, mu0, mu1)."""
    if kind not in KINDS:
        raise ValidationError(f"unknown DGP kind {kind!r}")
    if kind in ("linear_rct", "nonlinear_rct"):
        e_model = constant_propensity(0.5, clip=ORACLE_CLIP)
    elif kind == "lunceford":
        coef = np.concatenate([_LUN_BETA_E, np.zeros(3)])
        e_model = PropensityModel(Logistic(0.0, coef), clip=ORACLE_CLIP, n_features=6)
    elif kind == "wager_nl_logistic":
        coef = np.array([0.0, -1.0, -1.0, 0.0, 0.0, 0.0])
        e_model = PropensityModel(Logistic(0.0, coef), clip=ORACLE_CLIP, n_features=6)
    else:
        e_model = PropensityModel(
            lambda x: _propensity("wager_nl_nonlogistic", x), clip=ORACLE_CLIP, n_features=6
        )
    if kind == "linear_rct":
        mu0 = OutcomeModel(Linear(_LIN_C0, _LIN_BETA0), arm=0, n_features=6)
        mu1 = OutcomeModel(Linear(_LIN_C1, _LIN_BETA1), arm=1, n_features=6)
    elif kind == "lunceford":
        mu0 = OutcomeModel(Linear(0.0, _LUN_BETA_B), arm=0, n_features=6)
        mu1 = OutcomeModel(Linear(_LUN_EFFECT, _LUN_BETA_B), arm=1, n_features=6)
    else:
        mu0 = OutcomeModel(lambda x, k=kind: _baseline(k, x), arm=0, n_features=6)
        mu1 = OutcomeModel(
            lambda x, k=kind: _baseline(k, x) + _effect(k, x), arm=1, n_features=6
        )
    return e_model, mu0, mu1


def export_sample(sample: GeneratedSample, directory) -> tuple[str, str]:
    """Write ``dataset.csv`` plus an ``oracle.json`` sidecar; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, "dataset.csv")
    sidecar_path = os.path.join(directory, "oracle.json")
    write_csv(sample.dataset, csv_path)
    sidecar = {
        "y0": sample.y0.tolist(),
        "y1": sample.y1.tolist(),
        "e_true": sample.e_true.tolist(),
        "mu0_true": sample.mu0_true.tolist(),
        "mu1_true": sample.mu1_true.tolist(),
    }
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)
    return csv_path, sidecar_path
