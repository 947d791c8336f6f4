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

Row ``i`` of an ``n``-row covariate sample reads fixed counters of stream 0,
so any block of two or more rows can be drawn on its own with the same bits
(numpy multiplies a single row through a vector product that rounds
differently):

* normal and uniform designs: counters ``6i .. 6i+5``, one per column (the
  normals pair counters ``6i+2j`` and ``6i+2j+1`` by Box-Muller);
* ``lunceford``: ``X3`` from counter ``i``, the Gaussian block
  ``(X1, V1, X2, V2)`` from the normals at counters ``n+4i .. n+4i+3``, and
  ``V3`` from counter ``5n+i``.

This layout is the reproducibility contract that :func:`generate` and
:func:`true_rr` share: ``generate`` draws rows ``0:n`` in one call, and the
truth oracle draws its sample one leaf of numpy's pairwise-sum tree at a
time, at most ``_TRUTH_BLOCK_ROWS`` rows, so it holds one block of memory
whatever the draw count.  Its ``value`` has the bits of one draw of the
whole sample; its ``mc_se`` merges per-leaf co-moments and may differ from
the whole-sample ``np.std`` form in the last bits.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .data import _WRITE_BLOCK_ROWS, ObservationalDataset, write_csv
from .errors import ValidationError
from .nuisance import OutcomeModel, PropensityModel, expit
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

# most covariate rows the truth oracle holds at once.  At least 128, the longest
# range numpy sums without splitting, so that every leaf is a subtree of its
# sum.  At 2^11 rows every temporary of a leaf stays under glibc malloc's
# 128 KiB mmap threshold and reuses heap memory; with 2^14-row leaves each leaf
# faulted its temporaries in afresh (52k page faults, +0.1 s per 10^6 draws)
_TRUTH_BLOCK_ROWS = 2**11

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
    # delta-method standard error of an mc_oracle value: the root mean square
    # of the centred influence values m - (mean(m) / mean(b)) b, over
    # |mean(b)| sqrt(mc_draws)
    mc_se: float | None = None


def _draw_covariates(kind: str, seed: int, n: int, a: int, b: int) -> np.ndarray:
    """Rows ``a:b`` of the ``n``-row covariate sample of ``seed``."""
    s = derive_seed(seed, _STREAM_COVARIATES)
    rows = b - a
    if kind in ("linear_rct", "wager_nl_logistic"):
        rng = CounterRng(s, start=N_COVARIATES * a)
        return rng.normals(N_COVARIATES * rows).reshape(rows, N_COVARIATES)
    if kind in ("nonlinear_rct", "wager_nl_nonlogistic"):
        rng = CounterRng(s, start=N_COVARIATES * a)
        return rng.uniforms(N_COVARIATES * rows).reshape(rows, N_COVARIATES)
    # lunceford: X3, then the 4-d Gaussian block (X1, V1, X2, V2), then V3
    x3 = (CounterRng(s, start=a).uniforms(rows) < 0.2).astype(float)
    z = CounterRng(s, start=n + 4 * a).normals(4 * rows).reshape(rows, 4) @ _LUN_CHOL.T
    block = z + np.where(x3[:, None] == 1.0, _LUN_MEAN1, -_LUN_MEAN1)
    v3 = (
        CounterRng(s, start=5 * n + a).uniforms(rows) < (0.75 * x3 + 0.25 * (1.0 - x3))
    ).astype(float)
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
    x = _draw_covariates(spec.kind, spec.seed, spec.n, 0, spec.n)
    b = _baseline(spec.kind, x)
    m = _effect(spec.kind, x)
    e = _propensity(spec.kind, x)
    t = CounterRng(derive_seed(spec.seed, _STREAM_TREATMENT)).bernoulli(e).astype(np.int8)
    eps0 = spec.noise_sd * CounterRng(derive_seed(spec.seed, _STREAM_NOISE_0)).normals(spec.n)
    eps1 = spec.noise_sd * CounterRng(derive_seed(spec.seed, _STREAM_NOISE_1)).normals(spec.n)
    mu1 = m + b  # the sum _treated_mean takes, in the same order
    y0 = b + eps0
    y1 = mu1 + eps1
    y = np.where(t == 1, y1, y0)
    dataset = ObservationalDataset(x=x, t=t, y=y)
    return GeneratedSample(dataset=dataset, y0=y0, y1=y1, e_true=e, mu0_true=b, mu1_true=mu1)


class _Moments(NamedTuple):
    """Effect and baseline sums over a row range, with centred co-moment sums."""

    rows: int
    sum_m: float
    sum_b: float
    c_mm: float
    c_bb: float
    c_mb: float


def _moments(m: np.ndarray, b: np.ndarray) -> _Moments:
    """Moments of one range's effect values ``m`` and baseline values ``b``.

    The sums are ``np.add.reduce`` from ``-0.0``, the identity that keeps
    the bits of the range's pairwise sum, the sign of zero included.
    """
    rows = m.size
    sum_m = float(np.add.reduce(m, initial=-0.0))
    sum_b = float(np.add.reduce(b, initial=-0.0))
    dm = m - sum_m / rows
    db = b - sum_b / rows
    return _Moments(
        rows,
        sum_m,
        sum_b,
        float(np.add.reduce(dm * dm)),
        float(np.add.reduce(db * db)),
        float(np.add.reduce(dm * db)),
    )


def _merge_moments(a: _Moments, b: _Moments) -> _Moments:
    """Moments of two adjacent ranges (Chan, Golub & LeVeque 1979)."""
    rows = a.rows + b.rows
    dm = b.sum_m / b.rows - a.sum_m / a.rows
    db = b.sum_b / b.rows - a.sum_b / a.rows
    w = a.rows * b.rows / rows
    return _Moments(
        rows,
        a.sum_m + b.sum_m,
        a.sum_b + b.sum_b,
        a.c_mm + b.c_mm + dm * dm * w,
        a.c_bb + b.c_bb + db * db * w,
        a.c_mb + b.c_mb + dm * db * w,
    )


def _influence_var(mom: _Moments, r: float) -> float:
    """Mean square of the centred influence values ``m - r * b``."""
    var = (mom.c_mm - 2.0 * r * mom.c_mb + r * r * mom.c_bb) / mom.rows
    # the three terms cancel only when every influence value is about 0
    # (m proportional to b); rounding may then leave a tiny negative
    return max(var, 0.0)


def _pairwise_tree(lo: int, hi: int, leaf, merge):
    """Reduce rows ``lo:hi`` over the tree by which numpy sums a vector.

    ``np.add.reduce`` of a contiguous float64 vector splits a range of more
    than 128 elements at half its length rounded down to a multiple of 8,
    and adds the two halves' sums.  This applies ``leaf(lo, hi)`` to every
    subrange of at most ``_TRUTH_BLOCK_ROWS`` rows and ``merge`` up the
    tree, so summing the leaves in ``merge`` gives the bits of the sum of
    the whole vector, less its initial ``0.0 +``.  Every leaf starts at a
    multiple of 8, only the last one's length is not a multiple of 8, and
    every leaf of a range of two or more rows holds at least two.
    """
    rows = hi - lo
    if rows <= _TRUTH_BLOCK_ROWS:
        return leaf(lo, hi)
    mid = lo + rows // 2 - rows // 2 % 8
    return merge(_pairwise_tree(lo, mid, leaf, merge), _pairwise_tree(mid, hi, leaf, merge))


def true_rr(kind: str, mc_draws: int = 10**6, seed: int = 0) -> TrueRR:
    """True risk ratio: closed form where available, else a Monte-Carlo oracle.

    The oracle draws covariates only (noise cancels in both means) and
    reports the delta-method standard error of the estimated ratio.  It
    draws the sample one leaf of numpy's pairwise-sum tree at a time, at
    most ``_TRUTH_BLOCK_ROWS`` rows, so its memory does not grow with
    ``mc_draws``.  The leaf sums, added up the tree, give ``value`` the bits
    of one ``mc_draws``-row sample.  ``mc_se`` comes from the per-leaf
    centred co-moments of the effect ``m`` and baseline ``b``, merged by
    Chan, Golub & LeVeque's update: with ``r = mean(m) / mean(b)``,
    ``var(m - r b) = (C_mm - 2 r C_mb + r^2 C_bb) / mc_draws``, which
    matches ``np.std`` of the influence values in all but the last bits.
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown DGP kind {kind!r}")
    if kind == "linear_rct":
        # zero-mean covariates: the ratio of intercepts
        return TrueRR(value=_LIN_C1 / _LIN_C0, provenance="closed_form")
    if mc_draws < 10**5:
        raise ValidationError("Monte-Carlo oracle needs at least 1e5 draws")

    def leaf(lo: int, hi: int) -> _Moments:
        x = _draw_covariates(kind, seed, mc_draws, lo, hi)
        return _moments(_effect(kind, x), _baseline(kind, x))

    mom = _pairwise_tree(0, mc_draws, leaf, _merge_moments)
    # np.mean sums from the identity 0.0
    m_bar = (0.0 + mom.sum_m) / mc_draws
    b_bar = (0.0 + mom.sum_b) / mc_draws
    r = m_bar / b_bar
    se = math.sqrt(_influence_var(mom, r)) / (abs(b_bar) * math.sqrt(mc_draws))
    return TrueRR(value=r + 1.0, provenance="mc_oracle", mc_draws=mc_draws, mc_se=se)


def softplus_mean_quadrature(scale_sq: float = 3.0, nodes: int = 128) -> float:
    """``E[2 log(1 + exp(Z))]`` for ``Z ~ N(0, scale_sq)`` by Gauss-Hermite.

    Independent cross-check for the ``wager_nl_logistic`` oracle: its
    baseline mean is exactly this expectation with ``scale_sq = 3``.
    """
    points, weights = np.polynomial.hermite.hermgauss(nodes)
    z = np.sqrt(2.0 * scale_sq) * points
    return float(np.sum(weights * 2.0 * np.logaddexp(0.0, z)) / np.sqrt(np.pi))


def _treated_mean(kind: str, x: np.ndarray) -> np.ndarray:
    return _effect(kind, x) + _baseline(kind, x)


def oracle_models(kind: str) -> tuple[PropensityModel, OutcomeModel, OutcomeModel]:
    """True nuisances wrapped as fixed models: (e, mu0, mu1).

    The surfaces are the ones :func:`generate` draws from, so on a generated
    sample the predictions equal ``e_true``, ``mu0_true`` and ``mu1_true``
    exactly; the surfaces are partials of module functions, so the models
    pickle.
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown DGP kind {kind!r}")
    return (
        PropensityModel(partial(_propensity, kind), clip=ORACLE_CLIP, n_features=N_COVARIATES),
        OutcomeModel(partial(_baseline, kind), arm=0, n_features=N_COVARIATES),
        OutcomeModel(partial(_treated_mean, kind), arm=1, n_features=N_COVARIATES),
    )


def export_sample(sample: GeneratedSample, directory) -> tuple[str, str]:
    """Write ``dataset.csv`` plus an ``oracle.json`` sidecar; returns the paths.

    Both files are written in row blocks.  The sidecar's bytes are those of
    ``json.dump`` of a dict of five lists, ``y0``, ``y1``, ``e_true``,
    ``mu0_true`` and ``mu1_true``.
    """
    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, "dataset.csv")
    sidecar_path = os.path.join(directory, "oracle.json")
    write_csv(sample.dataset, csv_path)
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        for i, key in enumerate(("y0", "y1", "e_true", "mu0_true", "mu1_true")):
            fh.write(("{" if i == 0 else ", ") + json.dumps(key) + ": [")
            values = getattr(sample, key)
            for lo in range(0, values.size, _WRITE_BLOCK_ROWS):
                if lo:
                    fh.write(", ")
                fh.write(json.dumps(values[lo : lo + _WRITE_BLOCK_ROWS].tolist())[1:-1])
            fh.write("]")
        fh.write("}")
    return csv_path, sidecar_path
