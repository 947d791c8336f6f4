"""Reference specification of the truth oracle: the one-shot Monte-Carlo draw.

This is ``riskratio.dgp.true_rr`` as it was before the oracle filled its
sample in row blocks, with the covariate draw it made through one
``CounterRng`` cursor, kept verbatim as a test oracle.  The current
``true_rr`` must return the same ``value``, bit for bit, and an ``mc_se``
within 1e-13 relative of this ``np.std`` form: it merges per-block
co-moments instead of holding the whole influence vector.
"""

import numpy as np

from riskratio.dgp import (
    _LIN_C0,
    _LIN_C1,
    _LUN_CHOL,
    _LUN_MEAN1,
    _STREAM_COVARIATES,
    KINDS,
    TrueRR,
    _baseline,
    _effect,
)
from riskratio.errors import ValidationError
from riskratio.rng import CounterRng, derive_seed


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


def true_rr_oracle(kind: str, mc_draws: int = 10**6, seed: int = 0) -> TrueRR:
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
