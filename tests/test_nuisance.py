import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import logistic_oracle
from logistic_oracle import fit_logistic_oracle

from riskratio import (
    ConvergenceError,
    RankDeficiencyError,
    SeparationError,
    ValidationError,
    constant_propensity,
    fit_logistic_mle,
    fit_ols,
    model_from_json,
    model_to_json,
)
from riskratio import nuisance
from riskratio.dgp import DGPSpec, generate
from riskratio.nuisance import Linear, Logistic, OutcomeModel, PropensityModel, expit


def _score_norm(x, t, model):
    xt = np.column_stack([np.ones(len(t)), x])
    p = expit(model.surface.intercept + x @ model.surface.coef)
    return np.max(np.abs(xt.T @ (t - p) / len(t)))


def test_logistic_recovers_design_coefficients():
    # treatment generated from a logistic design over the first three covariates
    sample = generate(DGPSpec(kind="lunceford", n=20_000, seed=4))
    model = fit_logistic_mle(sample.dataset.x, sample.dataset.t)
    target = np.array([-0.6, 0.6, -0.6, 0.0, 0.0, 0.0])
    assert np.all(np.abs(model.surface.coef - target) < 0.1)
    assert abs(model.surface.intercept) < 0.1
    assert _score_norm(sample.dataset.x, sample.dataset.t, model) <= 1e-8


def test_logistic_no_signal_gives_zero_coefficients():
    g = np.random.default_rng(0)
    x = g.normal(size=(20_000, 3))
    t = (g.random(20_000) < 0.5).astype(int)
    model = fit_logistic_mle(x, t)
    assert np.all(np.abs(model.surface.coef) < 0.05)
    assert abs(model.surface.intercept) < 0.05


def test_logistic_detects_perfect_separation():
    g = np.random.default_rng(1)
    x = g.normal(size=(200, 1))
    t = (x[:, 0] > 0).astype(int)
    with pytest.raises(SeparationError):
        fit_logistic_mle(x, t)


def test_logistic_ridge_rescues_separated_data():
    g = np.random.default_rng(1)
    x = g.normal(size=(200, 1))
    t = (x[:, 0] > 0).astype(int)
    model = fit_logistic_mle(x, t, ridge=1.0)
    assert np.isfinite(model.surface.coef).all()


def test_logistic_preconditions():
    with pytest.raises(ValidationError):
        fit_logistic_mle(np.zeros((2, 3)), np.array([1, 0]))
    with pytest.raises(ValidationError):
        fit_logistic_mle(np.zeros((5, 1)), np.ones(5, dtype=int))


def test_logistic_non_convergence_reports_norm():
    g = np.random.default_rng(2)
    x = g.normal(size=(500, 2))
    t = (g.random(500) < expit(x[:, 0])).astype(int)
    with pytest.raises(ConvergenceError, match="score max-norm"):
        fit_logistic_mle(x, t, max_iter=1)


def test_ols_exact_line():
    x = np.array([[0.0], [1.0], [2.0], [5.0]])
    y = 6.0 + 3.0 * x[:, 0]
    model = fit_ols(x, y)
    assert model.surface.intercept == pytest.approx(6.0, abs=1e-10)
    assert model.surface.coef[0] == pytest.approx(3.0, abs=1e-10)


def test_ols_recovers_linear_design_arm():
    sample = generate(DGPSpec(kind="linear_rct", n=50_000, seed=5))
    d = sample.dataset
    rows = d.t == 0
    model = fit_ols(d.x[rows], d.y[rows])
    assert abs(model.surface.intercept - 6.0) < 0.1
    assert np.all(np.abs(model.surface.coef - np.array([3.0, -7.0, 1.0, 4.0, -2.0, 2.0])) < 0.1)


def test_ols_constant_outcome():
    g = np.random.default_rng(3)
    x = g.normal(size=(40, 2))
    model = fit_ols(x, np.full(40, 2.5))
    assert model.surface.intercept == pytest.approx(2.5, abs=1e-10)
    assert np.all(np.abs(model.surface.coef) < 1e-10)


def test_ols_normal_equations_residual():
    g = np.random.default_rng(4)
    x = g.normal(size=(300, 4))
    y = 1.0 + x @ np.array([2.0, -1.0, 0.5, 3.0]) + g.normal(size=300)
    model = fit_ols(x, y)
    xt = np.column_stack([np.ones(300), x])
    resid = y - (model.surface.intercept + x @ model.surface.coef)
    scale = np.sqrt(np.mean(y**2)) * np.abs(xt).max()
    assert np.max(np.abs(xt.T @ resid / 300)) <= 1e-8 * max(scale, 1.0)


def test_ols_rank_deficiency_names_column():
    g = np.random.default_rng(5)
    x = g.normal(size=(50, 3))
    x[:, 2] = 2.0 * x[:, 0] - x[:, 1]
    with pytest.raises(RankDeficiencyError, match="column 3"):
        fit_ols(x, g.normal(size=50))


def test_predict_logistic_at_zero_is_half():
    model = PropensityModel(Logistic(0.0, np.zeros(2)), n_features=2)
    assert model.predict(np.array([3.0, -4.0]))[0] == 0.5


def test_predict_ols_row():
    model = OutcomeModel(Linear(1.0, np.array([2.0])), n_features=1)
    assert model.predict(np.array([3.0]))[0] == 7.0


def test_propensity_clipping():
    model = PropensityModel(Logistic(10.0, np.array([0.0])), clip=0.01, n_features=1)
    assert model.predict(np.array([0.0]))[0] == pytest.approx(0.99)
    low = PropensityModel(Logistic(-10.0, np.array([0.0])), clip=0.01, n_features=1)
    assert low.predict(np.array([0.0]))[0] == pytest.approx(0.01)


def test_predict_dimension_mismatch():
    model = OutcomeModel(Linear(0.0, np.array([1.0, 2.0])), n_features=2)
    with pytest.raises(ValidationError, match="dimension"):
        model.predict(np.array([1.0]))


def test_clip_validation():
    with pytest.raises(ValidationError):
        constant_propensity(0.5, clip=0.7)
    with pytest.raises(ValidationError):
        constant_propensity(1.5)


def test_model_json_round_trip():
    g = np.random.default_rng(6)
    x = g.normal(size=(200, 3))
    t = (g.random(200) < expit(x[:, 0] - 0.3)).astype(int)
    y = 1.0 + x @ np.array([1.0, 0.0, -2.0]) + g.normal(size=200)
    for model in (
        fit_logistic_mle(x, t),
        fit_ols(x, y, arm=1),
        constant_propensity(0.25),
    ):
        back = model_from_json(model_to_json(model))
        assert np.allclose(back.predict(x), model.predict(x))
        assert json.loads(model_to_json(model))["model"] == model.kind


_EDGE_LOGITS = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0, 709.5, 710.5,
                -710.5, 1e308, -1e308, 5e-324, -5e-324, 36.7, -36.7]


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=0, max_dims=2, max_side=20),
        elements=st.one_of(st.floats(), st.sampled_from(_EDGE_LOGITS)),
    )
)
def test_expit_matches_masked_oracle(s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(s)
    want = logistic_oracle.expit(s)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]


def _fit_counted(monkeypatch, module, fit, x, t, **kw):
    """Run ``fit``, counting its likelihood evaluations and Newton steps."""
    counts = {"nll": 0, "steps": 0}
    nll = module._neg_log_likelihood
    solve = np.linalg.solve

    def counting_nll(*args):
        counts["nll"] += 1
        return nll(*args)

    def counting_solve(*args):
        counts["steps"] += 1
        return solve(*args)

    with monkeypatch.context() as m:
        m.setattr(module, "_neg_log_likelihood", counting_nll)
        m.setattr(np.linalg, "solve", counting_solve)
        try:
            return fit(x, t, **kw), counts
        except (ConvergenceError, SeparationError) as exc:
            return (type(exc), str(exc)), counts


def _lunceford(n, seed=4):
    d = generate(DGPSpec(kind="lunceford", n=n, seed=seed)).dataset
    return d.x, d.t


def _outlier_sample(seed, n=30):
    # one high-leverage point against the trend makes Newton overshoot
    g = np.random.default_rng(seed)
    x = g.normal(size=(n, 1))
    t = (x[:, 0] + g.normal(size=n) > 0).astype(float)
    x[0, 0], t[0] = 30.0, 0.0
    return x, t


def _separated():
    x = np.random.default_rng(1).normal(size=(200, 1))
    return x, (x[:, 0] > 0).astype(float)


# name -> (sample, fit options, step-halvings the fit makes)
_FITS = {
    "lunceford": (lambda: _lunceford(400), {}, 0),
    "lunceford ridge": (lambda: _lunceford(400), {"ridge": 0.5}, 0),
    "one halving": (lambda: _outlier_sample(83), {}, 1),
    "26 halvings": (lambda: _outlier_sample(195), {}, 26),
    "ridge, 39 halvings": (lambda: _outlier_sample(3), {"ridge": 0.1}, 39),
    "separated": (_separated, {}, 0),
    "separated ridge": (_separated, {"ridge": 1.0}, 0),
    "max_iter 2": (lambda: _lunceford(400), {"max_iter": 2}, 0),
}


@pytest.mark.parametrize("name", _FITS)
def test_logistic_fit_matches_newton_oracle(monkeypatch, name):
    sample, options, halvings = _FITS[name]
    x, t = sample()
    got, new = _fit_counted(monkeypatch, nuisance, fit_logistic_mle, x, t, **options)
    want, old = _fit_counted(
        monkeypatch, logistic_oracle, fit_logistic_oracle, x, t, **options
    )
    if isinstance(want, tuple):  # the same error, with the same message
        assert got == want
    else:
        assert got.surface.intercept.hex() == want.surface.intercept.hex()
        assert [c.hex() for c in got.surface.coef.tolist()] == [
            c.hex() for c in want.surface.coef.tolist()
        ]
    steps = old["steps"]
    assert new["steps"] == steps
    # the oracle evaluated one likelihood more per step: the accepted candidate again
    assert old["nll"] == 1 + 2 * steps + halvings
    assert new["nll"] == 1 + steps + halvings


def test_exhausted_line_search_matches_newton_oracle(monkeypatch):
    # block every likelihood away from zero until one within 2**-40 of a Newton
    # step from zero is seen: all 40 candidates of the first step fail, and the
    # fit must take the 2**-40 step and re-evaluate there, as the oracle did
    x, t = _lunceford(300)
    n = len(t)
    xt = np.column_stack([np.ones(n), x])
    step = np.linalg.solve(xt.T @ xt * 0.25 / n, xt.T @ (t - 0.5) / n)
    floor = np.max(np.abs(step)) * 2.0**-39.5

    def fit_blocked(module, fit):
        nll = module._neg_log_likelihood
        blocked = [True]

        def blocking(s, t, beta, ridge):
            size = np.max(np.abs(beta))
            if blocked[0] and size > 0.0:
                if size > floor:
                    return np.inf
                blocked[0] = False
            return nll(s, t, beta, ridge)

        with monkeypatch.context() as m:
            m.setattr(module, "_neg_log_likelihood", blocking)
            model = fit(x, t)
        assert not blocked[0]
        return model

    got = fit_blocked(nuisance, fit_logistic_mle)
    want = fit_blocked(logistic_oracle, fit_logistic_oracle)
    assert got.surface.intercept.hex() == want.surface.intercept.hex()
    assert [c.hex() for c in got.surface.coef.tolist()] == [
        c.hex() for c in want.surface.coef.tolist()
    ]
