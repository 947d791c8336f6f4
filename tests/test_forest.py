import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from forest_oracle import fit_forest_oracle, predict_oracle

from riskratio import (
    ForestConfig,
    ValidationError,
    fit_forest_classifier,
    fit_forest_regressor,
    model_from_json,
    model_to_json,
)
from riskratio.dgp import DGPSpec, generate
from riskratio import trees
from riskratio.rng import CounterRng
from riskratio.trees import fit_forest, forest_to_dict


def test_constant_target_predicts_constant():
    g = np.random.default_rng(0)
    x = g.normal(size=(60, 3))
    model = fit_forest_regressor(x, np.full(60, 5.0), ForestConfig(n_trees=10, seed=1))
    assert np.allclose(model.predict(x), 5.0)


def test_depth_zero_single_tree_is_global_mean():
    g = np.random.default_rng(1)
    x = g.normal(size=(50, 2))
    y = g.normal(size=50)
    cfg = ForestConfig(n_trees=1, max_depth=0, bootstrap=False, seed=2)
    model = fit_forest_regressor(x, y, cfg)
    assert np.allclose(model.predict(x), y.mean())


def test_regressor_beats_constant_predictor_on_nonlinear_surface():
    # smooth non-linear target; the bar is the variance of the target itself
    train = generate(DGPSpec(kind="wager_nl_logistic", n=10_000, seed=7, noise_sd=0.0))
    test = generate(DGPSpec(kind="wager_nl_logistic", n=2_000, seed=8, noise_sd=0.0))
    oracle_draws = CounterRng(99).normals(10**6) * np.sqrt(3.0)
    target_variance = np.var(2.0 * np.logaddexp(0.0, oracle_draws))
    cfg = ForestConfig(n_trees=200, min_leaf=20, seed=3)
    model = fit_forest_regressor(train.dataset.x, train.mu0_true, cfg)
    mse = np.mean((model.predict(test.dataset.x) - test.mu0_true) ** 2)
    assert mse < target_variance


def test_classifier_separable_labels_high_accuracy():
    g = np.random.default_rng(2)
    x = g.normal(size=(1000, 3))
    t = (x[:, 0] > 0).astype(int)
    model = fit_forest_classifier(x, t, ForestConfig(n_trees=50, seed=4))
    acc = np.mean((model.predict(x) > 0.5) == t)
    assert acc >= 0.95


def test_classifier_constant_labels_clip():
    g = np.random.default_rng(3)
    x = g.normal(size=(40, 2))
    model = fit_forest_classifier(x, np.ones(40), ForestConfig(n_trees=5, seed=5), clip=0.01)
    assert np.allclose(model.predict(x), 0.99)


def test_classifier_no_signal_concentrates_near_half():
    g = np.random.default_rng(4)
    x = g.normal(size=(2000, 3))
    t = g.integers(0, 2, size=2000)
    model = fit_forest_classifier(x, t, ForestConfig(n_trees=100, seed=6))
    assert abs(model.predict(x).mean() - 0.5) < 0.05


def test_forest_determinism_bit_identical():
    g = np.random.default_rng(5)
    x = g.normal(size=(300, 4))
    y = np.sin(x[:, 0]) + g.normal(size=300)
    cfg = ForestConfig(n_trees=20, seed=11)
    a = fit_forest_regressor(x, y, cfg).predict(x)
    b = fit_forest_regressor(x, y, cfg).predict(x)
    assert np.array_equal(a, b)
    c = fit_forest_regressor(x, y, ForestConfig(n_trees=20, seed=12)).predict(x)
    assert not np.array_equal(a, c)


def test_classifier_predictions_respect_clip():
    g = np.random.default_rng(6)
    x = g.normal(size=(500, 2))
    t = (x[:, 0] > 0.5).astype(int)
    model = fit_forest_classifier(x, t, ForestConfig(n_trees=30, seed=7), clip=0.05)
    pred = model.predict(x)
    assert pred.min() >= 0.05 and pred.max() <= 0.95


def test_forest_config_validation():
    g = np.random.default_rng(7)
    x = g.normal(size=(8, 2))
    y = g.normal(size=8)
    with pytest.raises(ValidationError):
        fit_forest_regressor(x, y, ForestConfig(min_leaf=5))  # n < 2*min_leaf
    with pytest.raises(ValidationError):
        fit_forest_regressor(x, y, ForestConfig(min_leaf=1, mtry=9))
    with pytest.raises(ValidationError):
        fit_forest_regressor(x, y, ForestConfig(min_leaf=1, n_trees=0))
    with pytest.raises(ValidationError):
        fit_forest_classifier(x, np.full(8, 2.0), ForestConfig(min_leaf=1))


def test_forest_json_round_trip():
    g = np.random.default_rng(8)
    x = g.normal(size=(100, 2))
    y = x[:, 0] ** 2 + g.normal(size=100)
    model = fit_forest_regressor(x, y, ForestConfig(n_trees=5, seed=9))
    back = model_from_json(model_to_json(model))
    assert np.array_equal(back.predict(x), model.predict(x))


@pytest.mark.parametrize(
    "column, bad",
    [("x", np.nan), ("x", -np.inf), ("y", np.inf), ("y", np.nan)],
)
def test_non_finite_inputs_rejected(column, bad):
    g = np.random.default_rng(9)
    x = g.normal(size=(40, 3))
    y = g.normal(size=40)
    if column == "x":
        x[7, 1] = bad
    else:
        y[7] = bad
    with pytest.raises(ValidationError, match="finite"):
        fit_forest_regressor(x, y, ForestConfig(n_trees=3, seed=1))


@st.composite
def forest_problems(draw):
    """Small problems with repeated x values and real, binary or constant y."""
    p = draw(st.integers(1, 4))
    min_leaf = draw(st.integers(1, 5))
    n = draw(st.integers(2 * min_leaf, 40))
    x_values = st.sampled_from([-1.5, 0.0, 0.25, 2.0, 3.0, 7.5])
    x = draw(arrays(np.float64, (n, p), elements=x_values))
    y_kind = draw(st.sampled_from(["real", "binary", "constant"]))
    if y_kind == "real":
        # sevenths are inexact, so summing them in another order moves bits
        sevenths = st.integers(-700, 700).map(lambda v: v / 7.0)
        y = draw(arrays(np.float64, n, elements=st.one_of(sevenths, st.floats(-100.0, 100.0))))
    elif y_kind == "binary":
        y = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
    else:
        y = np.full(n, draw(st.floats(-5.0, 5.0)))
    cfg = ForestConfig(
        n_trees=draw(st.integers(1, 7)),
        max_depth=draw(st.sampled_from([None, 0, 2])),
        min_leaf=min_leaf,
        mtry=draw(st.integers(1, p)),
        bootstrap=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32)),
    )
    return x, y, cfg


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(forest_problems())
def test_lockstep_growth_matches_per_node_oracle(problem):
    x, y, cfg = problem
    forest = fit_forest(x, y, cfg, default_mtry=1)
    oracle = fit_forest_oracle(x, y, cfg, default_mtry=1)
    # JSON text also tells -0.0 from 0.0, which dict equality does not
    assert json.dumps(forest_to_dict(forest)) == json.dumps(forest_to_dict(oracle))
    assert forest.predict(x).tobytes() == predict_oracle(oracle, x).tobytes()


@pytest.mark.parametrize("budget", [1, 50, 700])
def test_any_block_budget_matches_oracle(monkeypatch, budget):
    # split scans and predictions run in blocks of at most _CELL_BUDGET
    # cells; the blocking must not change a bit of the trees or predictions
    monkeypatch.setattr(trees, "_CELL_BUDGET", budget)
    g = np.random.default_rng(12)
    x = np.round(g.normal(size=(120, 5)), 1)
    y = np.sin(x[:, 0]) + g.normal(size=120)
    cfg = ForestConfig(n_trees=9, min_leaf=2, mtry=3, seed=13)
    forest = fit_forest(x, y, cfg, default_mtry=1)
    oracle = fit_forest_oracle(x, y, cfg, default_mtry=1)
    assert json.dumps(forest_to_dict(forest)) == json.dumps(forest_to_dict(oracle))
    assert forest.predict(x).tobytes() == predict_oracle(oracle, x).tobytes()
