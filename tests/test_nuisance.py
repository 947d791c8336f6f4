import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import logistic_oracle
from helpers import constant_propensity
from logistic_oracle import fit_logistic_oracle

from riskratio import (
    ConvergenceError,
    RankDeficiencyError,
    SeparationError,
    ValidationError,
    fit_logistic_mle,
    fit_ols,
)
from riskratio import nuisance
from riskratio.dgp import DGPSpec, generate
from riskratio.nuisance import (
    Constant,
    Linear,
    Logistic,
    OutcomeModel,
    PropensityModel,
    expit,
    fit_logistic_stack,
)


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


def test_logistic_detects_quasi_separation():
    # the tied rows at x = 0 keep their residuals at 0.5, so the score falls
    # below tol at a finite slope while every other row is classified
    x = np.array([[-2.0], [-1.0], [0.0], [0.0], [1.0], [2.0]])
    with pytest.raises(SeparationError, match="quasi-separated"):
        fit_logistic_mle(x, np.array([0, 0, 0, 1, 1, 1]))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=12, unique=True),
    st.lists(st.tuples(st.integers(0, 11), st.booleans()), max_size=10),
)
@example(values=[0, 1], extra=[])
def test_quasi_separation_never_trips_when_every_x_has_both_labels(values, extra):
    # each distinct x carries both labels, so no index separates the arms
    # and the MLE is finite
    rows = [(v, label) for v in values for label in (0, 1)]
    rows += [(values[i % len(values)], int(label)) for i, label in extra]
    x = np.array([[float(v)] for v, _ in rows])
    t = np.array([label for _, label in rows])
    model = fit_logistic_mle(x, t)
    assert np.isfinite(model.surface.coef).all()


def test_logistic_preconditions():
    with pytest.raises(ValidationError):
        fit_logistic_mle(np.zeros((2, 3)), np.array([1, 0]))
    with pytest.raises(ValidationError):
        fit_logistic_mle(np.zeros((5, 1)), np.ones(5, dtype=int))


@pytest.mark.parametrize("seed", [2840, 4940])
def test_logistic_stalled_at_rounding_floor_returns_model(seed):
    # the score stops just above tol while every accepted step leaves the
    # likelihood unchanged; once max_iter runs out the fit is accepted
    x, t = _outlier_sample(seed)
    model = fit_logistic_mle(x, t)
    xt = np.column_stack([np.ones(len(t)), x])
    beta = np.concatenate([[model.surface.intercept], model.surface.coef])
    score = xt.T @ (t - expit(xt @ beta)) / len(t)
    assert 1e-8 < np.max(np.abs(score)) <= 1e-7


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


@pytest.mark.parametrize("third", ["copy", "zeros", "ones"])
def test_logistic_rank_deficiency_names_column(third):
    # a repeated column, a zero column and a second intercept make the
    # information matrix singular; that is a design fault, not separation
    g = np.random.default_rng(5)
    x1, x2 = g.normal(size=(2, 200))
    t = (g.random(200) < 0.5).astype(int)
    x3 = {"copy": x1, "zeros": np.zeros(200), "ones": np.ones(200)}[third]
    with pytest.raises(RankDeficiencyError, match="design column 3"):
        fit_logistic_mle(np.column_stack([x1, x2, x3]), t)


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
    with pytest.raises(ValidationError, match="row or a matrix"):
        model.predict(np.zeros((2, 2, 1)))


def test_clip_validation():
    with pytest.raises(ValidationError):
        constant_propensity(0.5, clip=0.7)
    for value in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValidationError, match=r"constant propensity must lie in \(0, 1\)"):
            PropensityModel(Constant(value))


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
        held = expit(s, np.exp(-np.abs(s)))  # as the Newton loop calls it
    want = logistic_oracle.expit(s)
    assert got.shape == want.shape and got.dtype == want.dtype
    hexes = [v.hex() for v in want.ravel().tolist()]
    # one division by 1 + e rounds as the two divisions it replaced did
    for other in (got, held, logistic_oracle.expit_two_divisions(s)):
        assert [v.hex() for v in other.ravel().tolist()] == hexes


def test_likelihood_terms_stay_within_ulps_of_logaddexp():
    # max(s, 0) + log1p(exp(-|s|)) - t s against logaddexp(0, s) - t s, row
    # by row, in ulps of the larger of the two operands of the subtraction
    tiny = np.geomspace(5e-324, 1.0, 3000)
    s = np.concatenate([np.linspace(0.0, 750.0, 300_001), tiny, [0.0]])
    s = np.concatenate([s, -s])  # -0.0 too
    for label in (0.0, 1.0):
        t = np.full(s.shape, label)
        got = nuisance._neg_log_likelihood(s[:, None], t[:, None], np.exp(-np.abs(s))[:, None])
        softplus = np.logaddexp(0.0, s)
        ulps = np.abs(got - (softplus - t * s)) / np.spacing(np.maximum(softplus, np.abs(t * s)))
        assert ulps.max() <= 4.0


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
        except (ValidationError, RankDeficiencyError, ConvergenceError, SeparationError) as exc:
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


def _separated(n=200):
    x = np.random.default_rng(1).normal(size=(n, 1))
    return x, (x[:, 0] > 0).astype(float)


# name -> (sample, fit options, step-halvings the fit makes)
_FITS = {
    "lunceford": (lambda: _lunceford(400), {}, 0),
    "one halving": (lambda: _outlier_sample(334), {}, 1),
    "19 halvings": (lambda: _outlier_sample(4770), {}, 19),
    "separated": (_separated, {}, 0),
    "diverging": (lambda: (_separated(30)[0] * 1e-2, _separated(30)[1]), {}, 0),
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


@pytest.mark.parametrize(
    "name, error, evaluations",
    [("rank deficient", RankDeficiencyError, 1), ("one arm", ValidationError, 0)],
)
def test_fits_that_cannot_step_stop_at_once(monkeypatch, name, error, evaluations):
    # the rank-deficient fit evaluates its start and fails its one solve; the
    # one-arm fit is refused before either
    x, t = _STACK_PROBLEMS[name](30)
    got, counts = _fit_counted(monkeypatch, nuisance, fit_logistic_mle, x, t)
    assert got[0] is error
    assert counts == {"nll": evaluations, "steps": evaluations}
    # and so does the last problem of a stack whose other one was refused
    xt, ts = _stack([_STACK_PROBLEMS["one arm"](30), (x, t)])
    fits, counts = _fit_counted(monkeypatch, nuisance, fit_logistic_stack, xt, ts)
    assert [type(fit) for fit in fits] == [ValidationError, error]
    assert counts["nll"] == evaluations


def test_exhausted_line_search_matches_newton_oracle(monkeypatch):
    # block every likelihood whose index is away from zero until one within
    # 2**-40 of a Newton step from zero is seen: all 40 candidates of the first
    # step fail, and the fit must take the 2**-40 step and re-evaluate there,
    # as the oracle did
    x, t = _lunceford(300)
    n = len(t)
    xt = np.column_stack([np.ones(n), x])
    step = np.linalg.solve(xt.T @ xt * 0.25 / n, xt.T @ (t - 0.5) / n)
    floor = np.max(np.abs(xt @ step)) * 2.0**-39.5

    def fit_blocked(module, fit):
        nll = module._neg_log_likelihood
        blocked = [True]

        def blocking(s, t, *e):  # the library passes exp(-|s|) as well
            size = np.max(np.abs(s))
            if blocked[0] and size > 0.0:
                if size > floor:
                    return np.inf
                blocked[0] = False
            return nll(s, t, *e)

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


def _fit_or_error(fit):
    """The hex of a fit's coefficients, or its error's class and message."""
    if isinstance(fit, Exception):
        return type(fit), str(fit)
    return [fit.surface.intercept.hex()] + [c.hex() for c in fit.surface.coef.tolist()]


def _fit_alone(x, t, **options):
    try:
        return _fit_or_error(fit_logistic_mle(x, t, **options))
    except (ValidationError, RankDeficiencyError, SeparationError, ConvergenceError) as exc:
        return _fit_or_error(exc)


def _stack(problems):
    xt = np.stack([np.column_stack([np.ones(len(t)), x]) for x, t in problems])
    return xt, np.stack([np.asarray(t, dtype=float) for _, t in problems])


def _overlapping(seed, n):
    g = np.random.default_rng(seed)
    x = g.normal(size=(n, 1))
    return x, (g.random(n) < expit(x[:, 0])).astype(float)


def _quasi_separated(n):
    x = np.linspace(-2.0, 2.0, n).reshape(-1, 1)
    t = (x[:, 0] > 0).astype(float)
    x[:2, 0] = 0.0
    t[:2] = (0.0, 1.0)  # two tied rows on the boundary, one of each label
    return x, t


def _rank_deficient(n):
    t = np.zeros(n)
    t[: n // 3] = 1.0
    return np.zeros((n, 1)), t


# problems of one covariate at any row count n >= 12, as (x, t) makers
_STACK_PROBLEMS = {
    "overlap": lambda n: _overlapping(7, n),
    "overlap 2": lambda n: _overlapping(8, n),
    "overlap 3": lambda n: _overlapping(13, n),
    "one halving": lambda n: _outlier_sample(334, n),
    "19 halvings": lambda n: _outlier_sample(4770, n),
    "36 halvings": lambda n: _outlier_sample(30810, n),
    "stalled": lambda n: _outlier_sample(2840, n),
    "stalled 2": lambda n: _outlier_sample(4940, n),
    "separated": _separated,
    "diverging": lambda n: (_separated(n)[0] * 1e-2, _separated(n)[1]),
    "quasi-separated": _quasi_separated,
    "rank deficient": _rank_deficient,
    "one arm": lambda n: (np.ones((n, 1)), np.ones(n)),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([30, 200]),
    st.lists(st.sampled_from(sorted(_STACK_PROBLEMS)), min_size=1, max_size=6),
    st.sampled_from([3, 100]),
)
@example(n=30, names=["overlap", "rank deficient", "one halving"], max_iter=100)
@example(n=30, names=["overlap", "19 halvings", "stalled", "36 halvings"], max_iter=100)
@example(n=30, names=["stalled", "36 halvings", "stalled 2"], max_iter=100)
# after 5 iterations the first has stalled within 10 * tol and is accepted,
# while the second still makes progress just above tol and is not
@example(n=30, names=["stalled", "overlap 3"], max_iter=5)
def test_stacked_logistic_fits_equal_fits_alone(n, names, max_iter):
    problems = [_STACK_PROBLEMS[name](n) for name in names]
    stacked = fit_logistic_stack(*_stack(problems), max_iter=max_iter)
    alone = [_fit_alone(x, t, max_iter=max_iter) for x, t in problems]
    assert [_fit_or_error(fit) for fit in stacked] == alone


def test_rejected_steps_of_a_stack_halve_together(monkeypatch):
    # both problems reject the steps of some same iterations: those halvings
    # must evaluate them together, where a problem halving alone is one row
    problems = [_STACK_PROBLEMS["19 halvings"](30), _STACK_PROBLEMS["36 halvings"](30)]
    events = []
    evaluate, solve = nuisance._evaluate, np.linalg.solve
    monkeypatch.setattr(nuisance, "_evaluate", lambda *a: events.append(len(a[2])) or evaluate(*a))
    monkeypatch.setattr(np.linalg, "solve", lambda *a: events.append("solve") or solve(*a))
    stacked = [_fit_or_error(fit) for fit in fit_logistic_stack(*_stack(problems))]
    monkeypatch.undo()
    # the start and each step evaluate the whole stack; any other evaluation
    # of two problems is a shared halving
    assert events.count(2) > 1 + events.count("solve")
    assert stacked == [_fit_alone(x, t) for x, t in problems]


def test_a_singular_problem_in_a_stack_falls_back_to_solving_each_alone(monkeypatch):
    # numpy raises for a whole stacked solve when one matrix is singular;
    # that problem must get its own error and the others go on
    problems = [_overlapping(7, 30), _rank_deficient(30), _outlier_sample(83)]
    shapes = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: shapes.append(a.shape) or solve(a, b))
    stacked = [_fit_or_error(fit) for fit in fit_logistic_stack(*_stack(problems))]
    assert shapes[:4] == [(3, 2, 2), (1, 2, 2), (1, 2, 2), (1, 2, 2)]
    monkeypatch.undo()
    assert stacked == [_fit_alone(x, t) for x, t in problems]
    message = "design column 1 is linearly dependent on earlier columns"
    assert stacked[1] == (RankDeficiencyError, message)
    assert isinstance(stacked[0], list) and isinstance(stacked[2], list)
