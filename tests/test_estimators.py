import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import constant_outcome, constant_propensity, dataset_from, random_dataset
from riskratio import (
    ArmFunctionals,
    EstimationError,
    ForestConfig,
    NuisanceRecipe,
    RankDeficiencyError,
    SeparationError,
    ValidationError,
    arm_functionals,
    crossfit_nuisances,
    make_folds,
    rr_aipw,
    rr_g,
    rr_ht,
    rr_ipw,
    rr_neyman,
    rr_os,
)
from riskratio import nuisance, trees
from riskratio.dgp import DGPSpec, KINDS, generate, oracle_models, true_rr
from riskratio.estimators import FoldPartition, fit_outcomes, fit_propensity
from riskratio.nuisance import fit_forest_classifier, fit_forest_regressor
from riskratio.rng import derive_seed

LUNCEFORD_TRUE_RR = 2.0 / 2.55 + 1.0  # closed form of the mixture design


def oracle_recipe(kind):
    e_model, mu0, mu1 = oracle_models(kind)
    return NuisanceRecipe(propensity=e_model, outcome=(mu0, mu1))


class TestNeyman:
    def test_unit_outcomes(self):
        d = dataset_from(t=[1, 0, 1, 0], y=[1, 1, 1, 1])
        assert rr_neyman(d).value == 1.0

    def test_arm_means_ratio(self):
        d = dataset_from(t=[1, 1, 0, 0], y=[2, 4, 1, 3])
        assert rr_neyman(d).value == 1.5

    def test_zero_control_mean_degenerates(self):
        d = dataset_from(t=[1, 1, 0, 0], y=[2, 4, 0, 0])
        point = rr_neyman(d)
        assert point.degenerate and point.value == 0.0

    def test_empty_arm_is_an_error(self):
        with pytest.raises(ValidationError):
            rr_neyman(dataset_from(t=[1, 1], y=[1, 2]))


class TestHorvitzThompson:
    def test_collapses_to_neyman_at_empirical_share(self):
        for seed in range(30):
            d = random_dataset(seed)
            got = rr_ht(d, d.n1 / d.n).value
            assert got == pytest.approx(rr_neyman(d).value, abs=1e-12)

    def test_constant_outcome_balanced(self):
        d = dataset_from(t=[1, 0, 1, 0], y=[3, 3, 3, 3])
        assert rr_ht(d, 0.5).value == 1.0

    def test_all_treated_degenerates(self):
        point = rr_ht(dataset_from(t=[1, 1], y=[1, 2]), 0.5)
        assert point.degenerate and point.value == 0.0

    def test_e_out_of_range(self):
        d = dataset_from(t=[1, 0], y=[1, 2])
        for e in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                rr_ht(d, e)


class TestIPW:
    def test_constant_model_collapses_to_neyman(self):
        for seed in range(30):
            d = random_dataset(seed + 100)
            model = constant_propensity(d.n1 / d.n, clip=1e-9)
            value = rr_ipw(d, model.predict(d.x)).value
            assert value == pytest.approx(rr_neyman(d).value, abs=1e-12)

    def test_oracle_propensity_near_truth(self):
        sample = generate(DGPSpec(kind="lunceford", n=10_000, seed=21))
        e_model, _, _ = oracle_models("lunceford")
        assert rr_ipw(sample.dataset, e_model.predict(sample.dataset.x)).value == pytest.approx(
            LUNCEFORD_TRUE_RR, abs=0.15
        )

    def test_unit_outcome_positive(self):
        d = random_dataset(7)
        d = dataset_from(t=d.t, y=np.ones(d.n), x=d.x)
        model = constant_propensity(0.3)
        value = rr_ipw(d, model.predict(d.x)).value
        assert np.isfinite(value) and value > 0


class TestGFormula:
    def test_constant_models(self):
        d = random_dataset(8)
        mu0, mu1 = constant_outcome(1.0).predict(d.x), constant_outcome(2.0).predict(d.x)
        assert rr_g(mu0, mu1).value == 2.0

    def test_ols_on_linear_design(self):
        from riskratio import fit_ols

        sample = generate(DGPSpec(kind="linear_rct", n=50_000, seed=22))
        d = sample.dataset
        mu0 = fit_ols(d.x[d.t == 0], d.y[d.t == 0], arm=0)
        mu1 = fit_ols(d.x[d.t == 1], d.y[d.t == 1], arm=1)
        assert rr_g(mu0.predict(d.x), mu1.predict(d.x)).value == pytest.approx(2.0, abs=0.05)

    def test_zero_baseline_degenerates(self):
        d = random_dataset(9)
        point = rr_g(constant_outcome(0.0).predict(d.x), constant_outcome(2.0).predict(d.x))
        assert point.degenerate and point.value == 0.0


class TestFolds:
    def test_balanced_sizes(self):
        folds = make_folds(10, 5, seed=1)
        _, counts = np.unique(folds.assignment, return_counts=True)
        assert np.array_equal(counts, [2, 2, 2, 2, 2])

    def test_uneven_sizes(self):
        folds = make_folds(7, 3, seed=2)
        _, counts = np.unique(folds.assignment, return_counts=True)
        assert sorted(counts) == [2, 2, 3]

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            make_folds(3, 4, seed=0)
        with pytest.raises(ValidationError):
            make_folds(10, 1, seed=0)

    @pytest.mark.parametrize(
        "k, assignment, message",
        [
            (3, [1, 1, 2, 2], "cover"),  # id 3 missing
            (2, [0, 0, 1, 1], "cover"),  # ids start at 0
            (2, [1, 1, 1, 2], "at most one"),
        ],
    )
    def test_partition_invariants(self, k, assignment, message):
        with pytest.raises(ValidationError, match=message):
            FoldPartition(k=k, assignment=np.array(assignment))

    def test_deterministic_in_seed(self):
        a = make_folds(40, 5, seed=3)
        b = make_folds(40, 5, seed=3)
        c = make_folds(40, 5, seed=4)
        assert np.array_equal(a.assignment, b.assignment)
        assert not np.array_equal(a.assignment, c.assignment)


class TestCrossfit:
    def test_oracle_augmented_mean_hits_treated_mean(self):
        # E[Y(1)] = 2 + E[baseline] = 4.55 on the mixture design
        sample = generate(DGPSpec(kind="lunceford", n=20_000, seed=23))
        folds = make_folds(20_000, 5, seed=1)
        scores = crossfit_nuisances(sample.dataset, folds, oracle_recipe("lunceford"))
        af = arm_functionals(scores)
        assert af.tau_aipw_1 == pytest.approx(4.55, abs=0.15)
        assert af.tau_aipw_0 == pytest.approx(2.55, abs=0.15)

    def test_fold_counts_agree_within_noise(self):
        sample = generate(DGPSpec(kind="lunceford", n=2_000, seed=24))
        recipe = NuisanceRecipe()
        scores2 = crossfit_nuisances(sample.dataset, make_folds(2000, 2, 5), recipe)
        scores5 = crossfit_nuisances(sample.dataset, make_folds(2000, 5, 5), recipe)
        af2 = arm_functionals(scores2)
        af5 = arm_functionals(scores5)
        v2, v5 = rr_aipw(af2).value, rr_aipw(af5).value
        assert np.isfinite(v2) and np.isfinite(v5)
        assert abs(v2 - v5) < 0.2

    def test_perfect_constant_nuisances_are_exact(self):
        d = dataset_from(t=[1, 0, 1, 0, 1, 0], y=np.ones(6))
        recipe = NuisanceRecipe(
            propensity=constant_propensity(0.5),
            outcome=(constant_outcome(1.0), constant_outcome(1.0)),
        )
        af = arm_functionals(crossfit_nuisances(d, make_folds(6, 3, 0), recipe))
        assert af.tau_aipw_1 == 1.0 and af.tau_aipw_0 == 1.0
        assert rr_aipw(af).value == 1.0

    def test_empty_arm_complement_reshuffles_then_errors(self):
        # a single treated unit leaves one complement with no treated rows
        # for every possible partition, so the one reshuffle cannot help
        d = dataset_from(t=[1, 0, 0, 0, 0, 0], y=[1.0, 2.0, 1.5, 2.5, 2.0, 1.0])
        recipe = NuisanceRecipe(propensity=constant_propensity(0.5), outcome="ols")
        with pytest.raises(EstimationError, match="empty"):
            crossfit_nuisances(d, make_folds(6, 3, seed=0), recipe)

    def test_reshuffle_rescues_a_bad_partition(self):
        # intercept-only outcome fits keep arm emptiness the only failure mode
        d = dataset_from(
            t=[1, 1, 0, 0, 0, 0, 0, 0],
            y=[2.0, 3.0, 1.0, 1.5, 2.0, 2.5, 1.2, 1.8],
            x=np.zeros((8, 0)),
        )
        recipe = NuisanceRecipe(propensity=constant_propensity(0.5), outcome="ols")
        rescued = errored = 0
        for seed in range(60):
            folds = make_folds(8, 2, seed=seed)
            same_fold = folds.assignment[0] == folds.assignment[1]
            try:
                scores = crossfit_nuisances(d, folds, recipe)
            except EstimationError:
                # the single reshuffle attempt drew another bad partition
                assert same_fold
                errored += 1
                continue
            if same_fold:  # initial partition was unusable; reshuffle saved it
                rescued += 1
                assert not np.array_equal(scores.folds.assignment, folds.assignment)
        assert rescued > 0 and errored > 0

    def test_assignment_length_must_match_dataset(self):
        d = dataset_from(t=[1, 0, 1, 0, 1, 0], y=np.ones(6))
        with pytest.raises(ValidationError, match="length"):
            crossfit_nuisances(d, make_folds(4, 2, seed=0), NuisanceRecipe())

    def test_bad_partition_without_seed_errors(self):
        d = dataset_from(t=[1, 0, 0, 0], y=[1.0, 2.0, 1.0, 2.0])
        recipe = NuisanceRecipe(propensity=constant_propensity(0.5), outcome="ols")
        folds = FoldPartition(k=2, assignment=np.array([1, 1, 2, 2]), seed=None)
        with pytest.raises(EstimationError):
            crossfit_nuisances(d, folds, recipe)


def _per_fold_nuisances(d, folds, recipe):
    """Out-of-fold e, mu0, mu1 from one fold at a time, fitted and scored in turn."""
    e, mu0, mu1 = np.empty(d.n), np.empty(d.n), np.empty(d.n)
    for k in range(1, folds.k + 1):
        held = folds.assignment == k
        train = ~held
        e_model = fit_propensity(d.x[train], d.t[train], recipe, k)
        m0, m1 = fit_outcomes(d.x[train], d.t[train], d.y[train], recipe, k)
        e[held] = e_model.predict(d.x[held])
        mu0[held] = m0.predict(d.x[held])
        mu1[held] = m1.predict(d.x[held])
    return e, mu0, mu1


@pytest.mark.parametrize(
    "k, propensity, outcome",
    [(2, "forest", "forest"), (5, "forest", "forest"), (2, "forest", "ols")],
)
def test_crossfit_forests_grown_together_equal_per_fold_fits(k, propensity, outcome):
    d = generate(DGPSpec(kind="wager_nl_nonlogistic", n=150, seed=27)).dataset
    recipe = NuisanceRecipe(propensity, outcome, forest=ForestConfig(n_trees=8, seed=28))
    folds = make_folds(150, k, seed=29)
    scores = crossfit_nuisances(d, folds, recipe)
    assert scores.folds is folds  # not redrawn, so both sides use the same folds
    expected = _per_fold_nuisances(d, folds, recipe)
    for got, want in zip((scores.e, scores.mu0, scores.mu1), expected):
        assert got.tobytes() == want.tobytes()


# 151 rows leave fold complements of two sizes at every k here, so the
# cross-fit solves its logistic problems in two stacks
@pytest.mark.parametrize("outcome", ["ols", "forest"])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_crossfit_logistic_stacks_equal_per_fold_fits(monkeypatch, k, outcome):
    d = generate(DGPSpec(kind="lunceford", n=151, seed=33)).dataset
    recipe = NuisanceRecipe("logistic", outcome, forest=ForestConfig(n_trees=8, seed=34))
    folds = make_folds(151, k, seed=35)
    stacks = []
    solve = nuisance.fit_logistic_stack

    def recording(xt, t, **options):
        stacks.append(xt.shape)
        return solve(xt, t, **options)

    monkeypatch.setattr(nuisance, "fit_logistic_stack", recording)
    scores = crossfit_nuisances(d, folds, recipe)
    assert scores.folds is folds
    sizes = np.bincount(folds.assignment)[1:]
    assert sorted(stacks) == sorted((int(np.sum(sizes == m)), 151 - m, 7) for m in set(sizes))
    monkeypatch.undo()
    expected = _per_fold_nuisances(d, folds, recipe)
    for got, want in zip((scores.e, scores.mu0, scores.mu1), expected):
        assert got.tobytes() == want.tobytes()


def _faulty_folds(separated, constant):
    """A sample whose propensity is separated on the complement of fold
    ``separated`` and whose arm-0 outcome design is rank deficient on the
    complement of fold ``constant``, with its three folds."""
    base = generate(DGPSpec(kind="lunceford", n=151, seed=36)).dataset
    folds = make_folds(151, 3, seed=37)
    a, t = folds.assignment, base.t
    side = np.where(t == 1, 1.0, -1.0)
    split = np.where(a == separated, -side, side)  # separates the arms outside that fold
    level = np.random.default_rng(38).normal(size=151)
    level[(t == 0) & (a != constant)] = 1.0  # a second intercept for those controls
    x = np.column_stack([base.x[:, :2], split, level])
    return dataset_from(t=t, y=base.y, x=x), folds


@pytest.mark.parametrize(
    "separated, constant, error",
    [(2, 1, RankDeficiencyError), (1, 2, SeparationError), (2, 2, SeparationError)],
)
def test_crossfit_logistic_failures_raise_in_per_fold_order(separated, constant, error):
    # the first failure in fold order, a fold's propensity before its outcomes
    d, folds = _faulty_folds(separated, constant)
    recipe = NuisanceRecipe("logistic", "ols")
    with pytest.raises(error) as per_fold:
        _per_fold_nuisances(d, folds, recipe)
    with pytest.raises(error) as together:
        crossfit_nuisances(d, folds, recipe)
    assert str(together.value) == str(per_fold.value)


def test_crossfit_rejects_a_small_arm_before_growing_any_forest(monkeypatch):
    # 6 treated of 40: a fold complement keeps at most 5 treated rows, under
    # the 10 rows a forest needs, while every propensity forest gets 20 rows
    t = np.zeros(40, dtype=int)
    t[::7] = 1
    d = dataset_from(t=t, y=np.linspace(1.0, 2.0, 40))
    recipe = NuisanceRecipe("forest", "forest", forest=ForestConfig(n_trees=3, seed=1))
    folds = make_folds(40, 2, seed=0)
    with pytest.raises(ValidationError) as per_fold:
        _per_fold_nuisances(d, folds, recipe)
    grown = []
    monkeypatch.setattr(trees, "_grow_forest", lambda *args: grown.append(args))
    with pytest.raises(ValidationError) as together:
        crossfit_nuisances(d, folds, recipe)
    assert type(together.value) is type(per_fold.value)
    assert str(together.value) == str(per_fold.value)
    assert "need at least 10 rows" in str(together.value)
    assert grown == []


def _one_forest_at_a_time(d, folds, recipe):
    """Out-of-fold e, mu0, mu1 with one fold's three forests grown apart, then scored."""
    e, mu0, mu1 = np.empty(d.n), np.empty(d.n), np.empty(d.n)
    for k in range(1, folds.k + 1):
        held = folds.assignment == k
        x, t, y = d.x[~held], d.t[~held], d.y[~held]

        def cfg(*keys):
            return replace(recipe.forest, seed=derive_seed(recipe.forest.seed, k, *keys))

        e_model = fit_forest_classifier(x, t, cfg(), clip=recipe.clip)
        m0, m1 = (fit_forest_regressor(x[t == a], y[t == a], cfg(a), arm=a) for a in (0, 1))
        e[held] = e_model.predict(d.x[held])
        mu0[held] = m0.predict(d.x[held])
        mu1[held] = m1.predict(d.x[held])
    return e, mu0, mu1


# k=3 folds of 150 rows, 8 trees: a fold's forests hold 8 * (100 + 100)
# row-buffer cells, 800 for the propensity and 800 for the two arms together
@pytest.mark.parametrize(
    "cap, fold_events",
    [
        (1, ["grow"] * 3 + ["predict"] * 3),  # every forest alone
        (2000, ["grow"] + ["predict"] * 3),  # one fold per batch
        (1 << 20, None),  # the whole cross-fit in one batch
    ],
)
def test_crossfit_batches_whole_folds_and_scores_them_before_the_next(
    monkeypatch, cap, fold_events
):
    d = generate(DGPSpec(kind="wager_nl_nonlogistic", n=150, seed=27)).dataset
    recipe = NuisanceRecipe("forest", "forest", forest=ForestConfig(n_trees=8, seed=28))
    folds = make_folds(150, 3, seed=29)
    monkeypatch.setattr(trees, "_BATCH_CELLS", cap)
    events = []
    grow, predict = trees._grow_forest, trees.Forest.predict
    monkeypatch.setattr(trees, "_grow_forest", lambda jobs: events.append("grow") or grow(jobs))
    monkeypatch.setattr(
        trees.Forest, "predict", lambda self, x: events.append("predict") or predict(self, x)
    )
    scores = crossfit_nuisances(d, folds, recipe)
    assert events == (fold_events * 3 if fold_events else ["grow"] + ["predict"] * 9)
    expected = _one_forest_at_a_time(d, folds, recipe)
    for got, want in zip((scores.e, scores.mu0, scores.mu1), expected):
        assert got.tobytes() == want.tobytes()


def test_crossfit_batches_that_straddle_folds_score_each_fold_once_its_forests_grew(monkeypatch):
    # a cap of 1.5 folds of the cells above: the first batch ends after
    # fold 2's propensity, the second holds the rest
    d = generate(DGPSpec(kind="wager_nl_nonlogistic", n=150, seed=27)).dataset
    recipe = NuisanceRecipe("forest", "forest", forest=ForestConfig(n_trees=8, seed=28))
    folds = make_folds(150, 3, seed=29)
    monkeypatch.setattr(trees, "_BATCH_CELLS", 2400)
    events = []
    grow, predict = trees._grow_forest, trees.Forest.predict
    monkeypatch.setattr(trees, "_grow_forest", lambda jobs: events.append(len(jobs)) or grow(jobs))
    monkeypatch.setattr(
        trees.Forest, "predict", lambda self, x: events.append("predict") or predict(self, x)
    )
    scores = crossfit_nuisances(d, folds, recipe)
    assert events == [4] + ["predict"] * 3 + [5] + ["predict"] * 6
    expected = _one_forest_at_a_time(d, folds, recipe)
    for got, want in zip((scores.e, scores.mu0, scores.mu1), expected):
        assert got.tobytes() == want.tobytes()


def _traced_peak(fit):
    tracemalloc.start()
    try:
        fit()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_crossfit_past_the_batch_cap_peaks_like_one_forest_at_a_time(monkeypatch):
    # with the cap under one forest's cells, every forest grows alone, as on
    # a large sample; the cross-fit must then hold one fold's forests at a
    # time, not all 15
    d = generate(DGPSpec(kind="wager_nl_nonlogistic", n=200, seed=3)).dataset
    recipe = NuisanceRecipe("forest", "forest", forest=ForestConfig(n_trees=10, seed=4))
    folds = make_folds(200, 5, seed=5)
    monkeypatch.setattr(trees, "_BATCH_CELLS", 300)
    one_at_a_time = _traced_peak(lambda: _one_forest_at_a_time(d, folds, recipe))
    crossfit = _traced_peak(lambda: crossfit_nuisances(d, folds, recipe))
    assert crossfit <= 1.25 * one_at_a_time


def test_crossfit_peak_does_not_grow_with_the_fold_count(monkeypatch):
    # a fold's forests hold 3,200 row-buffer cells at k=5 and 3,600 at
    # k=10, so batches of at most 4,800 end inside folds at both
    d = generate(DGPSpec(kind="wager_nl_nonlogistic", n=200, seed=3)).dataset
    recipe = NuisanceRecipe("forest", "forest", forest=ForestConfig(n_trees=10, seed=4))
    monkeypatch.setattr(trees, "_BATCH_CELLS", 4800)
    five, ten = [
        _traced_peak(lambda: crossfit_nuisances(d, make_folds(200, k, seed=5), recipe))
        for k in (5, 10)
    ]
    assert ten <= 1.25 * five


def test_forest_propensity_rejects_its_clip_before_growing_any_forest(monkeypatch):
    d = generate(DGPSpec(kind="wager_nl_nonlogistic", n=100, seed=3)).dataset
    recipe = NuisanceRecipe("forest", "forest", clip=0.7, forest=ForestConfig(n_trees=3))
    grown = []
    monkeypatch.setattr(trees, "_grow_forest", lambda *args: grown.append(args))
    with pytest.raises(ValidationError, match=r"clip must lie in \(0, 1/2\]"):
        crossfit_nuisances(d, make_folds(100, 2, seed=0), recipe)
    with pytest.raises(ValidationError, match="clip must lie"):
        fit_forest_classifier(d.x, d.t, clip=0.0)
    assert grown == []


def test_outcome_fit_needs_both_arms():
    x = np.zeros((4, 1))
    with pytest.raises(EstimationError, match="arm 0 is empty"):
        fit_outcomes(x, np.ones(4, dtype=int), np.ones(4), NuisanceRecipe())


def test_recipe_rejects_unknown_learner_names():
    for kwargs in (dict(propensity="fixed"), dict(outcome="fixed"), dict(propensity="ols")):
        with pytest.raises(ValidationError, match="unknown"):
            NuisanceRecipe(**kwargs)


class TestOneStepAndAIPW:
    def test_formula_arithmetic(self):
        af = ArmFunctionals(tau_g_1=3.0, tau_g_0=2.0, tau_aipw_1=2.0, tau_aipw_0=1.0)
        assert rr_os(af).value == pytest.approx((3 / 2) * (1 - 1 / 2) + 2 / 2)

    def test_agreeing_functionals(self):
        af = ArmFunctionals(tau_g_1=2.0, tau_g_0=1.0, tau_aipw_1=2.0, tau_aipw_0=1.0)
        assert rr_os(af).value == 2.0

    def test_coincides_with_aipw_when_denominators_agree(self):
        for seed in range(20):
            g = np.random.default_rng(seed)
            a0 = g.uniform(0.5, 3.0)
            af = ArmFunctionals(
                tau_g_1=g.uniform(0.5, 3.0),
                tau_g_0=a0,
                tau_aipw_1=g.uniform(0.5, 3.0),
                tau_aipw_0=a0,
            )
            assert rr_os(af).value == rr_aipw(af).value

    def test_degenerate_fallbacks(self):
        af = ArmFunctionals(tau_g_1=1.0, tau_g_0=0.0, tau_aipw_1=1.0, tau_aipw_0=0.0)
        assert rr_os(af).degenerate and rr_os(af).value == 0.0
        assert rr_aipw(af).degenerate and rr_aipw(af).value == 0.0

    def test_aipw_ratio(self):
        af = ArmFunctionals(tau_g_1=9.0, tau_g_0=9.0, tau_aipw_1=3.0, tau_aipw_0=3.0)
        assert rr_aipw(af).value == 1.0

    def test_linear_nuisances_near_truth(self):
        sample = generate(DGPSpec(kind="lunceford", n=5_000, seed=25))
        folds = make_folds(5_000, 5, seed=2)
        scores = crossfit_nuisances(sample.dataset, folds, NuisanceRecipe())
        af = arm_functionals(scores)
        assert rr_aipw(af).value == pytest.approx(LUNCEFORD_TRUE_RR, abs=0.1)


@given(
    y_base=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=30),
    scale=st.floats(0.1, 20.0),
    flip=st.integers(0, 2**30),
)
@settings(max_examples=40, deadline=None)
def test_scale_equivariance(y_base, scale, flip):
    g = np.random.default_rng(flip)
    n = len(y_base)
    t = g.integers(0, 2, size=n)
    t[0], t[1] = 1, 0
    y = np.asarray(y_base)
    d = dataset_from(t=t, y=y)
    d_scaled = dataset_from(t=t, y=scale * y)
    assert rr_neyman(d_scaled).value == pytest.approx(rr_neyman(d).value, rel=1e-9)
    assert rr_ht(d_scaled, 0.4).value == pytest.approx(rr_ht(d, 0.4).value, rel=1e-9)
    model = constant_propensity(0.6)
    e = model.predict(d.x)
    assert rr_ipw(d_scaled, e).value == pytest.approx(rr_ipw(d, e).value, rel=1e-9)
    mu0, mu1 = constant_outcome(1.3), constant_outcome(2.1)
    mu0_s, mu1_s = constant_outcome(1.3 * scale), constant_outcome(2.1 * scale)
    assert rr_g(mu0_s.predict(d.x), mu1_s.predict(d.x)).value == pytest.approx(
        rr_g(mu0.predict(d.x), mu1.predict(d.x)).value, rel=1e-9
    )


def test_point_estimates_deterministic():
    sample = generate(DGPSpec(kind="lunceford", n=1_000, seed=26))
    recipe = NuisanceRecipe()
    runs = []
    for _ in range(2):
        folds = make_folds(1_000, 5, seed=7)
        af = arm_functionals(crossfit_nuisances(sample.dataset, folds, recipe))
        runs.append((rr_aipw(af).value, rr_os(af).value))
    assert runs[0] == runs[1]


def test_constant_design_notes_attached():
    d = dataset_from(t=[1, 0], y=[1.0, 2.0])
    assert rr_neyman(d).notes
    assert rr_ht(d, 0.5).notes


@pytest.mark.slow
def test_oracle_estimates_tighten_with_sample_size():
    # with true nuisances the error of the augmented ratio shrinks as n grows
    reps = 100
    for kind in KINDS:
        truth = 2.0 if kind == "linear_rct" else true_rr(kind, 10**5, seed=9).value
        recipe = oracle_recipe(kind)
        errors = {}
        for n in (500, 5_000):
            errs = []
            for rep in range(reps):
                sample = generate(DGPSpec(kind=kind, n=n, seed=31_000 + 7 * rep))
                folds = make_folds(n, 2, seed=rep)
                scores = crossfit_nuisances(sample.dataset, folds, recipe)
                af = arm_functionals(scores)
                errs.append(abs(rr_aipw(af).value - truth))
            errors[n] = float(np.median(errs))
        assert errors[5_000] < errors[500], (kind, errors)
