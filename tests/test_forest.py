import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from forest_oracle import fit_forest_oracle, predict_oracle
from helpers import forest_bytes

from riskratio import (
    ForestConfig,
    ValidationError,
    fit_forest_classifier,
    fit_forest_regressor,
)
from riskratio.dgp import DGPSpec, generate
from riskratio import trees
from riskratio.rng import CounterRng
from riskratio.trees import fit_forest


def test_constant_target_predicts_constant():
    g = np.random.default_rng(0)
    x = g.normal(size=(60, 3))
    model = fit_forest_regressor(x, np.full(60, 5.0), ForestConfig(n_trees=10, seed=1))
    assert np.allclose(model.predict(x), 5.0)


def test_regressor_beats_constant_predictor_on_nonlinear_surface():
    # smooth non-linear target; the bar is the variance of the target itself
    train = generate(DGPSpec(kind="wager_nl_logistic", n=2_000, seed=7, noise_sd=0.0))
    test = generate(DGPSpec(kind="wager_nl_logistic", n=2_000, seed=8, noise_sd=0.0))
    oracle_draws = CounterRng(99).normals(10**6) * np.sqrt(3.0)
    target_variance = np.var(2.0 * np.logaddexp(0.0, oracle_draws))
    cfg = ForestConfig(n_trees=100, seed=3)
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
    with pytest.raises(ValidationError, match="need at least 10 rows, got 8"):
        fit_forest_regressor(x, y, ForestConfig())
    with pytest.raises(ValidationError, match="n_trees"):
        fit_forest_regressor(x, y, ForestConfig(n_trees=0))
    with pytest.raises(ValidationError, match="labels"):
        fit_forest_classifier(x, np.full(8, 2.0), ForestConfig())


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


_X_VALUES = st.sampled_from([-1.5, 0.0, 0.25, 2.0, 3.0, 7.5])
# sevenths are inexact, so summing them in another order moves bits
_REAL_Y = st.one_of(st.integers(-700, 700).map(lambda v: v / 7.0), st.floats(-100.0, 100.0))
_BINARY_Y = st.sampled_from([0.0, 1.0])


@st.composite
def forest_problems(draw):
    """Small problems with repeated x values and real, binary or constant y,
    and the job's mtry."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(10, 80))
    x = draw(arrays(np.float64, (n, p), elements=_X_VALUES))
    y_kind = draw(st.sampled_from(["real", "binary", "constant"]))
    if y_kind == "real":
        y = draw(arrays(np.float64, n, elements=_REAL_Y))
    elif y_kind == "binary":
        y = draw(arrays(np.float64, n, elements=_BINARY_Y))
    else:
        y = np.full(n, draw(st.floats(-5.0, 5.0)))
    cfg = ForestConfig(n_trees=draw(st.integers(1, 7)), seed=draw(st.integers(0, 2**32)))
    return x, y, cfg, draw(st.integers(1, p))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(forest_problems())
def test_lockstep_growth_matches_per_node_oracle(problem):
    x = problem[0]
    forest = fit_forest(*problem)
    oracle = fit_forest_oracle(*problem)
    assert forest_bytes(forest) == forest_bytes(oracle)
    assert forest.predict(x).tobytes() == predict_oracle(oracle, x).tobytes()


@pytest.mark.parametrize("budget", [1, 50, 700])
def test_any_block_budget_matches_oracle(monkeypatch, budget):
    # split scans and predictions run in blocks of at most _CELL_BUDGET
    # cells; the blocking must not change a bit of the trees or predictions
    monkeypatch.setattr(trees, "_CELL_BUDGET", budget)
    g = np.random.default_rng(12)
    x = np.round(g.normal(size=(120, 5)), 1)
    y = np.sin(x[:, 0]) + g.normal(size=120)
    cfg = ForestConfig(n_trees=9, seed=13)
    forest = fit_forest(x, y, cfg, mtry=3)
    oracle = fit_forest_oracle(x, y, cfg, mtry=3)
    assert forest_bytes(forest) == forest_bytes(oracle)
    assert forest.predict(x).tobytes() == predict_oracle(oracle, x).tobytes()


def _assert_same_forest(forest, reference, x):
    assert forest_bytes(forest) == forest_bytes(reference)
    assert forest.predict(x).tobytes() == predict_oracle(reference, x).tobytes()


@st.composite
def forest_batches(draw):
    """2-4 jobs with their own row counts, mtry, seeds and targets (the first
    with 0/1 labels), sharing p, so that fit_forests grows them in one batch."""
    p = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(10, 80), min_size=2, max_size=4, unique=True))
    jobs = []
    for i, n in enumerate(sizes):
        x = draw(arrays(np.float64, (n, p), elements=_X_VALUES))
        y = draw(arrays(np.float64, n, elements=_BINARY_Y if i == 0 else _REAL_Y))
        cfg = ForestConfig(n_trees=draw(st.integers(1, 5)), seed=draw(st.integers(0, 2**32)))
        jobs.append((x, y, cfg, draw(st.integers(1, p))))
    return jobs


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(forest_batches())
def test_batched_growth_matches_per_node_oracle(jobs):
    forests = list(trees.fit_forests(jobs))
    assert len(forests) == len(jobs)
    for job, forest in zip(jobs, forests):
        _assert_same_forest(forest, fit_forest_oracle(*job), job[0])


@pytest.mark.parametrize("cap", [1, 600, 1 << 20])
def test_any_batch_cap_matches_oracle(monkeypatch, cap):
    # jobs of 480, 360 and 240 row-buffer cells: each alone at cap 1, the
    # last two together at 600, all three together at 2^20
    monkeypatch.setattr(trees, "_BATCH_CELLS", cap)
    g = np.random.default_rng(14)
    jobs = []
    for n, mtry, labels in [(120, 3, True), (90, 2, False), (60, 5, False)]:
        x = np.round(g.normal(size=(n, 5)), 1)
        y = (x[:, 0] > 0.0).astype(float) if labels else np.sin(x[:, 0]) + g.normal(size=n)
        jobs.append((x, y, ForestConfig(n_trees=4, seed=n), mtry))
    for job, forest in zip(jobs, trees.fit_forests(jobs)):
        _assert_same_forest(forest, fit_forest_oracle(*job), job[0])


def _jobs(*rows):
    """One 3-tree regression job per row count, each of 3 * rows cells."""
    g = np.random.default_rng(16)
    jobs = []
    for n in rows:
        x = g.normal(size=(n, 3))
        y = np.sin(x[:, 0]) + g.normal(size=n)
        jobs.append((x, y, ForestConfig(n_trees=3, seed=n), 1))
    return jobs


def _counting_growth(monkeypatch):
    grown = []
    grow = trees._grow_forest
    monkeypatch.setattr(trees, "_grow_forest", lambda jobs: grown.append(len(jobs)) or grow(jobs))
    return grown


def test_forests_stream_one_batch_per_request(monkeypatch):
    # jobs of 150, 120 and 90 cells: the first alone, the last two together
    monkeypatch.setattr(trees, "_BATCH_CELLS", 210)
    grown = _counting_growth(monkeypatch)
    jobs = _jobs(50, 40, 30)
    forests = trees.fit_forests(jobs)
    assert grown == []
    first = next(forests)
    assert grown == [1]
    rest = list(forests)
    assert grown == [1, 2]
    # forests of one batch own their node arrays: one kept alive keeps no other
    assert rest[0].trees[0].value.base is not rest[1].trees[0].value.base
    for job, forest in zip(jobs, [first, *rest]):
        _assert_same_forest(forest, fit_forest_oracle(*job), job[0])


def test_a_bad_last_job_raises_before_any_batch_grows(monkeypatch):
    monkeypatch.setattr(trees, "_BATCH_CELLS", 210)
    grown = _counting_growth(monkeypatch)
    jobs = _jobs(50, 40, 30)
    x, y, cfg, mtry = jobs[-1]
    y = y.copy()
    y[-1] = np.nan
    with pytest.raises(ValidationError, match="must be finite"):
        trees.fit_forests([*jobs[:-1], (x, y, cfg, mtry)])
    assert grown == []


def test_a_job_without_covariates_raises_before_any_batch_grows(monkeypatch):
    grown = _counting_growth(monkeypatch)
    x, y, cfg, _ = _jobs(50)[0]
    with pytest.raises(ValidationError, match="at least one covariate column"):
        trees.fit_forests([(x, y, cfg, 1), (np.empty((50, 0)), y, cfg, 1)])
    assert grown == []


def test_stacked_rows_past_uint16_ranks_match_forests_grown_alone():
    # 2 x 33,000 stacked rows pass the 65,535 that a uint16 rank table
    # holds, while each job alone stays below it; the targets step up among
    # the largest x, whose ranks would wrap in a uint16 table of ranks taken
    # over the stacked rows.  The step is noise-free, so each tree's root
    # split leaves two constant children and growth stops there.
    g = np.random.default_rng(15)
    jobs = []
    for s in (16, 17):
        x = g.normal(size=(33_000, 2))
        jobs.append((x, (x[:, 0] > 2.0).astype(float), ForestConfig(n_trees=1, seed=s), 2))
    for job, forest in zip(jobs, trees.fit_forests(jobs)):
        _assert_same_forest(forest, fit_forest(*job), job[0])


def _per_node_values(ye, buf, base, m):
    """Each node's value as ``float(np.add.reduce(targets)) / m`` and
    whether its targets vary, one node at a time."""
    ys = [ye[buf[b : b + k]] for b, k in zip(base.tolist(), m.tolist())]
    value = np.array([float(np.add.reduce(t)) / t.size for t in ys])
    return value, np.array([t.min() < t.max() for t in ys])


_DEFAULT_CELL_BUDGET = trees._CELL_BUDGET
_TARGETS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    _REAL_Y,
    st.floats(-1e8, 1e8),
    st.floats(-1e-8, 1e-8),
)


@st.composite
def node_layouts(draw):
    """One round's targets ``ye``, row buffer ``buf`` and nodes ``(base, m)``.

    As in ``trees._grow_forest``, the last target is the padding row's
    ``+0.0`` and the last cell of ``buf`` points at it.  Each node's
    targets are mixed, all ``-0.0`` or all equal, and one node may hold more
    rows than the default ``_CELL_BUDGET``.  Rows are shuffled in ``buf``.
    """
    kinds = st.tuples(st.sampled_from(["mixed", "negative zero", "equal"]), st.integers(1, 120))
    targets = []
    for kind, size in draw(st.lists(kinds, min_size=1, max_size=12)):
        if kind == "mixed":
            targets.append(draw(arrays(np.float64, size, elements=_TARGETS)))
        else:
            targets.append(np.full(size, -0.0 if kind == "negative zero" else draw(_TARGETS)))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        size = _DEFAULT_CELL_BUDGET + draw(st.integers(1, 1000))
        big = g.normal(size=size) * 10.0 ** g.integers(-8, 9, size)
        targets.insert(draw(st.integers(0, len(targets))), big)
    m = np.array([t.size for t in targets])
    rows = g.permutation(int(m.sum()))
    ye = np.zeros(rows.size + 1)
    ye[rows] = np.concatenate(targets)
    return ye, np.append(rows, rows.size), np.cumsum(m) - m, m


@settings(max_examples=150, deadline=None)
@given(node_layouts())
def test_node_values_equal_per_node_sums(layout):
    # one reduceat per run, whatever the runs, sums each node as
    # np.add.reduce sums it alone, bit for bit (-0.0 included)
    want_value, want_varies = _per_node_values(*layout)
    for budget in (1, 50, _DEFAULT_CELL_BUDGET):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trees, "_CELL_BUDGET", budget)
            value, varies = trees._node_values(*layout)
        assert value.tobytes() == want_value.tobytes()
        assert np.array_equal(varies, want_varies)


def test_reduceat_after_zero_slot_equals_reduce():
    # trees._node_values rests on this: np.add.reduce of a vector is +0.0
    # plus numpy's pairwise sum of it, and a reduceat segment is its first
    # element plus the pairwise sum of the rest, so a segment led by a +0.0
    # slot sums as reduce sums the vector alone.  Two lengths pass 8,192,
    # numpy's ufunc buffer size.
    g = np.random.default_rng(17)
    lengths = [*range(1, 5_001), 8_193, 20_000]
    segments = []
    for size in lengths:
        y = g.normal(size=size) * 10.0 ** g.integers(-8, 9, size)
        y[g.random(size) < 0.05] = -0.0
        segments.append(y)
    segments.append(np.full(40, -0.0))
    slotted = np.concatenate([np.append(0.0, y) for y in segments])
    slots = np.cumsum([0] + [y.size + 1 for y in segments[:-1]])
    want = np.array([np.add.reduce(y) for y in segments])
    assert np.add.reduceat(slotted, slots).tobytes() == want.tobytes()


def _stack_peak(tree):
    """Most open nodes on a depth-first stack that grows ``tree``."""
    stack, peak = [0], 1
    while stack:
        node = stack.pop()
        if tree.left[node] != trees._LEAF:
            stack += [tree.right[node], tree.left[node]]
            peak = max(peak, len(stack))
    return peak


def test_deep_trees_grow_their_stacks_and_match_oracle():
    # y doubles every two rows, so each split puts a few of the largest
    # targets in the right child and the trees are 102-105 levels deep; the
    # right children wait on the depth-first stack while the left chain
    # grows, so each stack holds over 100 open nodes and the grower's stack
    # array doubles its initial capacity of 16 three times
    x = np.arange(600.0)[:, None]
    y = 2.0 ** (np.arange(600) / 2)
    cfg = ForestConfig(n_trees=3, seed=5)
    forest = fit_forest(x, y, cfg, mtry=1)
    assert min(_stack_peak(tree) for tree in forest.trees) > 100
    _assert_same_forest(forest, fit_forest_oracle(x, y, cfg, mtry=1), x)


# x and y both count 0..39, so a node of 10 or more rows mostly splits, and a
# split of 10 to 19 rows leaves two leaves of under 10 on top of the stack,
# above the next node that may split
@pytest.mark.parametrize("budget", [1, _DEFAULT_CELL_BUDGET])
def test_rounds_pop_runs_of_leaves_with_the_next_node_that_may_split(monkeypatch, budget):
    monkeypatch.setattr(trees, "_CELL_BUDGET", budget)
    rounds = []  # nodes per round
    values = trees._node_values
    monkeypatch.setattr(trees, "_node_values", lambda *a: rounds.append(a[3].size) or values(*a))
    x = np.arange(40.0)[:, None]
    cfg = ForestConfig(n_trees=1, seed=9)
    forest = fit_forest(x, x[:, 0], cfg, mtry=1)
    assert max(rounds) > 1  # some round pops more than one node
    assert len(rounds) < sum(rounds) == forest.trees[0].feature.size
    _assert_same_forest(forest, fit_forest_oracle(x, x[:, 0], cfg, mtry=1), x)
    # a batch of trees of unequal sizes
    g = np.random.default_rng(18)
    jobs = [(x, x[:, 0], ForestConfig(n_trees=5, seed=9), 1)]
    for n in (30, 70):
        xs = np.round(g.normal(size=(n, 3)), 1)
        jobs.append((xs, np.sin(xs[:, 0]) + g.normal(size=n), ForestConfig(n_trees=4, seed=n), 2))
    for job, grown in zip(jobs, trees.fit_forests(jobs)):
        _assert_same_forest(grown, fit_forest_oracle(*job), job[0])


def test_forest_walk_matches_per_tree_walk_off_the_training_rows():
    # rows on the thresholds, between and beyond them, and NaN, which fails
    # every comparison: it goes right at each split, as in a walk of one
    # tree alone, and stays on its leaf once there
    g = np.random.default_rng(31)
    x = np.round(g.normal(size=(60, 3)), 1)
    y = x[:, 0] + np.sin(x[:, 1]) + g.normal(size=60)
    forest = fit_forest(x, y, ForestConfig(n_trees=7, seed=5), mtry=2)
    thresholds = np.concatenate([t.threshold[t.feature != -1] for t in forest.trees])
    cuts = np.concatenate([thresholds, x.ravel(), [np.inf, -np.inf, np.nan]])
    probe = g.choice(cuts, size=(300, 3))
    assert forest.predict(probe).tobytes() == predict_oracle(forest, probe).tobytes()
    # trees that are one leaf
    stump = fit_forest(x, np.full(60, 2.5), ForestConfig(n_trees=3, seed=5), mtry=2)
    assert all(t.feature.size == 1 for t in stump.trees)
    assert stump.predict(probe).tobytes() == predict_oracle(stump, probe).tobytes()
