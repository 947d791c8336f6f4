"""Risk-ratio point estimators.

Six estimators of the ratio of mean potential outcomes
``E[Y(1)] / E[Y(0)]``:

* ``rr_neyman``  — ratio of arm means (difference-in-means analogue);
* ``rr_ht``      — inverse weighting by a known assignment probability;
* ``rr_ipw``     — inverse weighting by an estimated propensity score;
* ``rr_g``       — ratio of averaged outcome-surface predictions;
* ``rr_os``      — one-step corrected ratio on cross-fitted nuisances;
* ``rr_aipw``    — ratio of the two cross-fitted augmented arm means.

Whenever a denominator is exactly zero the estimator returns the value 0
with a ``degenerate`` flag instead of raising; confidence intervals are
suppressed for degenerate results.  ``rr_neyman`` and ``rr_ht`` assume a
constant assignment probability, so their results carry a warning note
when applied to covariate-dependent designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .data import ObservationalDataset
from .errors import EstimationError, ValidationError
from .nuisance import (
    OutcomeModel,
    PropensityModel,
    fit_logistic_mle,
    fit_logistic_subsets,
    fit_ols,
    forest_classifier_fit,
    forest_regressor_fit,
    grow_forest_fits,
)
from .rng import CounterRng, derive_seed
from .trees import ForestConfig

NOTE_CONSTANT_PROPENSITY = "assumes-constant-treatment-probability"


@dataclass(frozen=True)
class RRPoint:
    value: float
    method: str
    degenerate: bool = False
    notes: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class FoldPartition:
    """Partition of row indices into k folds (ids 1..k, sizes within 1)."""

    k: int
    assignment: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        a = np.array(self.assignment, dtype=np.int64)
        # ids within 1..k are counted by bincount; any other id is an error
        ok = self.k >= 2 and a.size > 0 and a.min() == 1 and a.max() == self.k
        counts = np.bincount(a.ravel())[1:] if ok else None
        if not ok or not counts.all():
            raise ValidationError(f"fold ids must cover 1..k with k >= 2, got {np.unique(a)}")
        if counts.max() - counts.min() > 1:
            raise ValidationError("fold sizes may differ by at most one")
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)


@dataclass(frozen=True)
class ArmFunctionals:
    """Cross-fitted arm means: plain surface averages and augmented versions."""

    tau_g_1: float
    tau_g_0: float
    tau_aipw_1: float
    tau_aipw_0: float


@dataclass(frozen=True, eq=False)
class CrossfitScores:
    """Out-of-fold nuisance evaluations on ``d``, one per observation.

    ``gamma1`` / ``gamma0`` are the per-row augmented scores, computed once
    on construction; their means are the AIPW arm means, and the same
    arrays feed :func:`arm_functionals` and ``inference.var_os``.
    """

    d: ObservationalDataset
    e: np.ndarray
    mu0: np.ndarray
    mu1: np.ndarray
    folds: FoldPartition
    gamma1: np.ndarray = field(init=False)
    gamma0: np.ndarray = field(init=False)

    def __post_init__(self):
        t = self.d.t.astype(float)
        y = self.d.y
        object.__setattr__(self, "gamma1", self.mu1 + t * (y - self.mu1) / self.e)
        object.__setattr__(self, "gamma0", self.mu0 + (1.0 - t) * (y - self.mu0) / (1.0 - self.e))


@dataclass(frozen=True, eq=False)
class NuisanceRecipe:
    """Which learners fit the nuisances, on the full sample or per fold.

    ``propensity`` is a learner name (``logistic`` or ``forest``) or a fixed
    :class:`PropensityModel`; ``outcome`` is a learner name (``ols`` or
    ``forest``) or a fixed ``(mu0, mu1)`` pair.  Fixed models are evaluated
    as-is (no refitting), which yields the oracle variants.  ``forest``
    configures every forest learner; each fit derives its own seed from
    ``forest.seed`` (see :func:`fit_propensity`).  ``clip`` bounds fitted
    propensities.
    """

    propensity: str | PropensityModel = "logistic"
    outcome: str | tuple[OutcomeModel, OutcomeModel] = "ols"
    clip: float = 0.01
    forest: ForestConfig = field(default_factory=ForestConfig)

    def __post_init__(self):
        if isinstance(self.propensity, str) and self.propensity not in ("logistic", "forest"):
            raise ValidationError(f"unknown propensity learner {self.propensity!r}")
        if isinstance(self.outcome, str) and self.outcome not in ("ols", "forest"):
            raise ValidationError(f"unknown outcome learner {self.outcome!r}")

    @property
    def needs_fitting(self) -> bool:
        return isinstance(self.propensity, str) or isinstance(self.outcome, str)


def _ratio_point(num: float, den: float, method: str, notes=()) -> RRPoint:
    if den == 0.0:
        return RRPoint(0.0, method, degenerate=True, notes=notes)
    return RRPoint(float(num / den), method, notes=notes)


def rr_neyman(d: ObservationalDataset) -> RRPoint:
    """Ratio of treated-arm mean outcome to control-arm mean outcome."""
    if d.n1 == 0 or d.n0 == 0:
        raise ValidationError("both arms must be non-empty")
    treated = d.t == 1
    num = float(d.y[treated].mean())
    den = float(d.y[~treated].mean())
    return _ratio_point(num, den, "neyman", notes=(NOTE_CONSTANT_PROPENSITY,))


def rr_ht(d: ObservationalDataset, e: float) -> RRPoint:
    """Inverse weighting by a known constant assignment probability ``e``."""
    if not 0.0 < e < 1.0:
        raise ValidationError(f"e must lie in (0, 1), got {e}")
    t = d.t.astype(float)
    num = float(np.mean(t * d.y) / e)
    den = float(np.mean((1.0 - t) * d.y) / (1.0 - e))
    return _ratio_point(num, den, "ht", notes=(NOTE_CONSTANT_PROPENSITY,))


def rr_ipw(d: ObservationalDataset, e: np.ndarray) -> RRPoint:
    """Inverse weighting by estimated propensities ``e``, one per row of ``d``."""
    t = d.t.astype(float)
    num = float(np.mean(t * d.y / e))
    den = float(np.mean((1.0 - t) * d.y / (1.0 - e)))
    return _ratio_point(num, den, "ipw")


def rr_g(mu0: np.ndarray, mu1: np.ndarray) -> RRPoint:
    """Ratio of the averaged outcome-surface predictions ``mu1`` and ``mu0``."""
    num = float(mu1.mean())
    den = float(mu0.mean())
    return _ratio_point(num, den, "g")


def make_folds(n: int, k: int, seed: int) -> FoldPartition:
    """Random balanced partition of ``n`` rows into ``k`` folds."""
    if not 2 <= k <= n:
        raise ValidationError(f"fold count must satisfy 2 <= k <= n, got k={k}, n={n}")
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    ids = np.repeat(np.arange(1, k + 1), sizes)
    perm = CounterRng(seed).permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    assignment[perm] = ids
    return FoldPartition(k=k, assignment=assignment, seed=seed)


def _propensity(x: np.ndarray, t: np.ndarray, recipe: NuisanceRecipe, *keys: int):
    """The recipe's propensity model on ``(x, t)``, or its :class:`~.nuisance.ForestFit`."""
    if not isinstance(recipe.propensity, str):
        return recipe.propensity
    if recipe.propensity == "forest":
        cfg = replace(recipe.forest, seed=derive_seed(recipe.forest.seed, *keys))
        return forest_classifier_fit(x, t, cfg, clip=recipe.clip)
    return fit_logistic_mle(x, t, clip=recipe.clip)


def _outcomes(
    x: np.ndarray,
    t: np.ndarray,
    y: np.ndarray,
    recipe: NuisanceRecipe,
    *keys: int,
    train: np.ndarray | None = None,
):
    """The recipe's ``[mu0, mu1]``, each forest as a :class:`~.nuisance.ForestFit`.

    Each arm is fitted on its rows among those of the mask ``train``, or
    among all rows without one.
    """
    if not isinstance(recipe.outcome, str):
        return list(recipe.outcome)
    fits = []
    for arm in (0, 1):
        rows = t == arm
        if train is not None:
            rows &= train
        if not rows.any():
            raise EstimationError(f"arm {arm} is empty; cannot fit an outcome model")
        x_arm, y_arm = np.compress(rows, x, axis=0), np.compress(rows, y)
        if recipe.outcome == "forest":
            cfg = replace(recipe.forest, seed=derive_seed(recipe.forest.seed, *keys, arm))
            fits.append(forest_regressor_fit(x_arm, y_arm, cfg, arm=arm))
        else:
            fits.append(fit_ols(x_arm, y_arm, arm=arm))
    return fits


def fit_propensity(
    x: np.ndarray, t: np.ndarray, recipe: NuisanceRecipe, *keys: int
) -> PropensityModel:
    """Fit (or look up) the recipe's propensity model on ``(x, t)``.

    A forest is seeded with ``derive_seed(recipe.forest.seed, *keys)``;
    cross-fitting passes the fold index as the key, a full-sample fit none.
    """
    return next(grow_forest_fits([_propensity(x, t, recipe, *keys)]))


def fit_outcomes(
    x: np.ndarray, t: np.ndarray, y: np.ndarray, recipe: NuisanceRecipe, *keys: int
) -> tuple[OutcomeModel, OutcomeModel]:
    """Fit (or look up) the recipe's outcome surfaces ``(mu0, mu1)``.

    Each arm is fitted on its own rows; arm ``a``'s forest is seeded with
    ``derive_seed(recipe.forest.seed, *keys, a)``.  Two arm forests grow
    together.
    """
    mu0, mu1 = grow_forest_fits(_outcomes(x, t, y, recipe, *keys))
    return mu0, mu1


def _complements(folds: FoldPartition) -> list[np.ndarray]:
    """The row mask of each fold's complement, in fold order."""
    return [folds.assignment != k for k in range(1, folds.k + 1)]


def _complements_ok(d: ObservationalDataset, trains: list[np.ndarray]) -> bool:
    for train in trains:
        t_tr = np.compress(train, d.t)
        if t_tr.size == 0 or t_tr.min() == t_tr.max():
            return False
    return True


def crossfit_nuisances(
    d: ObservationalDataset, folds: FoldPartition, recipe: NuisanceRecipe
) -> CrossfitScores:
    """Fit nuisances on each fold complement and score the held-out fold.

    If some fold complement lacks a treatment arm, the partition is redrawn
    once with a seed derived from ``folds.seed`` before giving up.  A
    logistic propensity is fitted on every fold complement first, by
    :func:`~.nuisance.fit_logistic_subsets`: complements of equal size are
    solved as one stack of at most ``_BATCH_CELLS`` design cells, and a
    larger complement alone; a failed fit is raised at its fold's place
    below, before that fold's outcome fits.  Every fold's nuisances are
    then set up, and their forest inputs checked, before any forest grows.
    Each fold then takes its propensity, ``mu0`` and
    ``mu1`` from one :func:`~.nuisance.grow_forest_fits` stream, which
    grows a lockstep batch when it reaches the batch's first forest; the
    three models score the held-out fold and are dropped before the next
    fold's are taken.
    """
    if folds.assignment.shape[0] != d.n:
        raise ValidationError("fold assignment length does not match dataset")
    trains = _complements(folds)
    if recipe.needs_fitting and not _complements_ok(d, trains):
        if folds.seed is not None:
            folds = make_folds(d.n, folds.k, derive_seed(folds.seed, 0xF01D))
            trains = _complements(folds)
        if not _complements_ok(d, trains):
            raise EstimationError("a fold complement has an empty treatment arm")
    logistic = None
    if recipe.propensity == "logistic":
        logistic = fit_logistic_subsets(d.x, d.t, trains, clip=recipe.clip)
    fits = []
    for k, train in enumerate(trains, 1):
        e_k = logistic[k - 1] if logistic else _propensity(
            np.compress(train, d.x, axis=0), np.compress(train, d.t), recipe, k
        )
        if isinstance(e_k, Exception):
            raise e_k
        fits += [e_k, *_outcomes(d.x, d.t, d.y, recipe, k, train=train)]
    models = grow_forest_fits(fits)
    e = np.empty(d.n)
    mu0 = np.empty(d.n)
    mu1 = np.empty(d.n)
    for train in trains:
        e_k, mu0_k, mu1_k = islice(models, 3)
        held = ~train
        x_held = np.compress(held, d.x, axis=0)
        e[held] = e_k.predict(x_held)
        mu0[held] = mu0_k.predict(x_held)
        mu1[held] = mu1_k.predict(x_held)
        del e_k, mu0_k, mu1_k  # the next batch grows without this fold's forests
    return CrossfitScores(d=d, e=e, mu0=mu0, mu1=mu1, folds=folds)


def arm_functionals(scores: CrossfitScores) -> ArmFunctionals:
    """Plain and augmented cross-fitted arm means from out-of-fold scores."""
    return ArmFunctionals(
        tau_g_1=float(scores.mu1.mean()),
        tau_g_0=float(scores.mu0.mean()),
        tau_aipw_1=float(scores.gamma1.mean()),
        tau_aipw_0=float(scores.gamma0.mean()),
    )


def rr_os(af: ArmFunctionals) -> RRPoint:
    """One-step corrected ratio built from the cross-fitted arm means."""
    if af.tau_g_0 == 0.0:
        return RRPoint(0.0, "os", degenerate=True)
    g_ratio = af.tau_g_1 / af.tau_g_0
    value = g_ratio * (1.0 - af.tau_aipw_0 / af.tau_g_0) + af.tau_aipw_1 / af.tau_g_0
    return RRPoint(float(value), "os")


def rr_aipw(af: ArmFunctionals) -> RRPoint:
    """Ratio of the two augmented arm means."""
    if af.tau_aipw_0 == 0.0:
        return RRPoint(0.0, "aipw", degenerate=True)
    return RRPoint(float(af.tau_aipw_1 / af.tau_aipw_0), "aipw")
