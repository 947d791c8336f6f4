"""CART regression trees and bagged ensembles.

Internal machinery behind the forest learners in :mod:`riskratio.nuisance`.
Splits minimise within-node sum of squares over ``mtry`` features sampled
per node.  Tie-breaking is deterministic: a split must strictly beat the
incumbent, candidate features are scanned in ascending index order, and
candidate thresholds in ascending value order, so the lowest feature index
and smallest threshold win ties.  Every random choice is driven by a
counter-based stream derived from (seed, tree index), which makes fitted
forests bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rng import CounterRng, derive_seed

_LEAF = -1


@dataclass(frozen=True)
class ForestConfig:
    """Ensemble hyperparameters; ``mtry=None`` defers to the fitter default."""

    n_trees: int = 200
    max_depth: int | None = None
    min_leaf: int = 5
    mtry: int | None = None
    bootstrap: bool = True
    seed: int = 0

    def validate(self, p: int, n: int) -> None:
        if self.n_trees < 1:
            raise ValidationError("n_trees must be >= 1")
        if self.min_leaf < 1:
            raise ValidationError("min_leaf must be >= 1")
        if self.mtry is not None and not 1 <= self.mtry <= p:
            raise ValidationError(f"mtry must lie in [1, {p}], got {self.mtry}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValidationError("max_depth must be >= 0")
        if n < 2 * self.min_leaf:
            raise ValidationError(f"need at least {2 * self.min_leaf} rows, got {n}")


class Tree:
    """Flat array representation of one fitted tree."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)

    def predict(self, x: np.ndarray) -> np.ndarray:
        idx = np.zeros(x.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[idx]
            active = np.nonzero(feat != _LEAF)[0]
            if active.size == 0:
                break
            node = idx[active]
            go_left = x[active, feat[active]] <= self.threshold[node]
            idx[active] = np.where(go_left, self.left[node], self.right[node])
        return self.value[idx]


def _best_split(x, y, rows, feats, min_leaf):
    """Best (gain, feature, threshold) over candidate features, or None."""
    m = rows.size
    best_gain = 0.0
    best = None
    lo = min_leaf
    hi = m - min_leaf
    for f in feats:
        xv = x[rows, f]
        order = np.argsort(xv, kind="stable")
        xs = xv[order]
        ys = y[rows][order]
        valid = xs[lo - 1 : hi] < xs[lo:hi + 1]
        if not valid.any():
            continue
        cs = np.cumsum(ys)
        total = cs[-1]
        sizes = np.arange(lo, hi + 1, dtype=np.float64)
        left = cs[lo - 1 : hi]
        gain = left * left / sizes + (total - left) ** 2 / (m - sizes)
        gain[~valid] = -np.inf
        j = int(np.argmax(gain))  # first max: smallest threshold wins ties
        g = gain[j] - total * total / m
        if g > best_gain:
            best_gain = g
            cut = lo + j
            best = (f, 0.5 * (xs[cut - 1] + xs[cut]))
    return best


class Forest:
    """Bagged CART trees; prediction is the mean of per-tree leaf means."""

    __slots__ = ("trees", "config", "n_features")

    def __init__(self, trees: list[Tree], config: ForestConfig, n_features: int):
        self.trees = trees
        self.config = config
        self.n_features = n_features

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape[0])
        for tree in self.trees:
            out += tree.predict(x)
        return out / len(self.trees)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.predict(x)


def fit_forest(x: np.ndarray, y: np.ndarray, cfg: ForestConfig, default_mtry: int) -> Forest:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = x.shape
    cfg.validate(p, n)
    mtry = cfg.mtry if cfg.mtry is not None else min(p, max(1, default_mtry))
    trees = []
    for tree_idx in range(cfg.n_trees):
        rng = CounterRng(derive_seed(cfg.seed, tree_idx))
        rows = rng.integers(n, n) if cfg.bootstrap else np.arange(n)
        tree = _grow_tree(x, y, rows, rng, mtry, cfg.min_leaf, cfg.max_depth)
        trees.append(tree)
    return Forest(trees, cfg, p)


def _grow_tree(x, y, rows, rng, mtry, min_leaf, max_depth):
    n, p = x.shape
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(_LEAF)
        threshold.append(0.0)
        left.append(_LEAF)
        right.append(_LEAF)
        value.append(0.0)
        return len(feature) - 1

    stack = [(new_node(), rows, 0)]
    while stack:
        node, idx, depth = stack.pop()
        ys = y[idx]
        value[node] = float(ys.mean())
        if idx.size < 2 * min_leaf:
            continue
        if max_depth is not None and depth >= max_depth:
            continue
        if ys.min() == ys.max():
            continue
        feats = np.sort(rng.permutation(p)[:mtry])
        split = _best_split(x, y, idx, feats, min_leaf)
        if split is None:
            continue
        f, thr = split
        go_left = x[idx, f] <= thr
        feature[node] = int(f)
        threshold[node] = float(thr)
        left_id, right_id = new_node(), new_node()
        left[node] = left_id
        right[node] = right_id
        # push right first so the left child is processed first (fixed order)
        stack.append((right_id, idx[~go_left], depth + 1))
        stack.append((left_id, idx[go_left], depth + 1))
    return Tree(feature, threshold, left, right, value)


def forest_to_dict(forest: Forest) -> dict:
    cfg = forest.config
    return {
        "config": {
            "n_trees": cfg.n_trees,
            "max_depth": cfg.max_depth,
            "min_leaf": cfg.min_leaf,
            "mtry": cfg.mtry,
            "bootstrap": cfg.bootstrap,
            "seed": cfg.seed,
        },
        "n_features": forest.n_features,
        "trees": [
            {
                "feature": t.feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "value": t.value.tolist(),
            }
            for t in forest.trees
        ],
    }


def forest_from_dict(obj: dict) -> Forest:
    cfg = ForestConfig(**obj["config"])
    trees = [
        Tree(t["feature"], t["threshold"], t["left"], t["right"], t["value"])
        for t in obj["trees"]
    ]
    return Forest(trees, cfg, int(obj["n_features"]))
