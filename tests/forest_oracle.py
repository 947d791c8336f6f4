"""Reference specification of CART growth: one tree at a time, one node at a time.

This is the per-node grower that ``riskratio.trees`` used before trees were
grown in lockstep, kept verbatim as a test oracle, with the tree-by-tree
prediction it used.  ``fit_forest_oracle`` must build exactly the trees
``riskratio.trees.fit_forest`` builds, and ``predict_oracle`` must return
exactly what ``Forest.predict`` returns.
"""

import numpy as np

from riskratio.rng import CounterRng, derive_seed
from riskratio.trees import Forest, Tree

_LEAF = -1


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


def _tree_predict(tree, x):
    idx = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[idx]
        active = np.nonzero(feat != _LEAF)[0]
        if active.size == 0:
            break
        node = idx[active]
        go_left = x[active, feat[active]] <= tree.threshold[node]
        idx[active] = np.where(go_left, tree.left[node], tree.right[node])
    return tree.value[idx]


def predict_oracle(forest, x):
    out = np.zeros(x.shape[0])
    for tree in forest.trees:
        out += _tree_predict(tree, x)
    return out / len(forest.trees)


def fit_forest_oracle(x, y, cfg, default_mtry):
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
