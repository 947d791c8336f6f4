"""CART regression trees and bagged ensembles.

Internal machinery behind the forest learners in :mod:`riskratio.nuisance`.
Splits minimise within-node sum of squares over ``mtry`` features sampled
per node.  Tie-breaking is deterministic: a split must strictly beat the
incumbent, candidate features are scanned in ascending index order, and
candidate thresholds in ascending value order, so the lowest feature index
and smallest threshold win ties.

Reproducibility contract.  Tree ``t`` of a forest with seed ``s`` reads the
counter-based stream ``derive_seed(s, t)`` (see :mod:`riskratio.rng`) and
nothing else:

* with ``bootstrap`` its rows are ``floor(u_i * n)`` for draws
  ``i = 0 .. n-1``; without, they are ``0 .. n-1`` and no draw is used;
* every node that attempts a split (it has at least ``2 * min_leaf`` rows,
  lies above ``max_depth`` and has a non-constant target) takes the next
  ``p`` draws of the stream, after the bootstrap ones, in the tree's
  depth-first order (left subtree before right).  Its candidate features
  are the indices of the ``mtry`` smallest of those uniforms (ties to the
  lower index), in ascending order.

A child keeps its parent's row order, and a node's value is the mean of its
targets summed in that order as ``np.add.reduce`` sums them.  Fitted forests
are therefore bit-reproducible.

Growth.  All trees of a forest grow together in lockstep rounds.  Each
round pops the next node from every tree's depth-first stack, so each tree
keeps its own visiting order and draw offsets (a level-wise order would
not: a node's draw offset depends on how many nodes to its left attempted
a split).  The split search of every node of the round that attempts a
split runs as one padded ``(node, feature) x rows`` block.  Rows are
stably sorted by the dense rank of ``x``, which orders them exactly as
``x`` does; padding rows rank last and have ``y = 0``, so they leave the
running sums of the real rows unchanged, and every gain is bit-identical
to a scan of that node alone.  Nodes go largest first, in chunks of at
most ``_CELL_BUDGET`` cells whose nodes have at least half the chunk's
widest row count, which bounds both memory and padding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rng import derive_seed, uniforms_at

_LEAF = -1
_CELL_BUDGET = 1 << 13  # cells of one split-scan block or one predict block


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


class Forest:
    """Bagged CART trees; prediction is the mean of per-tree leaf means."""

    __slots__ = ("trees", "config", "n_features")

    def __init__(self, trees: list[Tree], config: ForestConfig, n_features: int):
        self.trees = trees
        self.config = config
        self.n_features = n_features

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Walk all trees at once over their concatenated node arrays.

        Rows go in blocks of at most ``_CELL_BUDGET`` (tree, row) cells; each
        row's leaf values are summed tree by tree, in tree order.
        """
        trees = self.trees
        sizes = [t.feature.size for t in trees]
        first = np.cumsum([0] + sizes[:-1])
        offset = np.repeat(first, sizes)
        nodes = (
            np.concatenate([t.feature for t in trees]),
            np.concatenate([t.threshold for t in trees]),
            np.concatenate([t.left for t in trees]) + offset,
            np.concatenate([t.right for t in trees]) + offset,
            np.concatenate([t.value for t in trees]),
        )
        out = np.zeros(x.shape[0])
        step = max(1, _CELL_BUDGET // len(trees))
        for a in range(0, x.shape[0], step):
            for values in _leaf_values(x[a : a + step], first, *nodes):
                out[a : a + step] += values
        return out / len(trees)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.predict(x)


def _leaf_values(x, first, feature, threshold, left, right, value):
    """``(trees, rows)`` leaf values; tree t's root is node ``first[t]``."""
    n, p = x.shape
    flat = x.ravel()
    node = np.repeat(first, n)  # cell t * n + i is row i in tree t
    row_start = np.tile(np.arange(0, n * p, p), first.size)  # of each cell's row in flat
    cells = np.arange(node.size)
    while cells.size:
        at = node[cells]
        feat = feature[at]
        inner = feat != _LEAF
        cells, at, feat = cells[inner], at[inner], feat[inner]
        go_left = flat[row_start[cells] + feat] <= threshold[at]
        node[cells] = np.where(go_left, left[at], right[at])
    return value[node].reshape(first.size, n)


def fit_forest(x: np.ndarray, y: np.ndarray, cfg: ForestConfig, default_mtry: int) -> Forest:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = x.shape
    cfg.validate(p, n)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("forest inputs must be finite (no NaN or inf in x or y)")
    mtry = cfg.mtry if cfg.mtry is not None else min(p, max(1, default_mtry))
    seeds = np.array([derive_seed(cfg.seed, t) for t in range(cfg.n_trees)], dtype=np.uint64)
    trees = _grow_forest(x, y, seeds[:, None], cfg.bootstrap, mtry, cfg.min_leaf, cfg.max_depth)
    return Forest(trees, cfg, p)


def _grow_forest(x, y, seeds, bootstrap, mtry, min_leaf, max_depth):
    """Grow one tree per seed in lockstep rounds (module docstring)."""
    n, p = x.shape
    n_trees = seeds.shape[0]
    # tree t's open node holds the rows buf[t * n + start : t * n + end]; the
    # extra last cell points at the padding row n of xe / ye
    buf = np.empty(n_trees * n + 1, dtype=np.int64)
    if bootstrap:
        buf[:-1] = np.floor(uniforms_at(seeds, np.arange(n, dtype=np.uint64)) * n).ravel()
        first_node_draw = n
    else:
        buf[:-1] = np.tile(np.arange(n), n_trees)
        first_node_draw = 0
    buf[-1] = n
    xe = np.vstack([x, np.full((1, p), np.inf)])
    ye = np.append(y, 0.0)
    # dense ranks order rows as x does, ties included; numpy radix-sorts
    # 16-bit keys, several times faster than it sorts float keys
    rank = np.empty((n + 1, p), dtype=np.uint16 if n < 65535 else np.int64)
    for f in range(p):
        rank[:n, f] = np.unique(x[:, f], return_inverse=True)[1]
    rank[n] = n
    stacks = [[(0, 0, n, 0)] for _ in range(n_trees)]  # (node, start, end, depth)
    n_nodes = np.ones(n_trees, dtype=np.int64)
    drawn = np.zeros(n_trees, dtype=np.uint64)  # split-attempting nodes so far
    feature_draws = np.arange(p, dtype=np.uint64)
    rounds = []  # per round: (tree, node, value, feature, threshold, left child)
    active = list(range(n_trees))
    while active:
        popped = [stacks[t].pop() for t in active]
        tree = np.array(active)
        node, start, end, depth = (np.array(c) for c in zip(*popped))
        m = end - start
        base = tree * n + start
        offs = np.cumsum(m) - m
        ys = y[buf[np.arange(int(m.sum())) + np.repeat(base - offs, m)]]
        value = [float(np.add.reduce(ys[o : o + size])) / size
                 for o, size in zip(offs.tolist(), m.tolist())]
        feature = np.full(tree.size, _LEAF)
        threshold = np.zeros(tree.size)
        child = np.full(tree.size, _LEAF)
        rounds.append((tree, node, np.array(value), feature, threshold, child))
        attempt = (m >= 2 * min_leaf) & (
            np.minimum.reduceat(ys, offs) < np.maximum.reduceat(ys, offs)
        )
        if max_depth is not None:
            attempt &= depth < max_depth
        cand = np.flatnonzero(attempt)
        t_cand = tree[cand]
        counters = first_node_draw + p * drawn[t_cand][:, None] + feature_draws
        drawn[t_cand] += np.uint64(1)
        u = uniforms_at(seeds[t_cand], counters)
        feats = np.sort(np.argsort(u, axis=1, kind="stable")[:, :mtry], axis=1)
        # largest nodes first; a chunk takes nodes down to half its width
        by_size = np.argsort(-m[cand], kind="stable")
        cand, feats = cand[by_size], feats[by_size]
        neg_sizes = -m[cand]
        a = 0
        while a < cand.size:
            w = int(m[cand[a]])
            stop = np.searchsorted(neg_sizes, -(w // 2), side="left")
            b = min(stop, a + max(1, _CELL_BUDGET // (mtry * w)))
            sel = cand[a:b]
            inside = np.arange(w) < m[sel, None]
            cell = np.where(inside, base[sel, None] + np.arange(w), buf.size - 1)
            idx = buf[cell]
            f, thr, found = _best_splits(xe, rank, idx, ye[idx], m[sel], feats[a:b], min_leaf)
            sel = sel[found]
            feature[sel], threshold[sel] = f[found], thr[found]
            n_left = _partition(buf, xe, idx[found], cell[found], f[found], thr[found])
            child[sel] = n_nodes[tree[sel]]
            n_nodes[tree[sel]] += 2
            for i, c, nl in zip(sel.tolist(), child[sel].tolist(), n_left.tolist()):
                _, s, e, d = popped[i]
                # push right first so the left child is processed first
                stacks[active[i]] += ((c + 1, s + nl, e, d + 1), (c, s, s + nl, d + 1))
            a = b
        active = [t for t in active if stacks[t]]
    return _assemble(n_nodes, rounds)


def _assemble(n_nodes, rounds):
    """Per-tree node arrays from the per-round records of ``_grow_forest``."""
    first = np.cumsum(n_nodes) - n_nodes
    total = int(n_nodes.sum())
    feature = np.empty(total, dtype=np.int64)
    threshold = np.empty(total)
    left = np.empty(total, dtype=np.int64)
    right = np.empty(total, dtype=np.int64)
    value = np.empty(total)
    for tree, node, node_value, node_feature, node_threshold, child in rounds:
        at = first[tree] + node
        value[at] = node_value
        feature[at] = node_feature
        threshold[at] = node_threshold
        left[at] = child
        right[at] = np.where(child == _LEAF, _LEAF, child + 1)
    bounds = first[1:]
    return [
        Tree(*fields)
        for fields in zip(*(np.split(a, bounds) for a in (feature, threshold, left, right, value)))
    ]


def _best_splits(xe, rank, idx, ys, m, feats, min_leaf):
    """Best split of each padded node: (feature, threshold, found) arrays.

    ``idx`` / ``ys`` are ``(nodes, width)`` rows and targets, padded after
    each node's ``m`` real rows; ``feats`` is ``(nodes, mtry)``.  Each
    (node, feature) pair is one scan row, stably sorted by ``rank``, the
    dense rank of ``x``, which orders rows exactly as ``x`` does.  Its gains
    are computed as the per-feature scan of one node computes them, so they
    are bit-identical to it.
    """
    k, w = idx.shape
    mtry = feats.shape[1]
    scan = np.arange(k * mtry)
    of_node = scan // mtry
    keys = rank[idx[of_node], feats.ravel()[:, None]]
    order = np.argsort(keys, axis=1, kind="stable")
    keys = keys[scan[:, None], order]
    cs = np.cumsum(ys[of_node[:, None], order], axis=1)
    lo = min_leaf
    sizes = np.arange(lo, w - lo + 1, dtype=np.float64)  # left sizes of each cut
    left = cs[:, lo - 1 : w - lo]
    size = m[of_node]
    total = cs[scan, size - 1][:, None]
    mf = size.astype(np.float64)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = left * left / sizes + (total - left) ** 2 / (mf - sizes)
    usable = (keys[:, lo - 1 : w - lo] < keys[:, lo : w - lo + 1]) & (sizes <= mf - lo)
    gain[~usable] = -np.inf
    j = np.argmax(gain, axis=1)  # first max: smallest threshold wins ties
    best = gain[scan, j] - total[:, 0] * total[:, 0] / mf[:, 0]
    best = np.where(best > 0.0, best, 0.0).reshape(k, mtry)
    node = np.arange(k)
    pick = node * mtry + np.argmax(best, axis=1)  # first max: lowest feature wins ties
    cut = lo + j[pick]
    feature = feats.ravel()[pick]
    below = xe[idx[node, order[pick, cut - 1]], feature]
    above = xe[idx[node, order[pick, cut]], feature]
    return feature, 0.5 * (below + above), best.ravel()[pick] > 0.0


def _partition(buf, xe, idx, cell, feature, threshold):
    """Stably reorder each split node's rows in ``buf``, left child first.

    Returns each node's left-child size.  Padding rows (``x = +inf``) go
    right and were last, so they stay last.
    """
    go_left = xe[idx, feature[:, None]] <= threshold[:, None]
    order = np.argsort(~go_left, axis=1, kind="stable")
    real = cell != buf.size - 1
    buf[cell[real]] = idx[np.arange(idx.shape[0])[:, None], order][real]
    return go_left.sum(axis=1)


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
