"""CART regression trees and bagged ensembles.

Internal machinery behind the forest learners in :mod:`riskratio.nuisance`.
Every tree grows on bootstrap rows with no depth limit, and a child holds
at least ``_MIN_LEAF`` rows.  Splits minimise within-node sum of squares
over ``mtry`` features sampled per node; ``mtry`` is the learner's own.
Tie-breaking is deterministic: a split must strictly beat the incumbent,
candidate features are scanned in ascending index order, and candidate
thresholds in ascending value order, so the lowest feature index and
smallest threshold win ties.

Reproducibility contract.  Tree ``t`` of a forest with seed ``s`` reads the
counter-based stream ``derive_seed(s, t)`` (see :mod:`riskratio.rng`) and
nothing else:

* its rows are ``floor(u_i * n)`` for draws ``i = 0 .. n-1``;
* every node that attempts a split (it has at least ``2 * _MIN_LEAF`` rows
  and a non-constant target) takes the next ``p`` draws of the stream,
  after the bootstrap ones, in the tree's depth-first order (left subtree
  before right).  Its candidate features are the indices of the ``mtry``
  smallest of those uniforms (ties to the lower index), in ascending order.

A child keeps its parent's row order, and a node's value is the mean of its
targets summed in that order as ``np.add.reduce`` sums them.  Fitted forests
are therefore bit-reproducible.

Growth.  :func:`fit_forests` grows forests as a stream, one batch at a
time: it checks every job first, and its iterator grows a batch when that
batch's first forest is requested, by one call of :func:`_grow_forest`,
which returns the batch's forests.  A batch takes consecutive jobs that
share ``p`` while its trees' row buffer holds at most ``_BATCH_CELLS``
cells; a job above that grows alone, as it would by itself.  So a caller
that takes the forests in order and drops each once used holds one batch
of forests, plus what it keeps.  The trees of a batch grow together in
lockstep rounds.  Their rows are stacked in one table, so each tree
carries its own row offset into it, its own draw offset (its job's ``n``)
and its own ``mtry``.  The trees' depth-first stacks of open nodes are one
int64 ``(trees, capacity, 3)`` array of ``(node, start, end)`` entries with
a vector of stack heights, and the capacity doubles when a push would
overflow it.  Each round pops from every tree's stack, in one array read,
its open nodes down to the topmost one of at least ``2 * _MIN_LEAF`` rows,
and that one too (all of them when none is that large).  The nodes above
it cannot attempt a split: they are leaves that draw nothing and come next
in the tree's depth-first order, so the one node of the round that may
draw keeps the draw offset it has when rounds take one node per tree, and
its children go on the stack where it was.  The round then pushes the
children of every split node (right, then left) in one write, so each tree
keeps its own visiting order and draw offsets (a level-wise order would
not: a node's draw offset depends on how many nodes to its left attempted
a split).  A tree thus takes one round per node of at least
``2 * _MIN_LEAF`` rows, plus one when its last run holds only leaves, and a
batch as many rounds as its tree that takes most.  The split search of
every node of the round that attempts a split runs in padded
``(node, feature) x rows`` blocks.  Rows are stably sorted by their dense
rank within their job, which orders them exactly as ``x`` does (rows of
two jobs never share a node); padding rows rank last and have ``y = 0``,
so they leave the running sums of the real rows unchanged, and every gain
is bit-identical to a scan of that node alone.  Nodes go by ``mtry`` and
then largest first, in chunks of one ``mtry`` and at most ``_CELL_BUDGET``
cells whose nodes have at least half the chunk's widest row count, which
bounds both memory and padding.  A round costs a fixed overhead whatever
its tree count, so growing many small forests in one batch saves time.

Node values are summed by one ``np.add.reduceat`` per run of nodes.  On
a bare segment ``reduceat`` sums in another order than ``np.add.reduce``
(6,272 of the 25,150 node values of one 500-row, 2-fold, 100-tree
cross-fit differed): ``reduce`` gives ``+0.0`` plus numpy's pairwise sum
of the vector, while a ``reduceat`` segment is its first element plus the
pairwise sum of the rest.  So each node's targets are gathered after a
``+0.0`` slot, and every value is bit-identical to ``np.add.reduce`` of the
node alone.  The scan keeps its stable argsort of 16-bit ranks, which numpy
radix-sorts; every other stable ordering tried was slower.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rng import derive_seed, uniforms_at

_LEAF = -1
_MIN_LEAF = 5  # fewest rows of a child
_CELL_BUDGET = 1 << 13  # cells of one split-scan block or one predict block
_BATCH_CELLS = 1 << 18  # row-buffer cells of one lockstep batch of trees


@dataclass(frozen=True)
class ForestConfig:
    """A forest's size and the seed of its draws."""

    n_trees: int = 200
    seed: int = 0

    def validate(self, n: int) -> None:
        if self.n_trees < 1:
            raise ValidationError("n_trees must be >= 1")
        if n < 2 * _MIN_LEAF:
            raise ValidationError(f"need at least {2 * _MIN_LEAF} rows, got {n}")


class Tree:
    """Flat array representation of one fitted tree.

    Node 0 is the root; a split node's right child is its left child plus
    one, and a leaf has feature and children ``_LEAF``.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)


class Forest:
    """Bagged CART trees; prediction is the mean of per-tree leaf means."""

    __slots__ = ("trees",)

    def __init__(self, trees: list[Tree]):
        self.trees = trees

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Walk all trees at once over their concatenated node arrays.

        A split node's children are ``left`` and ``left + 1``, as
        :func:`_grow_forest` numbers them, so a step down is one gather of
        ``left`` plus the comparison.  For the walk a leaf gets threshold NaN,
        which no comparison passes, and left child one below itself, so it
        steps to itself; every (tree, row) cell steps once per level until
        none moves.  Rows go in blocks of at most ``_CELL_BUDGET`` (tree, row)
        cells; each row's leaf values are summed tree by tree, in tree order.
        """
        trees = self.trees
        sizes = [t.feature.size for t in trees]
        first = np.cumsum([0] + sizes[:-1])
        feature = np.concatenate([t.feature for t in trees])
        threshold = np.concatenate([t.threshold for t in trees])
        left = np.concatenate([t.left for t in trees]) + np.repeat(first, sizes)
        value = np.concatenate([t.value for t in trees])
        leaf = np.flatnonzero(feature == _LEAF)
        feature[leaf], threshold[leaf], left[leaf] = 0, np.nan, leaf - 1
        out = np.zeros(x.shape[0])
        step = max(1, _CELL_BUDGET // len(trees))
        for a in range(0, x.shape[0], step):
            for values in value.take(_leaves(x[a : a + step], first, feature, threshold, left)):
                out[a : a + step] += values
        return out / len(trees)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.predict(x)


def _leaves(x, first, feature, threshold, left):
    """``(trees, rows)`` leaf nodes of the walk of :meth:`Forest.predict`.

    Tree t's root is node ``first[t]``.
    """
    n, p = x.shape
    flat = x.ravel()
    node = np.repeat(first, n)  # cell t * n + i is row i in tree t
    row_start = np.tile(np.arange(0, n * p, p), first.size)  # of each cell's row in flat
    while True:
        go_left = flat.take(row_start + feature.take(node)) <= threshold.take(node)
        child = left.take(node)
        child += ~go_left
        if np.array_equal(child, node):
            return node.reshape(first.size, n)
        node = child


def fit_forest(x: np.ndarray, y: np.ndarray, cfg: ForestConfig, mtry: int) -> Forest:
    """One forest: :func:`fit_forests` of the single job ``(x, y, cfg, mtry)``."""
    return next(fit_forests([(x, y, cfg, mtry)]))


def fit_forests(
    jobs: list[tuple[np.ndarray, np.ndarray, ForestConfig, int]],
) -> Iterator[Forest]:
    """One forest per ``(x, y, cfg, mtry)`` job, in job order, as a stream.

    ``mtry`` is clamped to ``[1, p]``.  Every job is checked here, before
    any tree grows, so the first bad job raises what :func:`fit_forest`
    raises for it.  The returned iterator grows each batch of jobs (module
    docstring) when that batch's first forest is requested, and lets go of
    a batch once its last forest is taken.  Each forest is, bit for bit,
    the one its job grows alone.
    """
    checked = [_checked(*job) for job in jobs]
    return (forest for batch in _batches(checked) for forest in _grow_forest(batch))


def _checked(x, y, cfg, mtry):
    """The job ``(x, y, cfg, mtry)`` with float arrays and ``mtry`` clamped."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = x.shape
    cfg.validate(n)
    if p == 0:
        raise ValidationError("forests need at least one covariate column")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("forest inputs must be finite (no NaN or inf in x or y)")
    return x, y, cfg, min(p, max(1, mtry))


def _batches(jobs):
    """Runs of consecutive checked jobs that ``_grow_forest`` grows together."""
    batch, cells = [], 0
    for job in jobs:
        size = job[2].n_trees * job[0].shape[0]
        if batch and (job[0].shape[1] != batch[0][0].shape[1] or cells + size > _BATCH_CELLS):
            yield batch
            batch, cells = [], 0
        batch.append(job)
        cells += size
    if batch:
        yield batch


def _grow_forest(jobs):
    """The forests of one batch of checked jobs, grown in lockstep rounds (module docstring)."""
    p = jobs[0][0].shape[1]
    rows = [x.shape[0] for x, _, _, _ in jobs]
    n_trees = [cfg.n_trees for _, _, cfg, _ in jobs]
    n = np.repeat(rows, n_trees)  # per tree: its job's row count, draw offset and mtry
    first_node_draw = n.astype(np.uint64)
    mtry = np.repeat([job[3] for job in jobs], n_trees)
    # the jobs' rows are stacked in xe / ye / rank, followed by one padding
    # row; tree t's open node holds the stacked rows
    # buf[buf0[t] + start : buf0[t] + end], and the extra last cell of buf
    # points at the padding row
    pad = sum(rows)
    buf0 = np.cumsum(n) - n
    buf = np.empty(int(n.sum()) + 1, dtype=np.int64)
    buf[-1] = pad
    xe = np.vstack([x for x, _, _, _ in jobs] + [np.full((1, p), np.inf)])
    ye = np.concatenate([y for _, y, _, _ in jobs] + [np.zeros(1)])
    # dense ranks within each job order its rows as x does, ties included;
    # numpy radix-sorts 16-bit keys, several times faster than it sorts
    # float keys.  Rows of two jobs never meet in one node.
    rank = np.empty((pad + 1, p), dtype=np.uint16 if max(rows) < 65535 else np.int64)
    rank[pad] = max(rows)
    seeds = []
    row0 = cell0 = 0
    for (x, _, cfg, _), m in zip(jobs, rows):
        job_seeds = np.array(
            [derive_seed(cfg.seed, t) for t in range(cfg.n_trees)], dtype=np.uint64
        )
        cells = slice(cell0, cell0 + cfg.n_trees * m)
        u = uniforms_at(job_seeds[:, None], np.arange(m, dtype=np.uint64))
        buf[cells] = np.floor(u * m).ravel() + row0
        for f in range(p):
            rank[row0 : row0 + m, f] = np.unique(x[:, f], return_inverse=True)[1]
        seeds.append(job_seeds)
        row0 += m
        cell0 = cells.stop
    seeds = np.concatenate(seeds)[:, None]
    # tree t's depth-first stack holds the open nodes (node, start, end) in
    # stack[t, :top[t]]; its capacity doubles when a push would overflow it.
    # Open nodes hold disjoint runs of at least _MIN_LEAF rows, so a stack
    # never holds more than n // _MIN_LEAF of them.
    stack = np.zeros((n.size, min(16, max(rows) // _MIN_LEAF), 3), dtype=np.int64)
    stack[:, 0, 2] = n
    top = np.ones(n.size, dtype=np.int64)
    n_nodes = np.ones(n.size, dtype=np.int64)
    drawn = np.zeros(n.size, dtype=np.uint64)  # split-attempting nodes so far
    feature_draws = np.arange(p, dtype=np.uint64)
    rounds = []  # per round: (tree, node, value, feature, threshold, left child)
    active = np.arange(n.size)  # the trees with open nodes, in tree order
    while active.size:
        # each tree pops its open nodes down to its topmost one of at least
        # 2 * _MIN_LEAF rows, and that one too (all of them when none is):
        # the nodes above it are leaves, next in depth-first order, and draw
        # nothing
        slots = np.arange(stack.shape[1])
        may_split = stack[active, :, 2] - stack[active, :, 1] >= 2 * _MIN_LEAF
        may_split &= slots < top[active, None]
        low = np.max(may_split * slots, axis=1)
        count = top[active] - low
        tree = np.repeat(active, count)  # the tree of each popped node
        slot = np.arange(tree.size) - np.repeat(np.cumsum(count) - count - low, count)
        node, start, end = stack[tree, slot].T
        top[active] = low
        m = end - start
        base = buf0[tree] + start
        value, varies = _node_values(ye, buf, base, m)
        feature = np.full(tree.size, _LEAF)
        threshold = np.zeros(tree.size)
        child = np.full(tree.size, _LEAF)
        n_left = np.zeros(tree.size, dtype=np.int64)
        # node is copied so that the record does not keep start and end alive
        rounds.append((tree, node.copy(), value, feature, threshold, child))
        cand = np.flatnonzero((m >= 2 * _MIN_LEAF) & varies)
        t_cand = tree[cand]
        counters = first_node_draw[t_cand][:, None] + p * drawn[t_cand][:, None] + feature_draws
        drawn[t_cand] += np.uint64(1)
        by_draw = np.argsort(uniforms_at(seeds[t_cand], counters), axis=1, kind="stable")
        # nodes by mtry, then largest first; a chunk takes nodes of one
        # mtry, down to half its width
        order = np.lexsort((-m[cand], mtry[t_cand]))
        cand, by_draw, k = cand[order], by_draw[order], mtry[t_cand[order]]
        neg_sizes = -m[cand]
        a = 0
        while a < cand.size:
            w, mt = int(m[cand[a]]), int(k[a])
            same = a + int(np.searchsorted(k[a:], mt, side="right"))
            stop = a + int(np.searchsorted(neg_sizes[a:same], -(w // 2), side="left"))
            b = min(stop, a + max(1, _CELL_BUDGET // (mt * w)))
            sel = cand[a:b]
            feats = np.sort(by_draw[a:b, :mt], axis=1)
            inside = np.arange(w) < m[sel, None]
            cell = np.where(inside, base[sel, None] + np.arange(w), buf.size - 1)
            idx = buf[cell]
            f, thr, found = _best_splits(xe, rank, idx, ye[idx], m[sel], feats)
            sel = sel[found]
            feature[sel], threshold[sel] = f[found], thr[found]
            n_left[sel] = _partition(buf, xe, idx[found], cell[found], f[found], thr[found])
            child[sel] = n_nodes[tree[sel]]
            n_nodes[tree[sel]] += 2
            a = b
        split = np.flatnonzero(child != _LEAF)
        t = tree[split]  # a tree splits at most its last popped node
        at = top[t]
        if at.size and at.max() + 2 > stack.shape[1]:
            stack = np.concatenate((stack, np.zeros_like(stack)), axis=1)
        c, s, nl = child[split], start[split], n_left[split]
        # push right first so the left child is processed first
        stack[t, at] = np.stack((c + 1, s + nl, end[split]), axis=1)
        stack[t, at + 1] = np.stack((c, s, s + nl), axis=1)
        top[t] += 2
        active = active[top[active] > 0]
    del buf, xe, ye, rank  # the batch's rows are not needed to assemble its trees
    return _assemble(n_nodes, rounds, n_trees)


def _node_values(ye, buf, base, m):
    """Each node's value and whether its targets vary.

    Node ``i`` holds the rows ``buf[base[i] : base[i] + m[i]]``; its value
    is the mean of their targets, summed in that order by ``np.add.reduce``:
    one ``np.add.reduceat`` sums the nodes of a run, each node's targets
    after a ``+0.0`` slot (module docstring), which the last cell of ``buf``
    fills with the padding row's target.  Targets are gathered for runs of
    consecutive nodes of at most ``_CELL_BUDGET`` rows (a larger node
    alone), so a batch's first round, which reads every cell of the buffer,
    holds one run at a time.
    """
    value = np.empty(m.size)
    varies = np.empty(m.size, dtype=bool)
    ends = np.cumsum(m)
    a = 0
    while a < m.size:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - m[a] + _CELL_BUDGET, side="right")))
        size = m[a:b] + 1  # a slot, then the node's targets
        offs = np.cumsum(size) - size
        at = np.repeat(base[a:b] - offs - 1, size)
        at += np.arange(at.size)
        at[offs] = buf.size - 1
        ys = ye[buf[at]]
        value[a:b] = np.add.reduceat(ys, offs) / m[a:b]
        # each node's targets, then the next node's slot
        edges = np.empty(2 * offs.size - 1, dtype=np.int64)
        edges[0::2] = offs + 1
        edges[1::2] = offs[1:]
        varies[a:b] = np.minimum.reduceat(ys, edges)[0::2] < np.maximum.reduceat(ys, edges)[0::2]
        a = b
    return value, varies


def _assemble(n_nodes, rounds, n_trees):
    """Forests of ``n_trees`` trees each from the per-round records of ``_grow_forest``.

    ``rounds`` is emptied as it is read.  Each forest's node arrays are its
    own, so a forest kept alive does not keep the rest of its batch.
    """
    first = np.cumsum(n_nodes) - n_nodes
    total = int(n_nodes.sum())
    feature = np.empty(total, dtype=np.int64)
    threshold = np.empty(total)
    left = np.empty(total, dtype=np.int64)
    right = np.empty(total, dtype=np.int64)
    value = np.empty(total)
    while rounds:
        tree, node, node_value, node_feature, node_threshold, child = rounds.pop()
        at = first[tree] + node
        value[at] = node_value
        feature[at] = node_feature
        threshold[at] = node_threshold
        left[at] = child
        right[at] = np.where(child == _LEAF, _LEAF, child + 1)
    fields = (feature, threshold, left, right, value)
    forests, a = [], 0
    for size in n_trees:
        b = a + size
        lo = first[a]
        own = [f[lo : first[b - 1] + n_nodes[b - 1]].copy() for f in fields]
        starts = (first[a:b] - lo).tolist()
        trees = [Tree(*(f[i : i + k] for f in own)) for i, k in zip(starts, n_nodes[a:b].tolist())]
        forests.append(Forest(trees))
        a = b
    return forests


def _best_splits(xe, rank, idx, ys, m, feats):
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
    cell = (idx * rank.shape[1])[:, None, :] + feats[:, :, None]  # rank's raveled cells
    keys = rank.take(cell.reshape(k * mtry, w))
    order = np.argsort(keys, axis=1, kind="stable")
    keys = keys.take(order + (scan * w)[:, None])
    cs = ys.take(order + (of_node * w)[:, None])
    np.cumsum(cs, axis=1, out=cs)
    lo = _MIN_LEAF
    sizes = np.arange(lo, w - lo + 1, dtype=np.float64)  # left sizes of each cut
    left = cs[:, lo - 1 : w - lo]
    size = m[of_node]
    total = cs[scan, size - 1][:, None]
    mf = size.astype(np.float64)[:, None]
    right_sizes = mf - sizes
    # left * left / sizes + (total - left) ** 2 / right_sizes, in place
    gain = left * left
    gain /= sizes
    right = total - left
    right *= right
    with np.errstate(divide="ignore", invalid="ignore"):
        right /= right_sizes
    gain += right
    blocked = keys[:, lo - 1 : w - lo] >= keys[:, lo : w - lo + 1]
    blocked |= right_sizes < lo
    np.putmask(gain, blocked, -np.inf)
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
    right and were last, so they stay last, and writing them back only
    writes the padding row into the last cell of ``buf`` again.
    """
    k, w = idx.shape
    go_left = xe.take(idx * xe.shape[1] + feature[:, None]) <= threshold[:, None]
    order = np.argsort(~go_left, axis=1, kind="stable")
    buf[cell] = idx.take(order + (np.arange(k) * w)[:, None])
    return go_left.sum(axis=1)
