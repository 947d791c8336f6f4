"""Shared test utilities: small random datasets with guaranteed arm structure,
constant-model fixtures, and byte digests of fitted models."""

import hashlib

import numpy as np

from riskratio import ObservationalDataset
from riskratio.nuisance import DEFAULT_CLIP, Constant, Linear, OutcomeModel, PropensityModel


def random_dataset(seed, n=None, p=2, binary=False, scale=5.0):
    """Random dataset with both arms non-empty and positive arm means.

    Binary datasets additionally have at least one event per arm, so every
    variance and interval in the suite is well defined on them.
    """
    g = np.random.default_rng(seed)
    if n is None:
        n = int(g.integers(10, 200))
    x = g.normal(size=(n, p))
    t = g.integers(0, 2, size=n)
    t[0], t[1] = 1, 0
    if binary:
        y = g.integers(0, 2, size=n).astype(float)
        treated = np.flatnonzero(t == 1)
        control = np.flatnonzero(t == 0)
        y[treated[0]] = 1.0
        y[control[0]] = 1.0
    else:
        y = g.uniform(0.5, scale, size=n)
    return ObservationalDataset(x=x, t=t, y=y)


def dataset_from(t, y, x=None):
    t = np.asarray(t)
    y = np.asarray(y, dtype=float)
    if x is None:
        x = np.arange(1.0, len(t) + 1.0).reshape(-1, 1)
    return ObservationalDataset(x=np.asarray(x, dtype=float), t=t, y=y)


def constant_propensity(value, clip=DEFAULT_CLIP):
    return PropensityModel(Constant(float(value)), clip=clip)


def constant_outcome(value, arm=None):
    return OutcomeModel(Constant(float(value)), arm=arm)


def forest_bytes(forest):
    """A forest's node arrays as bytes.

    Each tree's ``feature`` / ``left`` / ``right`` are written as
    little-endian int64 and its ``threshold`` / ``value`` as little-endian
    float64, after its node count, so the bytes tell -0.0 from 0.0, which
    array equality does not.
    """
    parts = []
    for tree in forest.trees:
        parts.append(tree.feature.size.to_bytes(8, "little"))
        parts += [tree.feature.astype("<i8").tobytes(), tree.threshold.astype("<f8").tobytes()]
        parts += [tree.left.astype("<i8").tobytes(), tree.right.astype("<i8").tobytes()]
        parts.append(tree.value.astype("<f8").tobytes())
    return b"".join(parts)


def model_digest(model):
    """sha256 of every value a constant, linear, logistic or forest model
    predicts from: the surface's type name, then ``float.hex`` of a
    constant's value or of a linear surface's intercept and coefficients,
    or a forest's :func:`forest_bytes`, then the propensity's ``clip`` or
    the outcome model's ``arm``."""
    surface = model.surface
    h = hashlib.sha256(type(surface).__name__.encode())
    if isinstance(surface, Constant):
        h.update(float(surface.value).hex().encode())
    elif isinstance(surface, Linear):
        h.update(",".join(float(v).hex() for v in (surface.intercept, *surface.coef)).encode())
    else:
        h.update(forest_bytes(surface))
    if isinstance(model, PropensityModel):
        h.update(f"clip={float(model.clip).hex()}".encode())
    else:
        h.update(f"arm={model.arm}".encode())
    return h.hexdigest()
