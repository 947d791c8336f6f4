"""Counter-based pseudo-random numbers for reproducible simulations.

Every stream is a keyed splitmix64 sequence: draw ``i`` of the stream with
seed ``s`` is ``mix64((s + (i + 1) * GOLDEN) mod 2**64)``, where ``mix64``
is the splitmix64 finalizer (Steele, Lea & Flood 2014)::

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

and ``GOLDEN = 0x9E3779B97F4A7C15``.  Because the draw is a pure function
of (seed, counter), the integer draws are reproducible across platforms
and easy to re-implement in other languages.

Derived quantities are pinned down exactly:

* uniforms take the top 53 bits, ``u = (z >> 11) * 2**-53`` in [0, 1);
* normals apply Box-Muller to consecutive uniform pairs ``(u1, u2)``:
  ``r = sqrt(-2 log1p(-u1))``, ``z0 = r cos(2 pi u2)``,
  ``z1 = r sin(2 pi u2)``, emitted in that order;
* bounded integers are ``floor(u * bound)``;
* permutations are the stable argsort of ``n`` fresh uniforms: tied
  uniforms keep their draw order.  numpy's default (SIMD) argsort ranks
  them, and only a sample with two equal uniforms is sorted again
  stably, so the permutation does not depend on the sort kernel.

Uniforms, bounded integers and permutations are exact arithmetic on the
integer draws, so they too repeat on every platform.  Normals do not:
numpy's float64 ``log1p`` rounds differently under its AVX2 loops than
under its AVX-512 ones (numpy 2.4.6 gave other bits for 200,000 normals
of one seed), and samples with normal covariates or noise move with it.

Independent child streams (per replication, fold, tree, ...) come from
:func:`derive_seed`, which hashes the parent seed with integer keys.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _mix64_int(z: int) -> int:
    # same finalizer on Python ints (explicit mod-2**64 wraparound)
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *keys: int) -> int:
    """Hash ``seed`` with non-negative integer ``keys`` into a child seed."""
    s = seed & _MASK
    for k in keys:
        if k < 0:
            raise ValueError("derive_seed keys must be non-negative")
        s = _mix64_int(s ^ _mix64_int((k & _MASK) + 0x9E3779B97F4A7C15))
    return s


def _draws(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    return _mix64(seeds + (counters + _U64(1)) * _GOLDEN)


def _unit(z: np.ndarray) -> np.ndarray:
    return (z >> _U64(11)) * 2.0**-53


def uniforms_at(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Uniform draw ``counters`` of the streams ``seeds``, broadcast together.

    Both arguments are ``uint64`` arrays; draw ``i`` of seed ``s`` is the
    value ``CounterRng(s)`` returns as its ``i``-th uniform.
    """
    return _unit(_draws(seeds, counters))


class CounterRng:
    """Stateful cursor over the counter-based stream for one seed.

    The cursor starts at counter ``start``, so any stretch of a stream can
    be read on its own: ``CounterRng(s, start=k).uniforms(m)`` equals
    ``CounterRng(s).uniforms(k + m)[k:]``, and the same holds for
    ``normals`` at even ``k``.
    """

    def __init__(self, seed: int, start: int = 0):
        if start < 0:
            raise ValueError(f"CounterRng start must be non-negative, got {start}")
        self._seed = _U64(seed & _MASK)
        self._pos = start

    @property
    def seed(self) -> int:
        return int(self._seed)

    def _raw(self, n: int) -> np.ndarray:
        # idx dies on return, before uniforms() shifts the draws: one array
        # fewer at the peak of a large call
        idx = np.arange(self._pos, self._pos + n, dtype=np.uint64)
        self._pos += n
        return _draws(self._seed, idx)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniforms in [0, 1) with 53-bit resolution."""
        return _unit(self._raw(n))

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normal deviates (Box-Muller on uniform pairs)."""
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        theta = (2.0 * np.pi) * u[1::2]
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def bernoulli(self, p: np.ndarray | float, n: int | None = None) -> np.ndarray:
        """Bernoulli draws; ``p`` may be a scalar (with ``n``) or a vector."""
        if np.ndim(p) == 0:
            if n is None:
                raise ValueError("scalar p requires n")
            return self.uniforms(n) < float(p)
        p = np.asarray(p, dtype=float)
        return self.uniforms(p.shape[0]) < p

    def integers(self, n: int, bound: int) -> np.ndarray:
        """``n`` integers in [0, bound) as floor(u * bound)."""
        return np.floor(self.uniforms(n) * bound).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n), the stable argsort of n fresh uniforms."""
        u = self.uniforms(n)
        perm = np.argsort(u)
        # without ties the sorted order is unique, so any sort gives the
        # stable one; only tied uniforms need the slower stable sort
        ranked = u[perm]
        if (ranked[1:] == ranked[:-1]).any():
            perm = np.argsort(u, kind="stable")
        return perm
