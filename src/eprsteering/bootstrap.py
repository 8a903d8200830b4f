"""Poisson bootstrap for witness significance.

Each replicate redraws every histogram cell as an independent Poisson variate
with the observed count as its mean, re-normalizes, and re-evaluates the
witness margin.  Streams come from a counter-based generator keyed by
``(seed..., replicate, attempt)``, so any replicate can be reproduced in
isolation and results never depend on evaluation order.

Draw order: one ``rng.poisson`` call per replicate over the observed counts
of the position blocks, then the momentum blocks, concatenated in the order
given.  This is the same stream as one call per block in that order.

Replicates are scored in chunks by the witness module's batched margin
kernel, which also scores point estimates, so a replicate scored alone
reproduces its margin bit for bit.

The bootstrap does not build a generator per replicate.  A Philox stream is
fixed by its 128-bit key, and ``replicate_rng`` takes that key from
``SeedSequence(key).generate_state(2, np.uint64)``; ``_philox_keys`` computes
the same hash for a whole chunk of replicates in one pass of uint32
arithmetic, and each replicate is drawn by resetting the key of one reused
``Philox``.  The streams, and so every draw, are those of ``replicate_rng``,
which stays the definition of the stream.  On a 2-vCPU x86-64 host (Python
3.11, numpy 2.4) the key reset takes ~1 us and the hash ~1-2 us per
replicate (~100 us per call), where building a generator takes ~25-30 us.
The draw takes ~16 us per call plus ~40 ns per cell, ~50 us for two 24x24
histograms.  Part of that is numpy's: ``Generator.poisson`` re-checks its
means on every call (two ``np.all`` per draw, 3.3 s of the 9.4 s spent
drawing in acceptance test 6), although they were checked once before the
first draw.  That is the floor under this stream contract; it is not worked
around with a private numpy API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DataError, DegenerateBootstrapError, UsageError
from .entropy import _check_base
from .grids import CountTensor, Histogram, _check_int
from .witness import Direction, WitnessResult, _blocks, _margin_kernel, _MarginKernel

__all__ = [
    "BootstrapReport",
    "replicate_rng",
    "poisson_resample",
    "sample_counts",
    "witness_significance",
]

SeedLike = Union[int, Sequence[int], np.ndarray]

#: Fewer replicates than this gives a uselessly noisy significance estimate.
MIN_REPLICATES = 100

_MAX_REDRAWS = 1000

#: Bytes of replicate counts scored per kernel call; a chunk holds at least one replicate.
_CHUNK_BYTES = 4 << 20

#: Largest mean ``Generator.poisson`` accepts: int64 max minus ten of its square roots.
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))

# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _check_seed(seed) -> int:
    """The seed rule: a non-negative integer; bools, floats and strings are refused."""
    return _check_int(seed, "seed", 0)


def _seed_key(seed: SeedLike) -> tuple[int, ...]:
    """Stream key prefix from one seed or a non-empty list, tuple or array of seeds."""
    if isinstance(seed, np.ndarray):
        seed = seed.tolist()
    if not isinstance(seed, (list, tuple)):
        seed = (seed,)
    key = tuple([_check_seed(s) for s in seed])
    if not key:
        raise UsageError("seed sequence must not be empty")
    return key


def _keyed_rng(key: tuple[int, ...]) -> np.random.Generator:
    """The Philox generator keyed by ``SeedSequence(key)``: every stream of the package.

    Keys of two integers, ``(seed, observable)``, are the sampling streams of
    ``spdc.sample_histograms``; replicate keys ``(seed..., replicate,
    attempt)`` have three or more, so the two families never share a key.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def replicate_rng(seed: SeedLike, index: int, attempt: int = 0) -> np.random.Generator:
    """Independent generator for one bootstrap replicate."""
    return _keyed_rng(_seed_key(seed) + (int(index), int(attempt)))


def _uint32_words(n: int) -> list[int]:
    """``n`` as ``SeedSequence`` splits an integer: little-endian 32-bit words, at least one."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_chain(init: int, mult: int, n: int) -> np.ndarray:
    """``SeedSequence``'s hash constants ``init * mult**k mod 2**32``, k = 0..n, as a uint32 column."""
    chain = [init]
    for _ in range(n):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hashmix of each row of ``value`` with successive constants of ``chain``."""
    value = value ^ chain[:-1]
    value *= chain[1:]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    result ^= result >> 16
    return result


def _seed_sequence_keys(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(2, np.uint64)`` for each row of a ``(rows, words)`` uint32 array.

    The pool is a ``(4, rows)`` array.  Hashmix calls that SeedSequence makes
    one pool word at a time, with successive constants, are made here for
    all the pool words one source word updates at once.
    """
    words = words.T
    n = _POOL_SIZE
    chain = _hash_chain(_INIT_A, _MULT_A, n * n + n * max(0, len(words) - n))
    pool = np.zeros((n, words.shape[1]), dtype=np.uint32)
    pool[: len(words)] = words[:n]
    pool = _hashmix(pool, chain[: n + 1])
    k = n
    for src in range(n):
        dst = [d for d in range(n) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain[k : k + n]))
        k += n - 1
    for word in words[n:]:
        pool = _mix(pool, _hashmix(word, chain[k : k + n + 1]))
        k += n
    state = _hashmix(pool, _hash_chain(_INIT_B, _MULT_B, n)).astype(np.uint64)
    return np.stack([state[0] | state[1] << np.uint64(32), state[2] | state[3] << np.uint64(32)], axis=1)


def _philox_keys(key: tuple[int, ...], index: np.ndarray, attempt: int) -> np.ndarray:
    """Philox key of ``replicate_rng(key, i, attempt)`` for each ``i`` in ``index``, as ``(rows, 2)`` uint64."""
    index = np.asarray(index, dtype=np.uint64)
    prefix = [w for k in key for w in _uint32_words(k)]
    suffix = _uint32_words(attempt)
    keys = np.empty((index.size, 2), dtype=np.uint64)
    wide = index > _MASK32
    for rows, n_own in ((~wide, 1), (wide, 2)):  # an index of 2^32 or more takes two words
        if rows.any():
            own = index[rows]
            words = np.empty((len(own), len(prefix) + n_own + len(suffix)), np.uint32)
            words[:, : len(prefix)] = prefix
            for j in range(n_own):
                words[:, len(prefix) + j] = own >> np.uint64(32 * j) & np.uint64(_MASK32)
            words[:, len(prefix) + n_own :] = suffix
            keys[rows] = _seed_sequence_keys(words)
    return keys


def _check_poisson_means(lam: np.ndarray, error: type[Exception] = DataError) -> np.ndarray:
    """``lam`` as float64 Poisson means; ``error`` if one exceeds ``POISSON_MEAN_MAX``."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.size and lam.max() > POISSON_MEAN_MAX:
        raise error(
            f"a cell mean of {lam.max():.6g} exceeds {POISSON_MEAN_MAX:.6g}, "
            "the largest Poisson mean that can be drawn"
        )
    return lam


def poisson_resample(counts: CountTensor, rng: np.random.Generator) -> CountTensor:
    """Redraw each cell as Poisson with the observed count as mean."""
    return CountTensor(rng.poisson(lam=_check_poisson_means(counts.counts)))


def sample_counts(means: np.ndarray, rng: np.random.Generator) -> CountTensor:
    """Poisson counts around arbitrary non-negative expected values."""
    lam = np.asarray(means, dtype=np.float64)
    if (lam < 0).any() or not np.isfinite(lam).all():
        raise UsageError("expected counts must be finite and non-negative")
    return CountTensor(rng.poisson(lam=_check_poisson_means(lam, UsageError)))


@dataclass(frozen=True)
class BootstrapReport:
    """Summary of the bootstrap margin distribution, with the point estimate it surrounds.

    ``point`` is the witness on the observed counts (each histogram
    normalized), scored by the same kernel as the replicates; the run's
    direction and log base are ``point.direction`` and ``point.base``.
    ``significance`` is margin_mean / margin_std (sample std, ddof=1), in
    units of bootstrap standard deviations; its sign follows the margin, so
    values above +3 certify a violation at the conventional threshold.
    """

    n_boot: int
    seed: tuple[int, ...]
    margin_mean: float
    margin_std: float
    significance: float
    rejected_replicates: int
    point: WitnessResult


def _replicate_margins(
    pos_blocks: Sequence[Histogram],
    mom_blocks: Sequence[Histogram],
    kernel: _MarginKernel,
    key: tuple[int, ...],
    n_boot: int,
) -> tuple[np.ndarray, int]:
    """Margin of every replicate, and the number of draws rejected as empty.

    Each draw comes from the stream of ``replicate_rng(key, replicate,
    attempt)``, set by resetting the key of one reused ``Philox``.  Draws go
    into a chunk buffer of at most ``_CHUNK_BYTES``; each chunk is
    normalized and scored by one kernel call.
    """
    blocks = (*pos_blocks, *mom_blocks)
    if not all(b.counts.total for b in blocks):
        raise DegenerateBootstrapError("a histogram holds zero events, so every replicate of it is empty")
    sizes = [b.counts.counts.size for b in blocks]
    offsets = np.cumsum([0, *sizes[:-1]])
    lam = _check_poisson_means(np.concatenate([b.counts.counts.ravel() for b in blocks]))
    rows = max(1, min(n_boot, _CHUNK_BYTES // lam.nbytes))
    buf = np.empty((rows, lam.size))
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    # A fresh generator's state (counter 0, empty buffer) with Python ints,
    # which the state setter reads faster than numpy scalars.
    state = bitgen.state
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()

    def draw(philox_key: list[int]) -> np.ndarray:
        state["state"]["key"] = philox_key
        bitgen.state = state
        return rng.poisson(lam)

    def empty(draws: np.ndarray) -> np.ndarray:
        return (np.add.reduceat(draws, offsets, axis=-1) == 0).any(axis=-1)

    margins = np.empty(n_boot)
    rejected = 0
    for start in range(0, n_boot, rows):
        chunk = buf[: min(rows, n_boot - start)]
        first = _philox_keys(key, np.arange(start, start + len(chunk)), 0)
        for r, philox_key in enumerate(first.tolist()):
            chunk[r] = draw(philox_key)
        pending = np.flatnonzero(empty(chunk))
        for attempt in range(1, _MAX_REDRAWS):
            if not pending.size:
                break
            rejected += pending.size
            redraws = _philox_keys(key, start + pending, attempt)
            for r, philox_key in zip(pending, redraws.tolist()):
                chunk[r] = draw(philox_key)
            pending = pending[empty(chunk[pending])]
        if pending.size:
            raise DegenerateBootstrapError(
                f"replicate {start + pending[0]} stayed empty after {_MAX_REDRAWS} redraws"
            )
        totals = np.add.reduceat(chunk, offsets, axis=1)
        probs = []
        for k, (lo, size, b) in enumerate(zip(offsets, sizes, blocks)):
            block = chunk[:, lo : lo + size]
            block /= totals[:, [k]]
            probs.append(block.reshape(-1, *b.grid.shape))
        margins[start : start + len(chunk)] = kernel(probs)[1]
    return margins, rejected


def witness_significance(
    position: Histogram | Sequence[Histogram],
    momentum: Histogram | Sequence[Histogram],
    *,
    direction: Direction = Direction.B_GIVEN_A,
    n_boot: int = 1000,
    seed: SeedLike = 0,
    base: float = 2.0,
) -> BootstrapReport:
    """Bootstrap the witness margin from observed counts, and score the counts themselves.

    Replicates where any histogram comes back empty cannot be normalized;
    they are redrawn from a fresh substream and counted in
    ``rejected_replicates``.  A count above ``POISSON_MEAN_MAX`` cannot be
    redrawn and raises :class:`DataError` before any draw.
    """
    direction = Direction(direction)
    key = _seed_key(seed)
    n_boot = _check_int(n_boot, "n_boot", MIN_REPLICATES)
    pos_blocks = _blocks(position, Histogram, "position")
    mom_blocks = _blocks(momentum, Histogram, "momentum")
    base = _check_base(base)
    kernel = _margin_kernel(
        [b.grid for b in pos_blocks], [b.grid for b in mom_blocks], direction, base
    )
    margins, rejected = _replicate_margins(pos_blocks, mom_blocks, kernel, key, n_boot)

    mean = float(margins.mean())
    std = float(margins.std(ddof=1))
    if std == 0.0:
        raise DegenerateBootstrapError("all bootstrap margins are identical; no spread to report")
    point = kernel.point([b.normalize().probs for b in (*pos_blocks, *mom_blocks)])
    return BootstrapReport(
        n_boot=n_boot,
        seed=key,
        margin_mean=mean,
        margin_std=std,
        significance=mean / std,
        rejected_replicates=rejected,
        point=point,
    )
