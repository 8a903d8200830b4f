"""Poisson bootstrap for witness significance.

Each replicate redraws every histogram cell as an independent Poisson variate
with the observed count as its mean and re-scores the witness margin on the
drawn counts.  Streams come from a counter-based generator keyed by
``(seed..., replicate, attempt)``, so any replicate can be reproduced in
isolation and results never depend on evaluation order.

Draw order: one ``rng.poisson`` call per replicate over the non-zero
observed counts of the position blocks, then the momentum blocks,
concatenated in the order given.  This is the same stream as one call per
block over every cell in that order: numpy's Poisson sampler returns 0 for
a zero mean without reading the stream, so leaving the zero cells out skips
no variate, and they stay 0 in every replicate.

A replicate keeps one layout from draw to score: each block's non-zero
observed cells, the columns of the witness module's margin kernel.  The
drawn counts are scored as they are, never divided by their totals: each
block's entropy is ``log N - sum(c log c) / N`` with ``N`` its event total.
A chunk is drawn and scored column-major, one column per replicate, and
every sum adds in column order, in a batch of one (``evaluate``) too.  A
zero cell adds nothing, so a margin equals, bit for bit, ``evaluate`` on
the replicate's histograms, and the report's point estimate, the observed
counts scored as column 0 of a chunk, is ``evaluate`` on them.

The bootstrap does not build a generator per replicate.  A Philox stream is
fixed by its 128-bit key, and ``replicate_rng`` takes that key from
``SeedSequence(key).generate_state(2, np.uint64)``; ``_philox_keys`` computes
the same hash for a whole chunk of replicates in one pass of uint32
arithmetic, and each replicate is drawn by resetting one ``Philox`` to the
fresh state of its key.  Each draw call makes its own ``Philox``, and no
state outlives the call: a Philox stream depends only on its key, and every
reset sets the whole state, so no row reads what another left.  The streams,
and so every draw, are those of ``replicate_rng``, which stays the definition
of the stream.  numpy's Poisson draw is the floor of a replicate's time under
this contract; it is not worked around with a private numpy API.

The contract rests on three facts of the installed numpy: ``_philox_keys``
reproduces ``SeedSequence``'s hash, a reset Philox starts the keyed stream,
and a zero Poisson mean reads no stream.  ``eprsteer selftest`` checks each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DataError, DegenerateBootstrapError, UsageError
from .grids import CountTensor, Histogram, _check_int
from .witness import Direction, WitnessResult, _checked_blocks, _kernel, _MarginKernel

__all__ = [
    "BootstrapReport",
    "replicate_rng",
    "poisson_resample",
    "witness_significance",
]

SeedLike = Union[int, Sequence[int], np.ndarray]

#: Fewer replicates than this gives a uselessly noisy significance estimate.
MIN_REPLICATES = 100

#: At most this many replicates, so every replicate index fits in one 32-bit SeedSequence word.
MAX_REPLICATES = 2**32

_MAX_REDRAWS = 1000

#: Margins whose sample std is at most this fraction of their largest magnitude
#: have no spread: margins equal in exact arithmetic differ in their last bits,
#: by ~2-6e-16 of it (numpy's std of equal floats is not 0 either), while a
#: genuine spread is ~1/sqrt(N) of it, above 1e-10 even for 2**64 events.
ROUNDOFF_SPREAD = 1e-12

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


def _check_n_boot(n_boot) -> int:
    """The replicate count rule: an integer from ``MIN_REPLICATES`` to ``MAX_REPLICATES``."""
    return _check_int(n_boot, "n_boot", MIN_REPLICATES, MAX_REPLICATES)


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
    attempt)`` have three or more.  The two families still share streams:
    ``SeedSequence`` hashes 32-bit words and pads a key shorter than four
    with zeros, so ``(seed, 0)`` is the key ``(seed, 0, 0)`` at every seed,
    and ``(5 * 2**32 + 7, 0)`` is the key ``(7, 5, 0)``.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def replicate_rng(seed: SeedLike, index: int, attempt: int = 0) -> np.random.Generator:
    """Independent generator for one bootstrap replicate; ``index`` and ``attempt`` are integers from 0 to 2**32 - 1.

    Each is one 32-bit ``SeedSequence`` word: ``SeedSequence`` splits a
    larger one into two, which would draw the stream of another key.
    """
    words = (_check_int(index, "index", 0, _MASK32), _check_int(attempt, "attempt", 0, _MASK32))
    return _keyed_rng(_seed_key(seed) + words)


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


# the constants of the output words
_CHAIN_B = _hash_chain(_INIT_B, _MULT_B, _POOL_SIZE)


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
    # each pair of little-endian 32-bit words, low word first, is one 64-bit key word
    state = _hashmix(pool, _CHAIN_B)
    return np.ascontiguousarray(state.T).astype("<u4", copy=False).view("<u8")


def _philox_keys(key: tuple[int, ...], index: np.ndarray, attempt: int) -> np.ndarray:
    """Philox key of ``replicate_rng(key, i, attempt)`` for each ``i`` in ``index``, as ``(rows, 2)`` uint64.

    Every ``i`` is below ``MAX_REPLICATES``, so it is one 32-bit word.
    """
    prefix = [w for k in key for w in _uint32_words(k)]
    suffix = _uint32_words(attempt)
    words = np.empty((len(index), len(prefix) + 1 + len(suffix)), np.uint32)
    words[:, : len(prefix)] = prefix
    words[:, len(prefix)] = index
    words[:, len(prefix) + 1 :] = suffix
    return _seed_sequence_keys(words)


def _check_poisson_means(lam: np.ndarray) -> np.ndarray:
    """``lam`` as float64 Poisson means; :class:`DataError` if one exceeds ``POISSON_MEAN_MAX``."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.size and lam.max() > POISSON_MEAN_MAX:
        raise DataError(
            f"a cell mean of {lam.max():.6g} exceeds {POISSON_MEAN_MAX:.6g}, "
            "the largest Poisson mean that can be drawn"
        )
    return lam


def poisson_resample(counts: CountTensor, rng: np.random.Generator) -> CountTensor:
    """Redraw each cell as Poisson with the observed count as mean."""
    return CountTensor(rng.poisson(lam=_check_poisson_means(counts.counts)))


def _draw(lam: np.ndarray, philox_keys: list[list[int]], rows: list[int], out: np.ndarray) -> None:
    """``out[r] = rng.poisson(lam)`` on the Philox stream of each key, row by row.

    Each call makes its own ``Philox``: each row sets its key on the fresh
    state of a new generator (counter 0, empty buffer), the state
    ``replicate_rng`` starts from, held as Python ints, which the state
    setter reads faster than numpy scalars.  The whole state is set, so no
    row reads what an earlier one left.
    """
    bitgen = np.random.Philox(0)
    poisson = np.random.Generator(bitgen).poisson
    state = bitgen.state
    philox = state["state"]
    philox["counter"] = philox["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    for r, philox_key in zip(rows, philox_keys):
        philox["key"] = philox_key
        bitgen.state = state
        out[r] = poisson(lam)


@dataclass(frozen=True)
class BootstrapReport:
    """Summary of the bootstrap margin distribution, with the point estimate it surrounds.

    ``point`` is the witness on the observed counts, scored by the same
    kernel as the replicates, and equal bit for bit to ``evaluate`` on the
    same histograms; the run's direction and log base are
    ``point.direction`` and ``point.base``.
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


def _replicate_margins(kernel: _MarginKernel, key: tuple[int, ...], n_boot: int) -> tuple[WitnessResult, np.ndarray, int]:
    """The witness on the observed counts, the margin of every replicate, and the number of draws rejected as empty.

    Each draw comes from the stream of ``replicate_rng(key, replicate,
    attempt)``, set on the ``Philox`` that each ``_draw`` call makes, and
    covers the columns of ``kernel.layout``: each block's non-zero observed
    cells, blocks in order.  Draws fill the columns of a chunk of at most
    ``_CHUNK_BYTES``; one ``np.add.reduceat`` per attempt gives each block's
    event total, which finds the empty blocks to redraw and is the ``N`` the
    kernel scores the drawn counts with, undivided, in one call per chunk.
    Sums of integer-valued floats below 2**53 are exact, so the totals equal
    those of a dense draw.  Column 0 of the chunk holds the observed counts
    and is scored with each chunk, so the kernel call also gives the point
    estimate.

    One allocation per call holds the chunk, a C-contiguous view at its
    head (a shorter last chunk is a shorter view, not a copy), and past it
    the kernel's scratch of the same size, which the kernel overwrites
    while it only reads the chunk.  Nothing outlives the call.  A
    chunk-sized temporary made and freed in each kernel call, beside the
    chunk, had the allocator hand its pages back and fault them in afresh
    on every run.
    """
    layout = kernel.layout
    lam = _check_poisson_means(layout.weights)
    rows = max(1, min(n_boot, _CHUNK_BYTES // lam.nbytes))
    memory = np.empty(2 * lam.size * (1 + rows))
    scratch = memory[lam.size * (1 + rows) :]
    totals_buf = np.empty((len(layout.edges) - 1, 1 + rows))
    totals_buf[:, 0] = layout.totals

    margins = np.empty(n_boot)
    rejected = 0
    for start in range(0, n_boot, rows):
        n = min(rows, n_boot - start)
        buf = memory[: lam.size * (1 + n)].reshape(lam.size, 1 + n)
        buf[:, 0] = lam
        chunk, totals = buf[:, 1:], totals_buf[:, 1 : 1 + n]
        pending = np.arange(n)
        for attempt in range(_MAX_REDRAWS):
            _draw(lam, _philox_keys(key, start + pending, attempt).tolist(), pending.tolist(), chunk.T)
            np.add.reduceat(chunk, layout.edges[:-1], axis=0, out=totals)
            pending = pending[(totals[:, pending] == 0).any(axis=0)]
            if not pending.size:
                break
            rejected += pending.size
        else:
            raise DegenerateBootstrapError(
                f"replicate {start + pending[0]} stayed empty after {_MAX_REDRAWS} redraws"
            )
        scored = kernel(buf, totals_buf[:, : 1 + n], scratch)
        margins[start : start + n] = scored[1][1:]
    return kernel.point(scored), margins, rejected


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

    Replicates where any histogram comes back empty have no entropy to score;
    they are redrawn from a fresh substream and counted in
    ``rejected_replicates``.  A count above ``POISSON_MEAN_MAX`` cannot be
    redrawn and raises :class:`DataError` before any draw.  Margins constant
    up to roundoff (``ROUNDOFF_SPREAD``) raise :class:`DegenerateBootstrapError`.
    """
    key = _seed_key(seed)
    n_boot = _check_n_boot(n_boot)
    return _report(_kernel(*_checked_blocks(position, momentum, direction, base, (Histogram,))), key, n_boot)


def _report(kernel: _MarginKernel, key: tuple[int, ...], n_boot: int) -> BootstrapReport:
    """The report of ``kernel``'s blocks on the replicate streams of ``key``: :func:`witness_significance` past its argument checks, and each map cell."""
    point, margins, rejected = _replicate_margins(kernel, key, n_boot)
    mean = float(margins.mean())
    std = float(margins.std(ddof=1))
    if std <= ROUNDOFF_SPREAD * float(np.abs(margins).max()):
        raise DegenerateBootstrapError(
            f"the bootstrap margins are constant up to roundoff (std {std:.3g}); no spread to report"
        )
    return BootstrapReport(
        n_boot=n_boot,
        seed=key,
        margin_mean=mean,
        margin_std=std,
        significance=mean / std,
        rejected_replicates=rejected,
        point=point,
    )
