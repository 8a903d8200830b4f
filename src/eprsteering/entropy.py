"""Shannon information measures on discrete probability tensors.

All quantities are computed in nats internally and returned as floats in the
requested base, so identities hold to float64 roundoff regardless of base.  The
one kernel behind them, :meth:`_Layout.nats`, also scores counts as they
are, each group with its event total ``N``: the witness module's point
estimates of histograms and the bootstrap's replicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence, Union

import numpy as np

from .errors import UsageError
from .grids import JointDistribution, Party, _checked_probs, _real, _shown

__all__ = [
    "entropy",
    "conditional_entropy",
    "mutual_information",
]

#: Cells at or below this probability are treated as exact zeros and
#: contribute nothing, which keeps 0*log(0) out of the sums.
ZERO_FLOOR = 1e-300

DistLike = Union[JointDistribution, np.ndarray]


def _check_base(base: float) -> float:
    number = _real(base, "log base")
    if not math.isfinite(number) or number <= 1.0:
        raise UsageError(f"log base must be finite and > 1, got {_shown(base)}")
    return number


def _plogp(p: np.ndarray) -> np.ndarray:
    """``p * log(p)`` elementwise in nats, zero at cells at or below ``ZERO_FLOOR``; ``p`` may be counts.

    Those cells take ``log(p + 1) = log(1) = 0``, which spares the log a mask.
    """
    terms = p + (p <= ZERO_FLOOR)
    np.log(terms, out=terms)
    terms *= p
    return terms


def _nats(values: np.ndarray, index: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Entropies in nats, ``log N - sum(w log w) / N``, of groups of weights, shaped like ``totals``.

    ``values`` holds non-negative weights and ``index`` the flat position in
    ``totals`` of the group each weight (in ``values.ravel()`` order) adds
    to; ``totals`` holds each group's total ``N``.  Counts pass their event
    totals; probabilities pass ``N = 1``, where the formula is
    ``-sum(p log p)`` bit for bit.  Sums add in column order and a zero
    weight adds nothing, so a group's entropy depends neither on which zero
    columns it holds nor on the rows batched with it.
    """
    sums = np.bincount(index, _plogp(values).ravel(), totals.size).reshape(totals.shape)
    return np.log(totals) - sums / totals


@dataclass(frozen=True)
class _Layout:
    """The columns of a batch of rows: each block's non-zero cells, blocks in order.

    :func:`_layout` builds it once from one tensor per block.  ``weights``
    and ``totals`` are those tensors' own weights on the columns and each
    block's total ``N``; ``starts`` is the first column of each block and
    ``blocks`` the block of each column.  ``bins`` maps each column to its
    marginal bin of party ``"A"`` and of party ``"B"``, bins laid out block
    by block, and ``bin_blocks`` maps the bins of ``"A"``, ``"B"`` and
    ``"AB"`` (A's bins, then B's) to the marginal entropy each adds to.
    """

    weights: np.ndarray
    totals: np.ndarray
    starts: np.ndarray
    blocks: np.ndarray
    bins: dict[str, np.ndarray]
    bin_blocks: dict[str, np.ndarray]

    def nats(self, weights: np.ndarray, totals: np.ndarray, parties: str = "AB") -> tuple[np.ndarray, ...]:
        """Joint entropy in nats of each block of each row, then that of each party in ``parties``, each ``(batch, blocks)``.

        ``weights`` is a C-contiguous ``(batch, columns)`` array of rows on
        this layout, and ``totals`` the ``(batch, blocks)`` total of each
        row's blocks.  ``parties`` is ``"A"``, ``"B"`` or ``"AB"``; the other
        party's marginal is not computed.  Each marginal bin sums its cells
        in column order either way.
        """
        batch, blocks = totals.shape
        rows = np.arange(batch)[:, None]
        index = np.add(self.blocks, blocks * rows)
        h = _nats(weights, index.ravel(), totals)
        groups = self.bin_blocks[parties]
        marginals = np.empty((batch, groups.size))
        lo = 0
        for party in parties:
            n = self.bin_blocks[party].size
            np.add(self.bins[party], n * rows, out=index)
            marginals[:, lo : lo + n] = np.bincount(index.ravel(), weights.ravel(), batch * n).reshape(batch, n)
            lo += n
        m = len(parties)
        h_m = _nats(marginals, (groups + m * blocks * rows).ravel(), np.concatenate((totals,) * m, axis=1))
        return (h, *(h_m[:, k * blocks : (k + 1) * blocks] for k in range(m)))


def _layout(tensors: Sequence[np.ndarray], totals: Sequence[float]) -> _Layout:
    """The layout of the non-zero cells of ``tensors``, each with party A's ``ndim // 2`` axes first."""
    cells = [np.flatnonzero(t) for t in tensors]
    sizes_b = [math.prod(t.shape[t.ndim // 2 :]) for t in tensors]
    sizes_a = [t.size // size_b for t, size_b in zip(tensors, sizes_b)]
    starts_a, starts_b = accumulate(sizes_a, initial=0), accumulate(sizes_b, initial=0)
    a_bins, b_bins = [], []
    for c, size_b, start_a, start_b in zip(cells, sizes_b, starts_a, starts_b):
        a, b = np.divmod(c, size_b)
        a_bins.append(a + start_a)
        b_bins.append(b + start_b)
    widths = [c.size for c in cells]
    index = np.arange(len(tensors))
    a_blocks, b_blocks = np.repeat(index, sizes_a), np.repeat(index, sizes_b)
    return _Layout(
        weights=np.concatenate([t.ravel()[c] for t, c in zip(tensors, cells)]).astype(np.float64, copy=False),
        totals=np.array(totals, dtype=np.float64),
        starts=np.array([0, *accumulate(widths[:-1])]),
        blocks=np.repeat(index, widths),
        bins={"A": np.concatenate(a_bins), "B": np.concatenate(b_bins)},
        bin_blocks={"A": a_blocks, "B": b_blocks, "AB": np.concatenate([a_blocks, b_blocks + len(index)])},
    )


def _party_nats(dist: DistLike) -> list[float]:
    """Joint, party-A and party-B entropies in nats of ``dist``, whose party split must be known.

    A raw array's split is known only when it is 2-D; a
    :class:`JointDistribution` puts party A's axes first.
    """
    if isinstance(dist, JointDistribution):
        p = dist.probs
    else:
        p = _checked_probs(dist)
        if p.ndim != 2:
            raise UsageError(
                "party structure is ambiguous for raw arrays unless they are 2-D; "
                "wrap higher-rank tensors in JointDistribution"
            )
    layout = _layout([p], [1.0])
    return [float(h[0, 0]) for h in layout.nats(layout.weights[None], layout.totals[None])]


def entropy(dist: DistLike, base: float = 2.0) -> float:
    """Shannon entropy of the whole tensor viewed as one distribution."""
    base = _check_base(base)
    p = dist.probs if isinstance(dist, JointDistribution) else _checked_probs(dist)
    h = _nats(p, np.zeros(p.size, dtype=np.intp), np.ones((1, 1)))
    return float(h[0, 0]) / math.log(base)


def conditional_entropy(dist: DistLike, given: Party = "A", base: float = 2.0) -> float:
    """Entropy of one party's outcome given the other's, H(other | given).

    Computed as H(joint) - H(given party's marginal), which is exact for
    discrete distributions and keeps zero cells harmless.
    """
    base = _check_base(base)
    if given not in ("A", "B"):
        raise UsageError(f"given must be 'A' or 'B', got {given!r}")
    h, h_a, h_b = _party_nats(dist)
    return (h - (h_a if given == "A" else h_b)) / math.log(base)


def mutual_information(dist: DistLike, base: float = 2.0) -> float:
    """Mutual information between the two parties, I(A;B) = H(A)+H(B)-H(A,B)."""
    base = _check_base(base)
    h, h_a, h_b = _party_nats(dist)
    return (h_a + h_b - h) / math.log(base)
