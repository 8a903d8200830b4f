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


def _plogp(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``p * log(p)`` elementwise in nats, zero at cells at or below ``ZERO_FLOOR``; ``p`` may be counts.

    Those cells take ``log(p + 1) = log(1) = 0``, which spares the log a
    mask.  The terms are written to ``out`` if it is given.
    """
    terms = np.add(p, p <= ZERO_FLOOR, out=out)
    np.log(terms, out=terms)
    terms *= p
    return terms


def _nats(values: np.ndarray, edges: Sequence[int], totals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Entropies in nats, ``log N - sum(w log w) / N``, of groups of weights, shaped like ``totals``.

    ``values`` is a C-contiguous ``(cells, batch)`` array of non-negative
    weights, one column per row of the batch; group ``g`` holds its cells
    ``edges[g]`` to ``edges[g + 1]`` and ``totals[g]`` its total ``N``.
    Counts pass their event totals; probabilities pass ``N = 1``, where the
    formula is ``-sum(p log p)`` bit for bit.  Each group adds its cells in
    order from the first: ``np.add.reduce`` along axis 0 does so on two or
    more columns, but sums a single column pairwise, so one column is
    summed by ``np.add.accumulate``.  A zero weight adds nothing, so a
    group's entropy depends neither on which zero cells it holds nor on the
    rows batched with it.  The ``w log w`` terms are written to ``out``, an
    array shaped like ``values``, if it is given.
    """
    terms = _plogp(values, out)
    add = np.add.reduce if terms.shape[1] > 1 else lambda cells: np.add.accumulate(cells)[-1]
    sums = np.array([add(terms[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])])
    return np.log(totals) - sums / totals


@dataclass(frozen=True)
class _Layout:
    """The columns of a batch of rows: each block's non-zero cells, blocks in order.

    :func:`_layout` builds it once from one tensor per block.  ``weights``
    and ``totals`` are those tensors' own weights on the columns and each
    block's total ``N``; ``edges`` holds each block's first column, then the
    number of columns.  ``bins`` maps each column to its marginal bin of
    party ``"A"`` and of party ``"B"``, bins laid out block by block, and
    ``bin_edges`` each block's first bin of that party, then the number of
    bins.
    """

    weights: np.ndarray
    totals: np.ndarray
    edges: tuple[int, ...]
    bins: dict[str, np.ndarray]
    bin_edges: dict[str, tuple[int, ...]]

    def nats(self, weights: np.ndarray, totals: np.ndarray, parties: str = "AB", scratch: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """Joint entropy in nats of each block of each row, then that of each party in ``parties``, each ``(blocks, batch)``.

        ``weights`` is a C-contiguous ``(columns, batch)`` array, one row of
        the batch per column, on this layout, and ``totals`` the ``(blocks,
        batch)`` total of each row's blocks.  ``parties`` is ``"A"``, ``"B"``
        or ``"AB"``; the other party's marginal is not computed.  Each
        marginal bin sums its cells in column order either way.

        The caller owns ``weights`` and ``totals``; the call only reads
        them.  Its chunk-sized work, the ``w log w`` terms and then each
        party's bin index, is written in turn to ``scratch``, a float64
        array of at least ``weights.size`` elements that the call overwrites
        and does not keep; with none, it allocates one.
        """
        batch = weights.shape[1]
        work = np.empty_like(weights) if scratch is None else scratch[: weights.size].reshape(weights.shape)
        scores = [_nats(weights, self.edges, totals, work)]
        for party in parties:
            index = np.add.outer(self.bins[party] * batch, np.arange(batch), out=work.view(np.int64))
            marginals = np.bincount(index.ravel(), weights.ravel(), self.bin_edges[party][-1] * batch)
            scores.append(_nats(marginals.reshape(-1, batch), self.bin_edges[party], totals))
        return tuple(scores)


def _layout(tensors: Sequence[np.ndarray], totals: Sequence[float]) -> _Layout:
    """The layout of the non-zero cells of ``tensors``, each with party A's ``ndim // 2`` axes first."""
    cells = [np.flatnonzero(t) for t in tensors]
    sizes_b = [math.prod(t.shape[t.ndim // 2 :]) for t in tensors]
    sizes_a = [t.size // size_b for t, size_b in zip(tensors, sizes_b)]
    edges_a, edges_b = tuple(accumulate(sizes_a, initial=0)), tuple(accumulate(sizes_b, initial=0))
    a_bins, b_bins = [], []
    for c, size_b, start_a, start_b in zip(cells, sizes_b, edges_a, edges_b):
        a, b = np.divmod(c, size_b)
        a_bins.append(a + start_a)
        b_bins.append(b + start_b)
    return _Layout(
        weights=np.concatenate([t.ravel()[c] for t, c in zip(tensors, cells)]).astype(np.float64, copy=False),
        totals=np.array(totals, dtype=np.float64),
        edges=tuple(accumulate((c.size for c in cells), initial=0)),
        bins={"A": np.concatenate(a_bins), "B": np.concatenate(b_bins)},
        bin_edges={"A": edges_a, "B": edges_b},
    )


def _party_nats(dist: DistLike, parties: str = "AB") -> list[float]:
    """Joint entropy in nats of ``dist``, then that of each party in ``parties``; its party split must be known.

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
    return [float(h[0, 0]) for h in layout.nats(layout.weights[:, None], layout.totals[:, None], parties)]


def entropy(dist: DistLike, base: float = 2.0) -> float:
    """Shannon entropy of the whole tensor viewed as one distribution."""
    base = _check_base(base)
    p = dist.probs if isinstance(dist, JointDistribution) else _checked_probs(dist)
    h = _nats(p.reshape(-1, 1), (0, p.size), np.ones((1, 1)))
    return float(h[0, 0]) / math.log(base)


def conditional_entropy(dist: DistLike, given: Party = "A", base: float = 2.0) -> float:
    """Entropy of one party's outcome given the other's, H(other | given).

    Computed as H(joint) - H(given party's marginal), which is exact for
    discrete distributions and keeps zero cells harmless.
    """
    base = _check_base(base)
    if given not in ("A", "B"):
        raise UsageError(f"given must be 'A' or 'B', got {given!r}")
    h, h_given = _party_nats(dist, given)
    return (h - h_given) / math.log(base)


def mutual_information(dist: DistLike, base: float = 2.0) -> float:
    """Mutual information between the two parties, I(A;B) = H(A)+H(B)-H(A,B)."""
    base = _check_base(base)
    h, h_a, h_b = _party_nats(dist)
    return (h_a + h_b - h) / math.log(base)
