"""Entropic steering witnesses for windowed position/momentum measurements.

:func:`evaluate` computes two families, both functions of discrete
histograms only; its ``direction`` picks one:

* conditional witness (``B_GIVEN_A``, ``A_GIVEN_B``): sum of the steered
  party's conditional entropies for the two conjugate observables, compared
  against a bound built from that party's window widths.
  ``margin = bound - lhs``; a positive margin is a violation and certifies
  steering in the stated direction.
* symmetric witness (``SYMMETRIC``): sum of the two mutual informations,
  compared against a viewing-area bound.  ``margin = lhs - bound``; a
  positive margin certifies steering in both directions at once.

Either way ``margin > 0`` means "witness fired", so callers can treat the
sign uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .entropy import _check_base, _layout, _Layout
from .errors import (
    DimensionMismatchError,
    NonpositiveExtentError,
    NonpositiveWindowError,
    NumericalError,
    UsageError,
)
from .grids import Histogram, JointDistribution, Observable, _Choice, _merged, _positive

__all__ = [
    "PI_E",
    "Direction",
    "WitnessResult",
    "per_dim_bound",
    "min_resolution",
    "evaluate",
]

PI_E = math.pi * math.e

#: A block of a witness: counts, scored with their event total, or probabilities.
Block = Union[Histogram, JointDistribution]

ObservableInput = Union[Block, Sequence[Block]]


class Direction(_Choice):
    """Steering direction a witness certifies."""

    B_GIVEN_A = "B_given_A"
    A_GIVEN_B = "A_given_B"
    SYMMETRIC = "symmetric"


#: Each direction's marginals, scored as ``info = sum(marginals) - h`` beside the
#: joint entropy ``h``, and the parties it steers, whose viewing areas bound it.
_READS = {Direction.B_GIVEN_A: ("A", "B"), Direction.A_GIVEN_B: ("B", "A"), Direction.SYMMETRIC: ("AB", "AB")}


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of one witness evaluation.

    ``bound_terms`` holds the additive pieces of the bound: one entry per
    transverse dimension for the conditional witness, and the two per-party
    candidates (A, B) whose max is taken for the symmetric witness.
    ``margin > 0`` certifies steering in either convention.
    """

    direction: Direction
    base: float
    lhs: float
    bound: float
    margin: float
    mode: str
    n_dims: int
    bound_terms: tuple[float, ...]

    @property
    def violated(self) -> bool:
        return self.margin > 0.0


def per_dim_bound(width_x: float, width_k: float, base: float = 2.0) -> float:
    """One dimension's contribution to the conditional bound, log(pi*e/(dx*dk)).

    Positive only when the window product resolves below pi*e; otherwise the
    conditional witness cannot fire on this dimension no matter the data.
    """
    base = _check_base(base)
    width_x = _positive(width_x, "width_x", NonpositiveWindowError)
    width_k = _positive(width_k, "width_k", NonpositiveWindowError)
    return (math.log(PI_E) - math.log(width_x) - math.log(width_k)) / math.log(base)


def _area_nats(extent_x: float, extent_k: float) -> float:
    """log(L_x * L_k / (pi*e)) in nats; no witness over an area where it is <= 0 can fail."""
    return math.log(extent_x) + math.log(extent_k) - math.log(PI_E)


def min_resolution(extent_x: float, extent_k: float) -> int:
    """Smallest per-axis window count ``n >= 2`` that makes the conditional bound positive.

    The bound itself decides: ``n`` is the smallest with
    ``per_dim_bound(L_x / n, L_k / n) > 0``, the bound :func:`evaluate`
    computes on the widths of ``AxisGrid.centered(n, L)``, so ties resolve
    as the witness resolves them.  An area of at most pi*e, which
    :func:`evaluate` refuses on any grid, raises :class:`NumericalError`;
    past it one window never suffices.
    """
    extent_x = _positive(extent_x, "extent_x", NonpositiveExtentError)
    extent_k = _positive(extent_k, "extent_k", NonpositiveExtentError)
    if _area_nats(extent_x, extent_k) <= 0.0:
        raise NumericalError(
            f"viewing area L_x*L_k = {extent_x * extent_k:.6g} is at most pi*e = {PI_E:.6g}, "
            "so no grid over it makes the conditional bound positive"
        )
    root = math.exp(_area_nats(extent_x, extent_k) / 2.0)  # sqrt(L_x*L_k/(pi*e)), with no product to overflow
    lo, hi = max(1, int(root * (1.0 - 1e-6)) - 1), int(root * (1.0 + 1e-6)) + 2
    while hi - lo > 1:  # the bound rises with n: it is positive at hi, and at no lo >= 2
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if per_dim_bound(extent_x / mid, extent_k / mid) > 0.0 else (mid, hi)
    return hi


def _blocks(obj, kinds: tuple[type, ...], name: str) -> tuple:
    """``obj`` as a non-empty tuple of ``kinds``: one instance, or a sequence of them."""
    if isinstance(obj, kinds):
        return (obj,)
    try:
        blocks = tuple(obj)
    except TypeError:
        blocks = ()
    if not blocks or not all(isinstance(b, kinds) for b in blocks):
        names = " or ".join(k.__name__ for k in kinds)
        raise UsageError(f"{name} must be a {names} or a sequence of them, got {type(obj).__name__}")
    return blocks


@dataclass(frozen=True)
class _MarginKernel:
    """A validated witness set-up, with the layout of its blocks' non-zero cells, that scores batches of rows.

    Calling it with a C-contiguous ``(columns, batch)`` array of weights on
    ``layout``, a column per row, and the ``(blocks, batch)`` totals of each
    row's blocks, position blocks first, returns the left-hand side and the
    margin of each row.  One expression scores every direction:
    ``info = sum((sum(marginals) - h) / log(base))`` over blocks, on the
    marginals :data:`_READS` lists for it, is the symmetric left-hand side
    and minus the conditional one.  The same table names the steered
    parties, whose viewing areas :func:`_bound` checks and whose windows a
    resolution curve's x-axis reads, party B's for the symmetric witness; a
    curve row that the check refuses is named ``curve row r: ...``.  Counts
    are scored with their event totals, probabilities with totals of one.
    The caller owns the weights and totals, and the call only reads them,
    so ``layout.weights`` can be passed as they are; its chunk-sized
    temporaries go to ``scratch``, an optional float64 array of at least
    ``weights.size`` elements that the call overwrites and keeps nothing
    of.  :meth:`point` scores the blocks the kernel was built from and is
    the only place a :class:`WitnessResult` is built; the bootstrap scores
    its replicates' draws in chunks through the same call, each led by the
    observed row, which its ``point`` reads.
    """

    direction: Direction
    base: float
    mode: str
    n_dims: int
    bound: float
    bound_terms: tuple[float, ...]
    layout: _Layout

    def __call__(self, weights: np.ndarray, totals: np.ndarray, scratch: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        h, *marginals = self.layout.nats(weights, totals, _READS[self.direction][0], scratch)
        info = sum((sum(marginals) - h) / math.log(self.base))
        if self.direction is Direction.SYMMETRIC:
            return info, info - self.bound
        return 0.0 - info, self.bound + info  # where info is 0, -info would be -0.0

    def point(self, scored: tuple[np.ndarray, np.ndarray] | None = None) -> WitnessResult:
        """The witness on the blocks the kernel was built from, scored as a batch of one.

        ``scored`` is the kernel's output on a batch whose row 0 is those
        blocks; its row 0 is then read instead, with the same bits.
        """
        lhs, margin = scored or self(self.layout.weights[:, None], self.layout.totals[:, None])
        return WitnessResult(
            direction=self.direction,
            base=self.base,
            lhs=float(lhs[0]),
            bound=self.bound,
            margin=float(margin[0]),
            mode=self.mode,
            n_dims=self.n_dims,
            bound_terms=self.bound_terms,
        )


def _weights(block: Block) -> np.ndarray:
    """The tensor a block is scored on: a :class:`Histogram`'s counts, a :class:`JointDistribution`'s probabilities."""
    return block.counts.counts if isinstance(block, Histogram) else block.probs


def _block_sums(arr: np.ndarray, factors: Sequence[int]) -> np.ndarray:
    """``arr`` summed over contiguous blocks of ``factors``, one per axis, each a divisor of its axis."""
    shape = [n for size, factor in zip(arr.shape, factors) for n in (size // factor, factor)]
    return arr.reshape(shape).sum(axis=tuple(range(1, 2 * arr.ndim, 2)))


def _checked_blocks(
    position: ObservableInput,
    momentum: ObservableInput,
    direction: Direction,
    base: float,
    kinds: tuple[type, ...],
) -> tuple[Direction, float, tuple, tuple]:
    """A witness's checked direction, base, position blocks and momentum blocks, each one block of ``kinds`` or a sequence of them.

    The blocks must sit on grids of their observable and cover the same
    number of dimensions, at most 2.
    """
    direction = Direction(direction)
    base = _check_base(base)
    pos_blocks = _blocks(position, kinds, "position")
    mom_blocks = _blocks(momentum, kinds, "momentum")
    for blocks, observable in ((pos_blocks, Observable.POSITION), (mom_blocks, Observable.MOMENTUM)):
        for b in blocks:
            if b.grid.observable is not observable:
                raise UsageError(
                    f"expected a {observable.value} distribution, got one on a "
                    f"{b.grid.observable.value} grid"
                )
    n_pos = sum(b.grid.n_dims for b in pos_blocks)
    n_mom = sum(b.grid.n_dims for b in mom_blocks)
    if n_pos != n_mom:
        raise DimensionMismatchError(
            f"position covers {n_pos} dimension(s) but momentum covers {n_mom}"
        )
    if n_pos > 2:
        raise UsageError(f"at most 2 transverse dimensions supported, got {n_pos}")
    return direction, base, pos_blocks, mom_blocks


def _bound(direction: Direction, base: float, pos_grids: Sequence, mom_grids: Sequence) -> tuple:
    """The dimension count, bound and bound terms of checked blocks' grids, position grids first.

    A sweep cell's grids are its blocks' :func:`grids._merged` ones.  Areas
    that leave the margin >= 0 on any data raise :class:`NumericalError`.
    """
    # each party's (position axis, momentum axis) pairs, dimension by dimension
    axes = {p: list(zip(*([ax for g in grids for ax in g.axes(p)] for grids in (pos_grids, mom_grids)))) for p in "AB"}
    n_dims = len(axes["A"])

    # each party's sum over dimensions of log(L_x*L_k/(pi*e)), in nats: on
    # any data the margin is at least minus the steered parties' largest sum
    area_nats = {party: sum(_area_nats(x.extent, k.extent) for x, k in pairs) for party, pairs in axes.items()}
    parties = _READS[direction][1]
    if max(area_nats[p] for p in parties) <= 0.0:
        pi_e = "pi*e" if n_dims == 1 else f"(pi*e)^{n_dims}"
        small = "; ".join(
            f"party {p}'s viewing area L_x*L_k = {' * '.join(f'{x.extent * k.extent:.6g}' for x, k in axes[p])} "
            f"is at most {pi_e} = {PI_E ** n_dims:.6g}"
            for p in parties
        )
        raise NumericalError(
            f"{small}, so the {direction.value} margin is >= 0 on any data: the witness cannot fail there"
        )

    if direction is Direction.SYMMETRIC:
        terms = [area_nats[party] / math.log(base) for party in parties]
        return n_dims, max(terms), tuple(terms)
    terms = [per_dim_bound(x.window_width, k.window_width, base) for x, k in axes[parties[0]]]
    return n_dims, sum(terms), tuple(terms)


def _kernel(
    direction: Direction,
    base: float,
    pos_blocks: tuple,
    mom_blocks: tuple,
    factor_a: int = 1,
    factor_b: int = 1,
) -> _MarginKernel:
    """The kernel of checked blocks with party A's windows merged in groups of ``factor_a`` and B's of ``factor_b``: its :func:`_bound`, then its layout.

    The bound reads the blocks' :func:`grids._merged` grids and their weights
    are summed over the same groups, so the kernel has the bits of one built on ``downsample``'s blocks.
    """
    grids = [[_merged(b.grid, factor_a, factor_b) for b in blocks] for blocks in (pos_blocks, mom_blocks)]
    n_dims, bound, terms = _bound(direction, base, *grids)
    blocks = (*pos_blocks, *mom_blocks)
    return _MarginKernel(
        direction=direction,
        base=base,
        mode="independent-axes" if max(len(pos_blocks), len(mom_blocks)) > 1 else "full-joint",
        n_dims=n_dims,
        bound=bound,
        bound_terms=terms,
        layout=_layout(
            [_block_sums(_weights(b), [factor_a] * b.grid.n_dims + [factor_b] * b.grid.n_dims) for b in blocks],
            [b.total if isinstance(b, Histogram) else 1.0 for b in blocks],
        ),
    )


def evaluate(
    position: ObservableInput,
    momentum: ObservableInput,
    direction: Direction = Direction.B_GIVEN_A,
    base: float = 2.0,
) -> WitnessResult:
    """The witness of ``direction``: conditional for B_given_A and A_given_B, else symmetric.

    ``position`` / ``momentum`` are full-joint blocks, or sequences of
    per-dimension blocks treated as independent (their entropy terms add).
    A block is a :class:`JointDistribution`, or a :class:`Histogram` whose
    counts are scored as they are: the same score, within roundoff, as its
    ``normalize()``, and bit for bit the ``point`` of its bootstrap.
    """
    return _kernel(*_checked_blocks(position, momentum, direction, base, (Histogram, JointDistribution))).point()
