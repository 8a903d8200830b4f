"""Entropic steering witnesses for windowed position/momentum measurements.

Two families are implemented, both functions of discrete histograms only:

* conditional witness: sum of the steered party's conditional entropies for
  the two conjugate observables, compared against a bound built from that
  party's window widths.  ``margin = bound - lhs``; a positive margin is a
  violation and certifies steering in the stated direction.
* symmetric witness: sum of the two mutual informations, compared against a
  viewing-area bound.  ``margin = lhs - bound``; a positive margin certifies
  steering in both directions at once.

Either way ``margin > 0`` means "witness fired", so callers can treat the
sign uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .entropy import _check_base, _plugin_nats
from .errors import (
    DimensionMismatchError,
    NonpositiveExtentError,
    NonpositiveWindowError,
    UsageError,
)
from .grids import GridSpec, JointDistribution, Observable, Party, _positive

__all__ = [
    "PI_E",
    "Direction",
    "WitnessResult",
    "per_dim_bound",
    "min_resolution",
    "conditional_witness",
    "symmetric_witness",
    "evaluate",
]

PI_E = math.pi * math.e

ObservableInput = Union[JointDistribution, Sequence[JointDistribution]]


class Direction(str, Enum):
    """Steering direction a witness certifies."""

    B_GIVEN_A = "B_given_A"
    A_GIVEN_B = "A_given_B"
    SYMMETRIC = "symmetric"


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


def min_resolution(extent_x: float, extent_k: float) -> int:
    """Smallest per-axis window count that makes the conditional bound positive.

    For square grids over fixed extents the bound per dimension is
    log(N^2 * pi*e / (L_x * L_k)); it must be strictly positive, so exact ties
    resolve upward.
    """
    extent_x = _positive(extent_x, "extent_x", NonpositiveExtentError)
    extent_k = _positive(extent_k, "extent_k", NonpositiveExtentError)
    ratio = extent_x * extent_k / PI_E
    return int(math.floor(math.sqrt(ratio))) + 1


def _blocks(obj, kind: type, name: str) -> tuple:
    """``obj`` as a non-empty tuple of ``kind``: one instance, or a sequence of them."""
    if isinstance(obj, kind):
        return (obj,)
    try:
        blocks = tuple(obj)
    except TypeError:
        blocks = ()
    if not blocks or not all(isinstance(b, kind) for b in blocks):
        raise UsageError(
            f"{name} must be a {kind.__name__} or a sequence of them, got {type(obj).__name__}"
        )
    return blocks


@dataclass(frozen=True)
class _MarginKernel:
    """A validated witness set-up that scores batches of count-normalized rows.

    Calling it with one ``(batch, *cells)`` probability array per block,
    position blocks first, returns the left-hand side and the margin of each
    row.  :meth:`point` scores a batch of one and is the only place a
    :class:`WitnessResult` is built; the bootstrap scores its replicates in
    chunks through the same call.
    """

    direction: Direction
    base: float
    mode: str
    n_dims: int
    block_dims: tuple[int, ...]
    bound: float
    bound_terms: tuple[float, ...]

    def __call__(self, probs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        log_base = math.log(self.base)
        terms = []
        for p, n in zip(probs, self.block_dims):
            h, h_a, h_b = _plugin_nats(p, n)
            if self.direction is Direction.SYMMETRIC:
                nats = h_a + h_b - h
            else:
                nats = h - (h_a if self.direction is Direction.B_GIVEN_A else h_b)
            terms.append(nats / log_base)
        lhs = sum(terms)
        if self.direction is Direction.SYMMETRIC:
            return lhs, lhs - self.bound
        return lhs, self.bound - lhs

    def point(self, probs: Sequence[np.ndarray]) -> WitnessResult:
        """The witness on one probability array per block, scored as a batch of one."""
        lhs, margin = self([p[None] for p in probs])
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


def _margin_kernel(
    position: Sequence[GridSpec],
    momentum: Sequence[GridSpec],
    direction: Direction,
    base: float,
) -> _MarginKernel:
    """Check the grids of paired position/momentum blocks and build their witness bound.

    ``base`` must already be checked.
    """
    for grids, observable in ((position, Observable.POSITION), (momentum, Observable.MOMENTUM)):
        for g in grids:
            if g.observable is not observable:
                raise UsageError(
                    f"expected a {observable.value} distribution, got one on a "
                    f"{g.observable.value} grid"
                )
    n_pos = sum(g.n_dims for g in position)
    n_mom = sum(g.n_dims for g in momentum)
    if n_pos != n_mom:
        raise DimensionMismatchError(
            f"position covers {n_pos} dimension(s) but momentum covers {n_mom}"
        )
    if n_pos > 2:
        raise UsageError(f"at most 2 transverse dimensions supported, got {n_pos}")

    if direction is Direction.SYMMETRIC:
        log_base = math.log(base)
        terms = []
        for party in ("A", "B"):
            extents_x = [e for g in position for e in g.extents(party)]
            extents_k = [e for g in momentum for e in g.extents(party)]
            nats = sum(
                math.log(lx) + math.log(lk) - math.log(PI_E)
                for lx, lk in zip(extents_x, extents_k)
            )
            terms.append(nats / log_base)
        bound = max(terms)
    else:
        steered: Party = "B" if direction is Direction.B_GIVEN_A else "A"
        widths_x = [w for g in position for w in g.widths(steered)]
        widths_k = [w for g in momentum for w in g.widths(steered)]
        terms = [per_dim_bound(wx, wk, base) for wx, wk in zip(widths_x, widths_k)]
        bound = sum(terms)
    return _MarginKernel(
        direction=direction,
        base=base,
        mode="independent-axes" if max(len(position), len(momentum)) > 1 else "full-joint",
        n_dims=n_pos,
        block_dims=tuple(g.n_dims for g in (*position, *momentum)),
        bound=bound,
        bound_terms=tuple(terms),
    )


def conditional_witness(
    position: ObservableInput,
    momentum: ObservableInput,
    direction: Direction = Direction.B_GIVEN_A,
    base: float = 2.0,
) -> WitnessResult:
    """Directed entropic witness from position and momentum histograms.

    ``position`` / ``momentum`` are full-joint distributions, or sequences of
    per-dimension distributions treated as independent blocks (their
    conditional entropies add).
    """
    if Direction(direction) is Direction.SYMMETRIC:
        raise UsageError("use symmetric_witness for the symmetric direction")
    return evaluate(position, momentum, direction, base)


def symmetric_witness(
    position: ObservableInput,
    momentum: ObservableInput,
    base: float = 2.0,
) -> WitnessResult:
    """Mutual-information witness; firing certifies steering in both directions."""
    return evaluate(position, momentum, Direction.SYMMETRIC, base)


def evaluate(
    position: ObservableInput,
    momentum: ObservableInput,
    direction: Direction = Direction.B_GIVEN_A,
    base: float = 2.0,
) -> WitnessResult:
    """The witness of ``direction``: conditional for B_given_A and A_given_B, else symmetric."""
    direction = Direction(direction)
    base = _check_base(base)
    pos = _blocks(position, JointDistribution, "position")
    mom = _blocks(momentum, JointDistribution, "momentum")
    kernel = _margin_kernel([b.grid for b in pos], [b.grid for b in mom], direction, base)
    return kernel.point([b.probs for b in pos + mom])
