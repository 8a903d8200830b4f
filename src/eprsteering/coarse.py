"""Coarse-graining and resolution sweeps.

Downsampling merges adjacent windows, which is exactly what re-binning the
raw events onto the coarser grid would have produced; counts stay counts and
probabilities stay normalized.  The sweep helpers re-evaluate witnesses at
every reachable resolution of a square base grid.  A sweep checks its base
blocks once and builds each cell's margin kernel straight from them, through
the witness module's one kernel builder with the cell's merge factors.  No
cell builds :func:`downsample`'s blocks, yet each scores, bit for bit, as
the witness on them.  A refusal of the base grids, of a map cell or of a
curve row names them in the error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bootstrap import BootstrapReport, _check_n_boot, _check_seed, _report
from .errors import DataError, NonDivisibleFactorError, NumericalError, UsageError
from .grids import Histogram, JointDistribution, _check_int, _merged, _shown
from .witness import _READS, Direction, WitnessResult, _block_sums, _bound, _checked_blocks, _kernel, _weights

__all__ = [
    "downsample",
    "CurvePoint",
    "resolution_curve",
    "MapCell",
    "ResolutionSweep",
    "asymmetry_map",
]


def _divisor(value: int, size: int, what: str, minimum: int = 1) -> int:
    """``value`` as an integer >= ``minimum`` that divides ``size``."""
    value = _check_int(value, what, minimum)
    if size % value != 0:
        raise NonDivisibleFactorError(f"{what} must divide {size}, got {_shown(value)}")
    return value


def downsample(data: Histogram | JointDistribution, factor_a: int, factor_b: int):
    """Merge windows in groups of ``factor_a`` (party A) and ``factor_b`` (party B).

    The factor applies to every axis of its party and must divide it.
    Returns the same type it was given, on :func:`grids._merged`'s grid: the
    one a sweep cell reads.
    """
    if not isinstance(data, (Histogram, JointDistribution)):
        raise UsageError(f"downsample expects Histogram or JointDistribution, got {type(data).__name__}")
    weights = _weights(data)
    n = data.grid.n_dims
    factors = [
        _divisor(factor, size, f"downsampling factor of axis {axis}")
        for axis, (size, factor) in enumerate(zip(weights.shape, [factor_a] * n + [factor_b] * n))
    ]
    return type(data)(_block_sums(weights, factors), _merged(data.grid, factors[0], factors[-1]))


def _sweep_inputs(position, momentum, kinds: tuple[type, ...], direction: Direction, base: float) -> tuple[Direction, float, int]:
    """A sweep's checked direction and base, and the window count ``n0`` its two blocks of ``kinds`` share on every axis; base grids the viewing-area rule refuses are named."""
    for name, block in (("position", position), ("momentum", momentum)):
        if not isinstance(block, kinds):
            names = " or ".join(k.__name__ for k in kinds)
            raise UsageError(f"{name} must be a {names}, got {type(block).__name__}")
    counts = {ax.n_windows for g in (position.grid, momentum.grid) for ax in g.axes_a + g.axes_b}
    if len(counts) != 1:
        raise UsageError(
            f"resolution sweeps need the same window count on every axis, got {sorted(counts)}"
        )
    direction, base, _, _ = _checked_blocks(position, momentum, direction, base, kinds)
    try:
        _bound(direction, base, (position.grid,), (momentum.grid,))
    except NumericalError as exc:
        raise NumericalError(f"base grids: {exc}") from None
    return direction, base, counts.pop()


def _resolutions(requested: Sequence[int] | None, n0: int) -> tuple[int, ...]:
    """A sweep's distinct window counts on an ``n0``-window grid, each a divisor >= 2; ``None`` means all of them.

    At one window a party tests no steering: the witness is constant (if the
    party is steered, or the witness symmetric) or conditions on nothing.
    """
    if requested is None:
        resolutions = tuple(d for d in range(2, n0 + 1) if n0 % d == 0)
    else:
        resolutions = tuple(_divisor(r, n0, "resolution", 2) for r in requested)
    if not resolutions:
        raise UsageError(f"a resolution sweep needs a resolution >= 2 that divides {n0}")
    if len(set(resolutions)) != len(resolutions):
        raise UsageError(f"a resolution sweep lists each resolution once, got {list(resolutions)}")
    return resolutions


@dataclass(frozen=True)
class CurvePoint:
    """Witness evaluation at one per-axis resolution.

    ``inv_window_product`` is the product over dimensions of
    ``1 / (width_x * width_k)`` of the steered party's merged windows, party B's
    for the symmetric witness (which ``eprsteer curve`` refuses), the natural
    x-axis for resolution plots.  A resolution that cannot be scored gives no
    point: :func:`resolution_curve` refuses it, naming its row.
    """

    resolution: int
    inv_window_product: float
    lhs: float
    bound: float
    margin: float


def resolution_curve(
    position: Histogram | JointDistribution,
    momentum: Histogram | JointDistribution,
    resolutions: Sequence[int] | None = None,
    direction: Direction = Direction.B_GIVEN_A,
    base: float = 2.0,
) -> tuple[CurvePoint, ...]:
    """Point-estimate witness margins across symmetric coarse-grainings.

    Both parties are downsampled together, so the sweep walks square
    resolutions ``r >= 2`` that divide the (square) base grid, by default all
    of them in increasing order.  Each point is :func:`evaluate` on the
    downsampled blocks: on histograms, :func:`asymmetry_map`'s ``(r, r)`` cell.
    ``inv_window_product`` takes the steered party's windows, party B's for
    the symmetric witness, which ``eprsteer curve`` refuses.  A row whose
    merged extents the viewing-area rule refuses raises its
    :class:`NumericalError` with a message that starts ``curve row r:``.
    """
    direction, base, n0 = _sweep_inputs(position, momentum, (Histogram, JointDistribution), direction, base)
    resolutions = _resolutions(resolutions, n0)
    steered = _READS[direction][1][-1]
    points = []
    for r in resolutions:
        f = n0 // r
        try:
            res = _kernel(direction, base, (position,), (momentum,), f, f).point()
        except NumericalError as exc:
            raise type(exc)(f"curve row {r}: {exc}") from None
        inv = 1.0
        for wx, wk in zip(_merged(position.grid, f, f).widths(steered), _merged(momentum.grid, f, f).widths(steered)):
            inv /= wx * wk
        points.append(
            CurvePoint(resolution=r, inv_window_product=inv, lhs=res.lhs, bound=res.bound, margin=res.margin)
        )
    return tuple(points)


@dataclass(frozen=True)
class MapCell:
    """One (party A resolution, party B resolution) cell of an asymmetry map.

    ``result`` is ``report.point``, the point estimate the report was built with.
    """

    resolution_a: int
    resolution_b: int
    result: WitnessResult
    report: BootstrapReport


@dataclass(frozen=True)
class ResolutionSweep:
    """Asymmetric resolution sweep with per-cell bootstrap significance.

    ``cells`` run row-major, ``resolutions_b`` within each ``resolutions_a``,
    and ``margins`` and ``significances`` read them in that order.
    """

    direction: Direction
    base: float
    resolutions_a: tuple[int, ...]
    resolutions_b: tuple[int, ...]
    n_boot: int
    seed: int
    cells: tuple[MapCell, ...]

    def _matrix(self, getter) -> np.ndarray:
        values = np.array([getter(cell) for cell in self.cells], dtype=float)
        return values.reshape(len(self.resolutions_a), len(self.resolutions_b))

    def margins(self) -> np.ndarray:
        return self._matrix(lambda c: c.report.point.margin)

    def significances(self) -> np.ndarray:
        return self._matrix(lambda c: c.report.significance)


def asymmetry_map(
    position: Histogram,
    momentum: Histogram,
    resolutions_a: Sequence[int] | None = None,
    resolutions_b: Sequence[int] | None = None,
    *,
    direction: Direction = Direction.B_GIVEN_A,
    n_boot: int = 1000,
    seed: int = 0,
    base: float = 2.0,
) -> ResolutionSweep:
    """Witness margins over a grid of per-party resolutions.

    Each party's resolutions default to every divisor >= 2 of the base grid,
    as in :func:`resolution_curve`.  Each cell downsamples the two parties
    independently and bootstraps the witness there: its report is
    ``witness_significance`` on the :func:`downsample` blocks with the seed
    ``[seed, res_a, res_b]``, the point estimate on the observed counts
    beside the Poisson-bootstrap significance.  So cell randomness does not
    depend on sweep order.  The base blocks are checked once, the
    viewing-area rule refusing ``base grids: ...``; the checks that depend
    on the cell run cell by cell: that rule on the merged extents, the
    largest Poisson mean, empty-replicate redraws and the roundoff-spread
    refusal.  Every refusal of a cell raises its own error type with a
    message that starts ``map cell (res_a, res_b):``.
    """
    direction, base, n0 = _sweep_inputs(position, momentum, (Histogram,), direction, base)
    seed = _check_seed(seed)
    res_a = _resolutions(resolutions_a, n0)
    res_b = _resolutions(resolutions_b, n0)
    n_boot = _check_n_boot(n_boot)
    cells = []
    for ra in res_a:
        for rb in res_b:
            try:
                kernel = _kernel(direction, base, (position,), (momentum,), n0 // ra, n0 // rb)
                report = _report(kernel, (seed, ra, rb), n_boot)
            except (DataError, NumericalError) as exc:
                raise type(exc)(f"map cell ({ra}, {rb}): {exc}") from None
            cells.append(MapCell(resolution_a=ra, resolution_b=rb, result=report.point, report=report))
    return ResolutionSweep(
        direction=direction,
        base=base,
        resolutions_a=res_a,
        resolutions_b=res_b,
        n_boot=n_boot,
        seed=seed,
        cells=tuple(cells),
    )
