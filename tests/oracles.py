"""Reference routes the tests hold the package against; not collected as tests.

The package windows its model state by one route, the exact Gaussian
``spdc.discretize_state``.  Here is the generic one: any smooth joint density,
integrated per cell with the same 16-point Gauss-Legendre rule and passed
through the same two-sided mass gate, plus the model's densities and the
paper's windowed bound on the conditional differential entropy.  Beside
it is the row-major entropy kernel that summed every group with one
weighted ``np.bincount``, the bits the column-major kernel must keep, and
the correlated separable states, the steering null that is not a product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from eprsteering import AxisGrid, GridSpec, JointDistribution, Observable, SyntheticState, conditional_entropy
from eprsteering.entropy import ZERO_FLOOR, _plogp
from eprsteering.spdc import STRICT_TAIL_TOL, DoubleGaussianParams, _cell_nodes, _exact_gaussian_cells, _windowed

Density = Callable[[np.ndarray, np.ndarray], np.ndarray]


def position_density(params: DoubleGaussianParams, x_a, x_b) -> np.ndarray | float:
    """Joint position density of the model axis."""
    sp, sm = params.sigma_plus, params.sigma_minus
    x_a = np.asarray(x_a, dtype=np.float64)
    x_b = np.asarray(x_b, dtype=np.float64)
    out = np.exp(-((x_a + x_b) ** 2) / (2 * sp**2) - ((x_a - x_b) ** 2) / (2 * sm**2))
    out /= math.pi * sp * sm
    return out if out.ndim else float(out)


def momentum_density(params: DoubleGaussianParams, k_a, k_b) -> np.ndarray | float:
    """Joint momentum density; the sum/difference mode widths invert."""
    sp, sm = params.sigma_plus, params.sigma_minus
    k_a = np.asarray(k_a, dtype=np.float64)
    k_b = np.asarray(k_b, dtype=np.float64)
    out = np.exp(-((k_a + k_b) ** 2) * sp**2 / 2 - ((k_a - k_b) ** 2) * sm**2 / 2)
    out *= sp * sm / math.pi
    return out if out.ndim else float(out)


def _cell_values(pdf: Density, grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``vals[l, g, m, h]``: ``pdf`` at node g of A-window l and node h of B-window m."""
    xa, wa = _cell_nodes(grid.axes_a[0].edges())
    xb, wb = _cell_nodes(grid.axes_b[0].edges())
    vals = np.asarray(pdf(xa[:, :, None, None], xb[None, None, :, :]), dtype=np.float64)
    return vals, wa, wb


def discretize(
    pdf: Density, grid: GridSpec, *, tail_tol: float = STRICT_TAIL_TOL
) -> tuple[JointDistribution, float]:
    """Window a single-axis joint density with per-cell Gauss-Legendre quadrature.

    ``pdf(x_a, x_b)`` must broadcast over arrays.  Returns the renormalized
    distribution and the mass deficit ``1 - mass``; ``TruncationError`` when
    ``|1 - mass| > tail_tol``, which catches both grids that miss real
    probability and quadrature that cannot resolve the density.
    """
    vals, wa, wb = _cell_values(pdf, grid)
    return _windowed(np.einsum("agbh,ag,bh->ab", vals, wa, wb), grid, tail_tol)


def windowed_conditional_rhs(pdf: Density, grid: GridSpec) -> float:
    """Windowed upper bound on the conditional differential entropy h(b|a), nats.

    Assembles  sum_lm P_lm * h_lm(b|a)  +  H(B|A)  from per-cell quadrature,
    where h_lm is the in-cell conditional differential entropy.  Windowing
    discards information, so this dominates the true h(b|a) up to quadrature
    error; the margin shrinks to zero for uncorrelated densities.  Raises
    ``TruncationError`` under the same mass gate as :func:`discretize`.
    """
    vals, wa, wb = _cell_values(pdf, grid)
    cell_p = np.einsum("agbh,ag,bh->ab", vals, wa, wb)
    cell_plogp = np.einsum("agbh,ag,bh->ab", _plogp(vals), wa, wb)
    # in-cell marginal over b at each a-node, then its entropy integral
    marg_plogp = np.einsum("agb,ag->ab", _plogp(np.einsum("agbh,bh->agb", vals, wb)), wa)
    # P_lm * [h_lm(joint) - h_lm(a marginal)]; the cell_p * log(cell_p) terms cancel
    weighted = float((marg_plogp - cell_plogp)[cell_p > ZERO_FLOOR].sum())

    dist, _ = _windowed(cell_p, grid, STRICT_TAIL_TOL)
    return weighted + conditional_entropy(dist, given="A", base=math.e)


def bincount_group_nats(values: np.ndarray, index: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Entropies in nats, ``log N - sum(w log w) / N``, each group's weights added by ``np.bincount``."""
    sums = np.bincount(index, _plogp(values).ravel(), totals.size).reshape(totals.shape)
    return np.log(totals) - sums / totals


def bincount_nats(layout, weights: np.ndarray, totals: np.ndarray, parties: str = "AB") -> tuple[np.ndarray, ...]:
    """The layout's joint, then each party's, entropies in nats, every group summed by one weighted ``np.bincount``.

    The row-major reference for ``entropy._Layout.nats``: ``weights`` is a
    C-contiguous ``(batch, columns)`` array and ``totals`` ``(batch,
    blocks)``, and each result is ``(batch, blocks)``.  ``np.bincount``
    adds each group's weights in the order they come, from 0.0, so every
    group sums its cells in column order.
    """
    batch, blocks = totals.shape
    rows = np.arange(batch)[:, None]
    block_of = np.repeat(np.arange(blocks), np.diff(layout.edges))
    h = bincount_group_nats(weights, (block_of + blocks * rows).ravel(), totals)
    bin_blocks = {p: np.repeat(np.arange(blocks), np.diff(layout.bin_edges[p])) for p in "AB"}
    groups = np.concatenate([bin_blocks[p] + k * blocks for k, p in enumerate(parties)])
    marginals = []
    for party in parties:
        n = bin_blocks[party].size
        index = (layout.bins[party] + n * rows).ravel()
        marginals.append(np.bincount(index, weights.ravel(), batch * n).reshape(batch, n))
    m = len(parties)
    h_m = bincount_group_nats(
        np.concatenate(marginals, axis=1), (groups + m * blocks * rows).ravel(), np.concatenate((totals,) * m, axis=1)
    )
    return (h, *(h_m[:, k * blocks : (k + 1) * blocks] for k in range(m)))


def bincount_margins(kernel, weights: np.ndarray, totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``witness._MarginKernel``'s left-hand sides and margins of row-major ``weights``, scored by :func:`bincount_nats`."""
    symmetric = kernel.direction.value == "symmetric"
    if symmetric:
        h, h_a, h_b = bincount_nats(kernel.layout, weights, totals, "AB")
        nats = h_a + h_b - h
    else:
        h, h_given = bincount_nats(kernel.layout, weights, totals, "A" if kernel.direction.value == "B_given_A" else "B")
        nats = h - h_given
    lhs = sum(nats.T / math.log(kernel.base))
    return lhs, (lhs - kernel.bound) if symmetric else (kernel.bound - lhs)


@dataclass(frozen=True)
class CorrelatedSeparable:
    """A mixture of displaced product states: ``x_A = d + a*z1``, ``x_B = d + b*z2``, ``d ~ N(0, spread**2)``.

    The momenta are independent, of variances ``1/(4 a**2)`` and
    ``1/(4 b**2)``, so each mixture component is a minimum-uncertainty
    product and the state steers in no direction, on any grid.  Its
    correlations sit in position alone.
    """

    a: float
    spread: float
    b: float = 1.0

    def covariance(self, observable: Observable) -> tuple[float, float, float]:
        """``(var_A, var_B, cov)`` of the observable's bivariate normal."""
        if Observable(observable) is Observable.POSITION:
            d2 = self.spread**2
            return self.a**2 + d2, self.b**2 + d2, d2
        return 1.0 / (4.0 * self.a**2), 1.0 / (4.0 * self.b**2), 0.0

    def sds(self, observable: Observable) -> tuple[float, float]:
        """Each party's standard deviation of the observable, A first."""
        var_a, var_b, _ = self.covariance(observable)
        return math.sqrt(var_a), math.sqrt(var_b)

    def continuum_margin(self) -> float:
        """The B|A margin of the continuous state in bits, ``-1/2 log2(1 + a^2 D^2 / (b^2 (a^2 + D^2)))``, ``D`` the spread."""
        a2, d2 = self.a**2, self.spread**2
        return -0.5 * math.log2(1.0 + a2 * d2 / (self.b**2 * (a2 + d2)))


def correlated_separable_state(
    family: CorrelatedSeparable,
    extents_x: tuple[float, float],
    extents_k: tuple[float, float],
    n_windows: int = 24,
    tail_tol: float = STRICT_TAIL_TOL,
) -> SyntheticState:
    """``family`` windowed by the package's exact Gaussian route on centered grids of ``n_windows`` per party.

    ``extents_x`` and ``extents_k`` are ``(party A, party B)``.  Each
    observable is renormalized inside its viewing area, as
    :func:`eprsteering.make_synthetic_state` does, and its clipped mass is
    kept; ``tail_tol`` gates it.  ``sample_histograms`` can draw the result.
    """
    windowed = []
    for observable, extents in ((Observable.POSITION, extents_x), (Observable.MOMENTUM, extents_k)):
        axes = [AxisGrid.centered(n_windows, extent) for extent in extents]
        grid = GridSpec(observable, (axes[0],), (axes[1],))
        var_a, var_b, cov = family.covariance(observable)
        # var_b - cov^2/var_a >= b^2 here, so it does not cancel
        cells = _exact_gaussian_cells(var_a, cov, var_b - cov * cov / var_a, axes[0].edges(), axes[1].edges())
        windowed.append(_windowed(cells, grid, tail_tol))
    (pos, clip_x), (mom, clip_k) = windowed
    return SyntheticState(
        params=family, position=pos, momentum=mom, clipped_position=clip_x, clipped_momentum=clip_k
    )
