"""Correlated twin-beam model, discretization, and continuum bridges.

The model is the double-Gaussian transverse amplitude

    psi(x_a, x_b) ~ exp(-(x_a + x_b)^2 / (4 s_plus^2))
                  * exp(-(x_a - x_b)^2 / (4 s_minus^2))

per transverse axis, centered on the origin.  ``s_plus`` is the standard
deviation of the sum mode of the position density and ``s_minus`` that of the
difference mode; in momentum the two roles swap with scales ``1/s_plus`` and
``1/s_minus``, so position-correlated pairs are momentum-anticorrelated.
Everything downstream (densities, covariances, conditional entropies) follows
in closed form, which is what makes this model a useful oracle: discretized
witnesses can be checked against analytic continuous-variable values.

Discretization routes:

* :func:`discretize` integrates an arbitrary smooth density with a fixed
  Gauss-Legendre rule per cell.  Fine for gentle densities; it visibly
  under-resolves the correlation ridge once the mode ratio grows past ~20 on
  coarse grids, and the mass gate will catch that.
* :func:`discretize_state` uses the exact bivariate-normal cell decomposition
  (marginal times conditional CDF difference), which stays accurate at any
  mode ratio.  Use this one for model states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bootstrap import _check_seed, _keyed_rng, sample_counts
from .entropy import ZERO_FLOOR, _check_base, conditional_entropy
from .errors import NumericalError, TruncationError, UsageError
from .grids import AxisGrid, GridSpec, Histogram, JointDistribution, Observable, _positive

__all__ = [
    "DoubleGaussianParams",
    "default_params",
    "position_density",
    "momentum_density",
    "position_covariance",
    "momentum_covariance",
    "conditional_variance",
    "continuous_conditional_entropy",
    "continuous_margin",
    "discretize",
    "discretize_state",
    "viewing_grid",
    "SyntheticState",
    "make_synthetic_state",
    "expected_counts",
    "sample_histograms",
    "connection_check",
    "windowed_conditional_rhs",
]

# Defaults calibrated so that, on the default viewing area and grid, the
# conditional witness fires at 24x24 but not 3x3 and the symmetric witness
# fires at 24x24 but not 8x8, with clipping kept around half a percent.
DEFAULT_SIGMA_PLUS = 3.5e-4
DEFAULT_SIGMA_MINUS = 2.9e-5
DEFAULT_EXTENT_X = 1.04e-3
DEFAULT_EXTENT_K = 1.00e5
DEFAULT_RESOLUTION = 24
DEFAULT_TOTAL_EVENTS = 2_000_000

#: Mass a grid may miss before :func:`discretize` refuses to renormalize.
STRICT_TAIL_TOL = 1e-6

#: The synthetic preset clips the state at the viewing-area edge on purpose,
#: the way a hard detection aperture would; this is its default allowance.
DEFAULT_CLIP_TOL = 0.02


@dataclass(frozen=True)
class DoubleGaussianParams:
    """Sum- and difference-mode position widths, one pair per transverse axis."""

    sigma_plus: tuple[float, ...]
    sigma_minus: tuple[float, ...]

    def __post_init__(self) -> None:
        plus = self._coerce("sigma_plus", self.sigma_plus)
        minus = self._coerce("sigma_minus", self.sigma_minus)
        if len(plus) != len(minus):
            raise UsageError(
                f"sigma_plus has {len(plus)} axes but sigma_minus has {len(minus)}"
            )
        if not 1 <= len(plus) <= 2:
            raise UsageError(f"1 or 2 transverse axes supported, got {len(plus)}")
        object.__setattr__(self, "sigma_plus", plus)
        object.__setattr__(self, "sigma_minus", minus)

    @staticmethod
    def _coerce(name: str, value) -> tuple[float, ...]:
        if isinstance(value, (int, float, np.floating, np.integer)):
            value = (value,)
        return tuple(_positive(v, f"{name} entries") for v in value)

    @property
    def n_dims(self) -> int:
        return len(self.sigma_plus)

    def axis(self, i: int) -> tuple[float, float]:
        return self.sigma_plus[i], self.sigma_minus[i]


def default_params() -> DoubleGaussianParams:
    return DoubleGaussianParams(DEFAULT_SIGMA_PLUS, DEFAULT_SIGMA_MINUS)


def position_density(
    params: DoubleGaussianParams, x_a, x_b, axis: int = 0
) -> np.ndarray | float:
    """Joint position density along one transverse axis (axes factorize)."""
    sp, sm = params.axis(axis)
    x_a = np.asarray(x_a, dtype=np.float64)
    x_b = np.asarray(x_b, dtype=np.float64)
    out = np.exp(-((x_a + x_b) ** 2) / (2 * sp**2) - ((x_a - x_b) ** 2) / (2 * sm**2))
    out /= math.pi * sp * sm
    return out if out.ndim else float(out)


def momentum_density(
    params: DoubleGaussianParams, k_a, k_b, axis: int = 0
) -> np.ndarray | float:
    """Joint momentum density; the sum/difference mode widths invert."""
    sp, sm = params.axis(axis)
    k_a = np.asarray(k_a, dtype=np.float64)
    k_b = np.asarray(k_b, dtype=np.float64)
    out = np.exp(-((k_a + k_b) ** 2) * sp**2 / 2 - ((k_a - k_b) ** 2) * sm**2 / 2)
    out *= sp * sm / math.pi
    return out if out.ndim else float(out)


def position_covariance(params: DoubleGaussianParams, axis: int = 0) -> tuple[float, float, float]:
    """(var_a, var_b, cov) of the position density on one axis."""
    sp, sm = params.axis(axis)
    var = (sp**2 + sm**2) / 4.0
    return var, var, (sp**2 - sm**2) / 4.0


def momentum_covariance(params: DoubleGaussianParams, axis: int = 0) -> tuple[float, float, float]:
    """(var_a, var_b, cov) of the momentum density on one axis."""
    sp, sm = params.axis(axis)
    var = (1.0 / sp**2 + 1.0 / sm**2) / 4.0
    return var, var, (1.0 / sp**2 - 1.0 / sm**2) / 4.0


def conditional_variance(
    params: DoubleGaussianParams, observable: Observable, axis: int = 0
) -> float:
    """Variance of one party's outcome given the other's exact value.

    The model is party-symmetric, so steering either way sees the same
    number.  Closed forms avoid the cancellation the generic
    ``var - cov^2/var`` expression suffers at large mode ratios.
    """
    sp, sm = params.axis(axis)
    if Observable(observable) is Observable.POSITION:
        return (sp**2 * sm**2) / (sp**2 + sm**2)
    return 1.0 / (sp**2 + sm**2)


def continuous_conditional_entropy(
    params: DoubleGaussianParams, observable: Observable, base: float = 2.0
) -> float:
    """Differential conditional entropy summed over axes, 0.5*log(2*pi*e*var)."""
    base = _check_base(base)
    nats = sum(
        0.5 * math.log(2 * math.pi * math.e * conditional_variance(params, observable, i))
        for i in range(params.n_dims)
    )
    return nats / math.log(base)


def continuous_margin(params: DoubleGaussianParams, base: float = 2.0) -> float:
    """Continuous-variable steering margin, positive iff the mode widths differ.

    Per axis this reduces to log((sp^2 + sm^2) / (2*sp*sm)), the log ratio of
    arithmetic to geometric mean of the mode variances, so it is non-negative
    and vanishes exactly at sp == sm (separable limit).
    """
    base = _check_base(base)
    nats = 0.0
    for i in range(params.n_dims):
        sp, sm = params.axis(i)
        nats += math.log((sp**2 + sm**2) / (2.0 * sp * sm))
    return nats / math.log(base)


@lru_cache(maxsize=8)
def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order < 2 or order > 256:
        raise UsageError(f"quadrature order must be in [2, 256], got {order}")
    nodes, weights = leggauss(order)
    return nodes, weights


def _cell_nodes(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights for every interval of an edge array."""
    nodes, weights = _gl(order)
    lo = edges[:-1]
    half = np.diff(edges) / 2.0
    mid = lo + half
    x = mid[:, None] + half[:, None] * nodes[None, :]
    w = half[:, None] * weights[None, :]
    return x, w


def discretize(
    pdf: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: GridSpec,
    *,
    order: int = 16,
    tail_tol: float = STRICT_TAIL_TOL,
) -> tuple[JointDistribution, float]:
    """Window an arbitrary joint density with per-cell Gauss-Legendre quadrature.

    ``pdf(x_a, x_b)`` must broadcast over arrays.  Only single-axis grids are
    handled here; discretize higher-dimensional states one axis at a time.
    Returns the renormalized distribution and the mass deficit ``1 - mass``.
    Raises :class:`TruncationError` when ``|1 - mass| > tail_tol``, which
    catches both grids that miss real probability and quadrature that cannot
    resolve the density.
    """
    if grid.n_dims != 1:
        raise UsageError("discretize handles one transverse axis at a time")
    xa, wa = _cell_nodes(grid.axes_a[0].edges(), order)
    xb, wb = _cell_nodes(grid.axes_b[0].edges(), order)
    vals = pdf(xa[:, :, None, None], xb[None, None, :, :])
    vals = np.asarray(vals, dtype=np.float64)
    cells = np.einsum("agbh,ag,bh->ab", vals, wa, wb)
    mass = float(cells.sum())
    deficit = 1.0 - mass
    if abs(deficit) > tail_tol:
        hint = (
            "grid extents miss too much probability"
            if mass < 1.0
            else "quadrature cannot resolve the density at this order"
        )
        raise TruncationError(f"cell masses sum to {mass:.9g}; {hint} (tol {tail_tol:g})")
    dist = JointDistribution(probs=np.maximum(cells, 0.0) / mass, grid=grid)
    return dist, deficit


def _exact_gaussian_cells(
    var_a: float,
    var_b: float,
    cov: float,
    edges_a: np.ndarray,
    edges_b: np.ndarray,
    order: int = 16,
) -> np.ndarray:
    """Cell probabilities of a centered bivariate normal.

    Integrates marginal(x) * [CDF(upper) - CDF(lower)] of the conditional,
    with the outer rule tiled finely enough to resolve the conditional ridge,
    whose x-scale is sigma_cond/|slope| and can sit far below the cell width.
    """
    sd_a = math.sqrt(var_a)
    slope = cov / var_a
    cond_var = var_b - cov**2 / var_a
    if cond_var <= 0.0:
        raise NumericalError("degenerate covariance: conditional variance is not positive")
    sd_c = math.sqrt(cond_var)

    width = float(edges_a[1] - edges_a[0])
    feature = 2.0 * sd_a
    if slope != 0.0:
        feature = min(feature, 6.0 * sd_c / abs(slope))
    panels = max(1, min(128, math.ceil(width / feature)))

    sub_edges = edges_a[0] + (width / panels) * np.arange(len(edges_a[:-1]) * panels + 1)
    # Imported here: only the model state needs scipy, never a run from counts files.
    from scipy.special import ndtr

    x, w = _cell_nodes(sub_edges, order)  # (cells*panels, order)
    phi = np.exp(-(x**2) / (2 * var_a)) / math.sqrt(2 * math.pi * var_a)

    t_hi = (edges_b[1:][:, None, None] - slope * x[None]) / sd_c
    t_lo = (edges_b[:-1][:, None, None] - slope * x[None]) / sd_c
    window = ndtr(t_hi) - ndtr(t_lo)  # (nb, cells*panels, order)

    contrib = (window * (phi * w)[None]).sum(axis=2)  # (nb, cells*panels)
    nb = len(edges_b) - 1
    na = len(edges_a) - 1
    return contrib.reshape(nb, na, panels).sum(axis=2).T.copy()


def discretize_state(
    params: DoubleGaussianParams,
    grid: GridSpec,
    *,
    axis: int = 0,
    order: int = 16,
    tail_tol: float = STRICT_TAIL_TOL,
) -> tuple[JointDistribution, float]:
    """Window one axis of the model state through the exact Gaussian route.

    Same contract as :func:`discretize`; here the deficit really is tail mass
    outside the viewing area, since the cell integrals are exact to roundoff.
    """
    if grid.n_dims != 1:
        raise UsageError("discretize_state handles one transverse axis at a time")
    if Observable(grid.observable) is Observable.POSITION:
        var_a, var_b, cov = position_covariance(params, axis)
    else:
        var_a, var_b, cov = momentum_covariance(params, axis)
    cells = _exact_gaussian_cells(
        var_a, var_b, cov, grid.axes_a[0].edges(), grid.axes_b[0].edges(), order
    )
    mass = float(cells.sum())
    deficit = 1.0 - mass
    if deficit > tail_tol:
        raise TruncationError(
            f"viewing area captures only {mass:.9g} of the state (tol {tail_tol:g}); "
            "widen the extents or raise tail_tol to clip deliberately"
        )
    dist = JointDistribution(probs=np.maximum(cells, 0.0) / mass, grid=grid)
    return dist, deficit


def viewing_grid(
    observable: Observable,
    n_windows: int = DEFAULT_RESOLUTION,
    extent: float | None = None,
) -> GridSpec:
    """Square origin-centered single-axis grid, same extent for both parties."""
    observable = Observable(observable)
    if extent is None:
        extent = DEFAULT_EXTENT_X if observable is Observable.POSITION else DEFAULT_EXTENT_K
    ax = AxisGrid.centered(n_windows, extent)
    return GridSpec(observable=observable, axes_a=(ax,), axes_b=(ax,))


@dataclass(frozen=True)
class SyntheticState:
    """Discretized position/momentum distributions of one model state."""

    params: DoubleGaussianParams
    position: JointDistribution
    momentum: JointDistribution
    clipped_position: float
    clipped_momentum: float


def make_synthetic_state(
    params: DoubleGaussianParams | None = None,
    *,
    n_windows: int = DEFAULT_RESOLUTION,
    extent_x: float = DEFAULT_EXTENT_X,
    extent_k: float = DEFAULT_EXTENT_K,
    clip_tol: float = DEFAULT_CLIP_TOL,
) -> SyntheticState:
    """Discretize a model state onto centered viewing grids.

    ``clip_tol`` is how much tail mass the viewing area may cut off; the
    clipped fractions end up in the returned state, never silently dropped.
    """
    if params is None:
        params = default_params()
    if params.n_dims != 1:
        raise UsageError("the synthetic preset is single-axis; build 2-D states per axis")
    pos_grid = viewing_grid(Observable.POSITION, n_windows, extent_x)
    mom_grid = viewing_grid(Observable.MOMENTUM, n_windows, extent_k)
    pos, clip_x = discretize_state(params, pos_grid, tail_tol=clip_tol)
    mom, clip_k = discretize_state(params, mom_grid, tail_tol=clip_tol)
    return SyntheticState(
        params=params,
        position=pos,
        momentum=mom,
        clipped_position=clip_x,
        clipped_momentum=clip_k,
    )


def expected_counts(dist: JointDistribution, total: float) -> np.ndarray:
    """Per-cell expected event numbers for a given total."""
    return dist.probs * _positive(total, "total")


def sample_histograms(
    state: SyntheticState,
    total: float = DEFAULT_TOTAL_EVENTS,
    seed: int = 0,
) -> tuple[Histogram, Histogram]:
    """Poisson-sampled position and momentum histograms of a synthetic state.

    Position is drawn from the stream keyed ``(seed, 0)`` and momentum from
    ``(seed, 1)``.
    """
    seed = _check_seed(seed)
    pos_counts = sample_counts(expected_counts(state.position, total), _keyed_rng((seed, 0)))
    mom_counts = sample_counts(expected_counts(state.momentum, total), _keyed_rng((seed, 1)))
    return (
        Histogram(counts=pos_counts, grid=state.position.grid),
        Histogram(counts=mom_counts, grid=state.momentum.grid),
    )


def _plogp(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    mask = p > ZERO_FLOOR
    out[mask] = p[mask] * np.log(p[mask])
    return out


def connection_check(
    pdf: Callable[[np.ndarray], np.ndarray],
    axis: AxisGrid,
    *,
    order: int = 16,
    points: Sequence[float] | None = None,
) -> float:
    """Residual of the exact windowing identity for a 1-D density, in nats.

    The identity: differential entropy equals the window entropy plus the
    probability-weighted in-window differential entropies,

        h(p) = H(P) + sum_m P_m * h_m.

    The right side is assembled from per-cell Gauss-Legendre integrals, the
    left side from an independent adaptive quadrature, so the residual probes
    both the identity and the discretizer.  The density must be (numerically)
    confined to the grid extent; pass its discontinuities in ``points``.
    """
    # Imported here: scipy.integrate roughly doubles the package's import
    # time, and only this oracle needs it.
    from scipy.integrate import quad

    x, w = _cell_nodes(axis.edges(), order)
    vals = np.asarray(pdf(x), dtype=np.float64)
    cell_p = (vals * w).sum(axis=1)
    cell_plogp = (_plogp(vals) * w).sum(axis=1)

    mask = cell_p > ZERO_FLOOR
    window_entropy = -float((cell_p[mask] * np.log(cell_p[mask])).sum())
    # sum_m P_m h_m with h_m = -integral (p/P_m) log(p/P_m) over window m
    in_window = float(
        (-cell_plogp[mask] + cell_p[mask] * np.log(cell_p[mask])).sum()
    )
    rhs = window_entropy + in_window

    def neg_plogp(t: float) -> float:
        p = float(np.asarray(pdf(np.asarray([t])))[0])
        return -p * math.log(p) if p > ZERO_FLOOR else 0.0

    lo, hi = float(axis.edges()[0]), float(axis.edges()[-1])
    h_direct = quad(
        neg_plogp,
        lo,
        hi,
        limit=500,
        epsabs=1e-11,
        epsrel=1e-11,
        points=list(points) if points is not None else None,
    )[0]
    return abs(rhs - h_direct)


def windowed_conditional_rhs(
    pdf: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: GridSpec,
    *,
    order: int = 16,
) -> float:
    """Windowed upper bound on the conditional differential entropy h(b|a), nats.

    Assembles  sum_lm P_lm * h_lm(b|a)  +  H(B|A)  from per-cell quadrature,
    where h_lm is the in-cell conditional differential entropy.  Windowing
    discards information, so this dominates the true h(b|a) up to quadrature
    error; the margin shrinks to zero for uncorrelated densities.
    """
    if grid.n_dims != 1:
        raise UsageError("windowed_conditional_rhs handles one transverse axis at a time")
    xa, wa = _cell_nodes(grid.axes_a[0].edges(), order)
    xb, wb = _cell_nodes(grid.axes_b[0].edges(), order)
    na, nb = grid.axes_a[0].n_windows, grid.axes_b[0].n_windows

    # vals[l, g, m, h] = pdf at node g of A-cell l and node h of B-cell m
    vals = np.asarray(pdf(xa[:, :, None, None], xb[None, None, :, :]), dtype=np.float64)
    cell_p = np.einsum("agbh,ag,bh->ab", vals, wa, wb)
    cell_plogp = np.einsum("agbh,ag,bh->ab", _plogp(vals), wa, wb)
    # in-cell marginal over b at each a-node, then its entropy integral
    marg_a = np.einsum("agbh,bh->agb", vals, wb)
    marg_plogp = np.einsum("agb,ag->ab", _plogp(marg_a), wa)

    mask = cell_p > ZERO_FLOOR
    logp = np.zeros_like(cell_p)
    logp[mask] = np.log(cell_p[mask])
    # h_lm(joint) - h_lm(a marginal), each of the cell-normalized restriction
    h_joint = np.where(mask, -cell_plogp + cell_p * logp, 0.0)
    h_marg = np.where(mask, -marg_plogp + cell_p * logp, 0.0)
    weighted = float((h_joint - h_marg)[mask].sum())

    dist = JointDistribution(probs=np.maximum(cell_p, 0.0) / cell_p.sum(), grid=grid)
    h_window = conditional_entropy(dist, given="A", base=math.e).value
    return weighted + h_window
