"""Correlated twin-beam model, discretization, and continuum bridges.

The model is the double-Gaussian transverse amplitude

    psi(x_a, x_b) ~ exp(-(x_a + x_b)^2 / (4 s_plus^2))
                  * exp(-(x_a - x_b)^2 / (4 s_minus^2))

on one transverse axis, centered on the origin.  ``s_plus`` is the standard
deviation of the sum mode of the position density and ``s_minus`` that of the
difference mode; in momentum the two roles swap with scales ``1/s_plus`` and
``1/s_minus``, so position-correlated pairs are momentum-anticorrelated.
Everything downstream (densities, covariances, conditional entropies) follows
in closed form, which is what makes this model a useful oracle: discretized
witnesses can be checked against analytic continuous-variable values.

The package windows the model state by one route, :func:`discretize_state`:
the exact bivariate-normal cell decomposition (marginal times conditional CDF
difference), evaluated one party-A window at a time into a result allocated
first, so its memory grows with the windows, not their square.  It reads
:func:`conditional_variance`, which holds for every width
:class:`DoubleGaussianParams` accepts.  The generic per-cell Gauss-Legendre
route for arbitrary densities, and the paper's windowed bound on ``h(b|a)``,
live in the test suite as oracles for it.

The 16-point rule is stored as constants equal to numpy's ``leggauss(16)``.
:func:`connection_check` holds it against the closed-form ``integral -p log p``
of a Gaussian window.  Nothing here needs more than numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import POISSON_MEAN_MAX, _check_poisson_means, _check_seed, _keyed_rng
from .entropy import _check_base, _plogp
from .errors import TruncationError, UsageError, ZeroTotalError
from .grids import AxisGrid, GridSpec, Histogram, JointDistribution, Observable, _positive, _shown

__all__ = [
    "DoubleGaussianParams",
    "default_params",
    "position_covariance",
    "momentum_covariance",
    "conditional_variance",
    "continuous_conditional_entropy",
    "continuous_margin",
    "discretize_state",
    "viewing_grid",
    "SyntheticState",
    "make_synthetic_state",
    "sample_histograms",
    "connection_check",
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

#: Mass a grid may miss before :func:`discretize_state` refuses to renormalize.
STRICT_TAIL_TOL = 1e-6

#: The synthetic preset clips the state at the viewing-area edge on purpose,
#: the way a hard detection aperture would; this is its default allowance.
DEFAULT_CLIP_TOL = 0.02


def _mass_tol(value, name: str) -> float:
    """``value`` as a tolerance on missed mass: finite, > 0 and < 1, else :class:`UsageError`.

    A tolerance of 1 or more would accept a grid that captures no mass at all.
    """
    tol = _positive(value, name)
    if tol >= 1.0:
        raise UsageError(f"{name} must be < 1, got {_shown(value)}")
    return tol


@dataclass(frozen=True)
class DoubleGaussianParams:
    """Sum- and difference-mode position widths of one transverse axis.

    A 2-D state is the product of two one-axis states: discretize each axis on
    its own and pass the results as independent blocks or as their outer
    product.
    """

    sigma_plus: float
    sigma_minus: float

    def __post_init__(self) -> None:
        for name in ("sigma_plus", "sigma_minus"):
            width = _positive(getattr(self, name), name)
            square = width * width
            if not 0.0 < square < math.inf or 1.0 / square == math.inf:
                raise UsageError(
                    f"{name} is out of range, got {width!r}: its square and inverse "
                    "square must be finite floats > 0"
                )
            object.__setattr__(self, name, width)


def default_params() -> DoubleGaussianParams:
    return DoubleGaussianParams(DEFAULT_SIGMA_PLUS, DEFAULT_SIGMA_MINUS)


def position_covariance(params: DoubleGaussianParams) -> tuple[float, float, float]:
    """(var_a, var_b, cov) of the position density."""
    sp, sm = params.sigma_plus, params.sigma_minus
    plus, minus = sp**2 / 4.0, sm**2 / 4.0  # quartered first, so the sum cannot overflow
    return plus + minus, plus + minus, plus - minus


def momentum_covariance(params: DoubleGaussianParams) -> tuple[float, float, float]:
    """(var_a, var_b, cov) of the momentum density."""
    sp, sm = params.sigma_plus, params.sigma_minus
    plus, minus = 1.0 / sp**2 / 4.0, 1.0 / sm**2 / 4.0
    return plus + minus, plus + minus, plus - minus


def conditional_variance(params: DoubleGaussianParams, observable: Observable) -> float:
    """Variance of one party's outcome given the other's exact value.

    The model is party-symmetric, so steering either way sees the same
    number.  Taken as ``narrow^2 / (1 + q^2)`` (position) or
    ``1 / wide^2 / (1 + q^2)`` (momentum), ``q = narrow / wide``, it is
    finite and > 0 for every width :class:`DoubleGaussianParams` accepts, as
    that keeps each square and inverse square so.  The exact route reads it.
    """
    narrow, wide = sorted((params.sigma_plus, params.sigma_minus))
    spread = 1.0 + (narrow / wide) ** 2
    return narrow**2 / spread if Observable(observable) is Observable.POSITION else 1.0 / wide**2 / spread


def continuous_conditional_entropy(
    params: DoubleGaussianParams, observable: Observable, base: float = 2.0
) -> float:
    """Differential conditional entropy, 0.5*log(2*pi*e*var), summed in logs so no product overflows."""
    base = _check_base(base)
    nats = 0.5 * (math.log(2 * math.pi * math.e) + math.log(conditional_variance(params, observable)))
    return nats / math.log(base)


def continuous_margin(params: DoubleGaussianParams, base: float = 2.0) -> float:
    """Continuous-variable steering margin, positive iff the mode widths differ.

    This reduces to log((1 + q^2) / (2q)), ``q = narrow / wide``, the log
    ratio of arithmetic to geometric mean of the mode variances: it is
    non-negative, vanishes exactly at sp == sm (separable limit) and squares
    no width.  A 2-D product state's margin is the sum of its axes' margins.
    """
    base = _check_base(base)
    narrow, wide = sorted((params.sigma_plus, params.sigma_minus))
    nats = math.log((1.0 + (narrow / wide) ** 2) / (2.0 * narrow / wide))
    return nats / math.log(base)


#: The one quadrature rule, applied per window (per panel in the exact route):
#: the 16-point Gauss-Legendre nodes and weights, stored as the values
#: ``numpy.polynomial.legendre.leggauss(16)`` returns, so no process imports
#: ``numpy.polynomial`` or runs LAPACK for them.
_GL_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])


def _cell_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights for every interval of an edge array."""
    lo = edges[:-1]
    half = np.diff(edges) / 2.0
    mid = lo + half
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    w = half[:, None] * _GL_WEIGHTS[None, :]
    return x, w


def _windowed(
    cells: np.ndarray, grid: GridSpec, tail_tol: float
) -> tuple[JointDistribution, float]:
    """The renormalized cells and ``1 - mass``, gated two-sided on ``tail_tol``."""
    tail_tol = _mass_tol(tail_tol, "tail_tol")
    mass = float(cells.sum())
    deficit = 1.0 - mass
    if deficit > tail_tol:
        raise TruncationError(
            f"viewing area captures only {mass:.9g} of the state (tol {tail_tol:g}); "
            "widen the extents to clip less of it"
        )
    if -deficit > tail_tol:
        raise TruncationError(
            f"cell masses sum to {mass:.9g}; quadrature cannot resolve the density "
            f"(tol {tail_tol:g})"
        )
    return JointDistribution(probs=np.maximum(cells, 0.0) / mass, grid=grid), deficit


#: Largest per-window party-A mass the exact route's outer rule may miss.
_QUADRATURE_TOL = 1e-9


def _ndtr(t: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, from the C library's ``erfc``."""
    return 0.5 * np.fromiter(map(math.erfc, (-t / math.sqrt(2.0)).ravel()), np.float64, t.size).reshape(t.shape)


def _exact_gaussian_cells(
    var_a: float,
    cov: float,
    cond_var: float,
    edges_a: np.ndarray,
    edges_b: np.ndarray,
) -> np.ndarray:
    """Cell probabilities of a centered bivariate normal.

    Integrates marginal(x) * [CDF(upper) - CDF(lower)] of the conditional,
    of variance ``cond_var``, with the outer rule tiled finely enough to
    resolve its ridge, whose x-scale is sqrt(cond_var)/|slope| and can sit
    far below the cell width.  Tiling stops at 128 panels per window, so the
    rule's party-A mass per window is checked against its closed form: a
    miss above ``_QUADRATURE_TOL`` raises :class:`TruncationError` rather
    than reading as clipped mass.  The result is allocated first, so cells
    too many to hold raise :class:`MemoryError` before any window is
    evaluated; the cells are then evaluated one party-A window at a time,
    its panels against all of party B's edges.
    """
    sd_a = math.sqrt(var_a)
    slope = cov / var_a
    sd_c = math.sqrt(cond_var)

    width = float(edges_a[1] - edges_a[0])
    feature = 2.0 * sd_a
    if slope != 0.0:
        feature = min(feature, 6.0 * sd_c / abs(slope))
    panels = max(1, math.ceil(min(128.0, width / feature)))  # the ratio may overflow to inf

    sub_edges = edges_a[0] + (width / panels) * np.arange(len(edges_a[:-1]) * panels + 1)
    x, w = (a.reshape(len(edges_a) - 1, panels, -1) for a in _cell_nodes(sub_edges))  # (windows, panels, nodes)
    with np.errstate(over="ignore"):  # a (x / sd_a) ** 2 past the float range is density 0
        phi_w = np.exp(-0.5 * (x / sd_a) ** 2) / (math.sqrt(2 * math.pi) * sd_a) * w
        exact_a = np.diff(_ndtr(edges_a / sd_a))
    if np.abs(phi_w.sum(axis=2).sum(axis=1) - exact_a).max() > _QUADRATURE_TOL:
        raise TruncationError(
            "the windows are too wide for the quadrature to resolve the state; "
            "narrow the extent or add windows"
        )

    # window m's upper edge is window m+1's lower one: one CDF per edge
    cells = np.empty((len(x), len(edges_b) - 1))
    for i, (xa, pw) in enumerate(zip(x, phi_w)):
        window = np.diff(_ndtr((edges_b[:, None, None] - slope * xa) / sd_c), axis=0)  # (B windows, panels, nodes)
        cells[i] = (window * pw).sum(axis=2).sum(axis=1)
    return cells


def discretize_state(
    params: DoubleGaussianParams,
    grid: GridSpec,
    *,
    tail_tol: float = STRICT_TAIL_TOL,
) -> tuple[JointDistribution, float]:
    """Window the model state through the exact Gaussian route.

    Only single-axis grids are handled; a 2-D state is windowed one axis at
    a time.  Returns the renormalized distribution and the mass deficit
    ``1 - mass``, the tail mass outside the viewing area, since the cell
    integrals are exact to roundoff.  Raises :class:`TruncationError` when
    ``|1 - mass| > tail_tol``.
    """
    if grid.n_dims != 1:
        raise UsageError("discretize_state handles one transverse axis at a time")
    position = Observable(grid.observable) is Observable.POSITION
    var_a, _, cov = (position_covariance if position else momentum_covariance)(params)
    cond_var = conditional_variance(params, grid.observable)
    cells = _exact_gaussian_cells(var_a, cov, cond_var, grid.axes_a[0].edges(), grid.axes_b[0].edges())
    return _windowed(cells, grid, tail_tol)


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
    clip_tol = _mass_tol(clip_tol, "clip_tol")
    if params is None:
        params = default_params()
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


def _check_total(total) -> float:
    """The ``total`` rule: finite, > 0 and at most ``POISSON_MEAN_MAX``, the largest Poisson mean numpy draws."""
    return _positive(total, "total", UsageError, (POISSON_MEAN_MAX, "the largest Poisson mean that can be drawn"))


def sample_histograms(
    state: SyntheticState,
    total: float = DEFAULT_TOTAL_EVENTS,
    seed: int = 0,
) -> tuple[Histogram, Histogram]:
    """Poisson-sampled position and momentum histograms of a synthetic state.

    Position is drawn from the stream keyed ``(seed, 0)`` and momentum from
    ``(seed, 1)``; an empty draw raises :class:`ZeroTotalError` naming it and ``total``.
    A ``total`` above ``POISSON_MEAN_MAX``, the largest Poisson mean numpy
    draws, raises :class:`UsageError` before any draw; a cell mean above it
    (a probability rounded just past 1) raises :class:`DataError`.
    """
    seed = _check_seed(seed)
    total = _check_total(total)
    pos_lam = _check_poisson_means(state.position.probs * total)
    mom_lam = _check_poisson_means(state.momentum.probs * total)
    hists = []
    for observable, (dist, lam) in enumerate(((state.position, pos_lam), (state.momentum, mom_lam))):
        try:
            hists.append(Histogram(counts=_keyed_rng((seed, observable)).poisson(lam), grid=dist.grid))
        except ZeroTotalError:
            raise ZeroTotalError(f"the {dist.grid.observable.value} draw holds zero events at total={total:.6g}: a larger total gives it events to score") from None
    return hists[0], hists[1]


def connection_check(sigma: float, axis: AxisGrid) -> float:
    """Largest per-window Gauss-Legendre error in ``integral -p log p`` of N(0, sigma^2), nats.

    The windowing identity ``h(p) = H(P) + sum_m P_m * h_m`` holds term by
    term: the ``P_m log P_m`` terms of ``H(P)`` and of ``P_m * h_m`` cancel,
    leaving the sum over windows of ``integral -p log p``.  Each window's
    integral by the fixed Gauss-Legendre rule is compared with its closed
    form, so the residual measures the discretizer alone.  On ``[a, b]``, with
    ``A = a/s``, ``B = b/s`` and ``P = Phi(B) - Phi(A)``,

        -integral p log p = (log(s sqrt(2 pi)) + 1/2) P - (B phi(B) - A phi(A)) / 2.

    The density need not be confined to the grid extent.
    """
    s = _positive(sigma, "sigma")
    edges = axis.edges()
    x, w = _cell_nodes(edges)
    norm = s * math.sqrt(2.0 * math.pi)
    quadrature = -(_plogp(np.exp(-0.5 * (x / s) ** 2) / norm) * w).sum(axis=1)
    t = edges / s
    t_phi = t * np.exp(-0.5 * t**2) / math.sqrt(2.0 * math.pi)
    exact = (math.log(norm) + 0.5) * np.diff(_ndtr(t)) - np.diff(t_phi) / 2.0
    return float(np.abs(quadrature - exact).max())

