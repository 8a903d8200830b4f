import math

import numpy as np
import pytest

from eprsteering import (
    AxisGrid,
    GridSpec,
    Observable,
    TruncationError,
    UsageError,
    conditional_variance,
    connection_check,
    continuous_conditional_entropy,
    continuous_margin,
    default_params,
    expected_counts,
    make_synthetic_state,
    momentum_covariance,
    momentum_density,
    position_covariance,
    position_density,
    sample_histograms,
    viewing_grid,
    windowed_conditional_rhs,
)
from eprsteering.spdc import (
    DEFAULT_CLIP_TOL,
    DoubleGaussianParams,
    discretize,
    discretize_state,
)

# Fractions of the default state falling outside the default viewing area.
CLIP_POSITION = 0.003713278556560784
CLIP_MOMENTUM = 0.0046516911895420066


def numeric_moments(density, extent: float, n: int = 801):
    xs = np.linspace(-extent, extent, n)
    a, b = np.meshgrid(xs, xs, indexing="ij")
    rho = density(a, b)
    dx = xs[1] - xs[0]
    mass = np.trapezoid(np.trapezoid(rho, dx=dx), dx=dx)
    var_a = np.trapezoid(np.trapezoid(rho * a * a, dx=dx), dx=dx)
    var_b = np.trapezoid(np.trapezoid(rho * b * b, dx=dx), dx=dx)
    cov = np.trapezoid(np.trapezoid(rho * a * b, dx=dx), dx=dx)
    return mass, var_a, var_b, cov


# ----------------------------------------------------------------- params


def test_default_params_values():
    p = default_params()
    assert p.axis(0) == (3.5e-4, 2.9e-5)
    assert p.n_dims == 1


def test_params_coerce_scalars_and_pairs():
    p = DoubleGaussianParams(1.0, 0.5)
    assert p.sigma_plus == (1.0,)
    q = DoubleGaussianParams((1.0, 2.0), (0.5, 0.25))
    assert q.n_dims == 2
    assert q.axis(1) == (2.0, 0.25)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_params_reject_nonpositive_widths(bad):
    with pytest.raises(UsageError):
        DoubleGaussianParams(bad, 1.0)
    with pytest.raises(UsageError):
        DoubleGaussianParams(1.0, bad)


def test_params_reject_mismatched_axis_counts():
    with pytest.raises(UsageError):
        DoubleGaussianParams((1.0, 2.0), (0.5,))


# ---------------------------------------------------------------- densities


def test_position_density_normalizes_and_matches_moments():
    p = DoubleGaussianParams(1.0, 0.3)
    var = position_covariance(p)[0]
    mass, va, vb, cov = numeric_moments(
        lambda a, b: position_density(p, a, b), 8 * math.sqrt(var)
    )
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert va == pytest.approx((1.0 + 0.09) / 4, rel=1e-7)
    assert vb == pytest.approx(va, rel=1e-7)
    assert cov == pytest.approx((1.0 - 0.09) / 4, rel=1e-7)


def test_momentum_density_normalizes_and_matches_moments():
    p = DoubleGaussianParams(1.0, 0.3)
    var = momentum_covariance(p)[0]
    mass, va, vb, cov = numeric_moments(
        lambda a, b: momentum_density(p, a, b), 8 * math.sqrt(var)
    )
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert va == pytest.approx(var, rel=1e-7)
    assert cov == pytest.approx(momentum_covariance(p)[2], rel=1e-7)


def test_momentum_is_position_with_inverted_widths():
    p = DoubleGaussianParams(2.0, 0.5)
    inv = DoubleGaussianParams(0.5, 2.0)
    u = np.linspace(-3, 3, 41)
    a, b = np.meshgrid(u, u, indexing="ij")
    np.testing.assert_allclose(
        momentum_density(p, a, b), position_density(inv, a, b), rtol=1e-14
    )


def test_momentum_anticorrelated_when_sum_mode_is_wider():
    p = DoubleGaussianParams(1.0, 0.3)
    assert position_covariance(p)[2] > 0
    assert momentum_covariance(p)[2] < 0


# ------------------------------------------------------------- closed forms


@pytest.mark.parametrize("sp,sm", [(1.0, 1.0), (1.0, 0.3), (2.0, 0.1), (0.2, 0.15)])
def test_conditional_variance_matches_regression_residual(sp, sm):
    p = DoubleGaussianParams(sp, sm)
    for obs, cov_fn in (
        (Observable.POSITION, position_covariance),
        (Observable.MOMENTUM, momentum_covariance),
    ):
        va, vb, cov = cov_fn(p)
        assert conditional_variance(p, obs) == pytest.approx(
            vb - cov**2 / va, rel=1e-12
        )


def test_conditional_variance_product_peaks_at_separable():
    sep = DoubleGaussianParams(0.7, 0.7)
    prod = conditional_variance(sep, Observable.POSITION) * conditional_variance(
        sep, Observable.MOMENTUM
    )
    assert prod == pytest.approx(0.25, rel=1e-14)
    ent = DoubleGaussianParams(0.7, 0.1)
    prod = conditional_variance(ent, Observable.POSITION) * conditional_variance(
        ent, Observable.MOMENTUM
    )
    assert prod < 0.25


def test_unconditional_uncertainty_product_at_least_one_quarter():
    for sp, sm in [(1.0, 1.0), (1.0, 0.2), (3.0, 0.5)]:
        p = DoubleGaussianParams(sp, sm)
        prod = position_covariance(p)[0] * momentum_covariance(p)[0]
        assert prod >= 0.25 - 1e-12


def test_continuous_margin_closed_form_and_saturation():
    assert continuous_margin(DoubleGaussianParams(1.3, 1.3)) == 0.0
    p = DoubleGaussianParams(1.0, 0.25)
    expected = math.log2((1.0 + 0.0625) / (2 * 0.25))
    assert continuous_margin(p) == pytest.approx(expected, rel=1e-14)
    assert continuous_margin(p, base=math.e) == pytest.approx(
        expected * math.log(2), rel=1e-14
    )


def test_continuous_margin_is_entropy_deficit_from_pi_e():
    p = DoubleGaussianParams(1.7, 0.2)
    h_sum = continuous_conditional_entropy(
        p, Observable.POSITION
    ) + continuous_conditional_entropy(p, Observable.MOMENTUM)
    assert continuous_margin(p) == pytest.approx(
        math.log2(math.pi * math.e) - h_sum, rel=1e-12
    )


def test_two_axis_margin_adds_per_axis_terms():
    p = DoubleGaussianParams((1.0, 2.0), (0.25, 0.5))
    single_1 = continuous_margin(DoubleGaussianParams(1.0, 0.25))
    single_2 = continuous_margin(DoubleGaussianParams(2.0, 0.5))
    assert continuous_margin(p) == pytest.approx(single_1 + single_2, rel=1e-14)


# ------------------------------------------------------------- discretize


def test_discretize_is_exact_for_polynomial_densities():
    # bilinear density on [0, 2]^2, cell masses integrate in closed form
    def pdf(a, b):
        return (a + 1.0) * (b + 1.0) / 16.0

    ax = AxisGrid(2, 1.0, origin=0.0)
    grid = GridSpec(Observable.POSITION, (ax,), (ax,))
    dist, deficit = discretize(pdf, grid)
    cell = np.array([1.5, 2.5]) / 4.0  # integral of (t+1) over [0,1], [1,2]
    np.testing.assert_allclose(dist.probs, np.outer(cell, cell), rtol=1e-14)
    assert abs(deficit) < 1e-14


def test_discretize_routes_agree_on_default_state():
    p = default_params()
    grid = viewing_grid(Observable.POSITION)
    exact, d_exact = discretize_state(p, grid, tail_tol=DEFAULT_CLIP_TOL)
    generic, d_generic = discretize(
        lambda a, b: position_density(p, a, b), grid, tail_tol=DEFAULT_CLIP_TOL
    )
    assert np.abs(exact.probs - generic.probs).max() < 1e-14
    assert d_exact == pytest.approx(CLIP_POSITION, abs=1e-9)
    assert d_generic == pytest.approx(CLIP_POSITION, abs=1e-9)
    assert exact.probs.sum() == pytest.approx(1.0, abs=1e-13)


def test_discretized_state_is_party_symmetric():
    p = default_params()
    grid = viewing_grid(Observable.MOMENTUM)
    dist, _ = discretize_state(p, grid, tail_tol=DEFAULT_CLIP_TOL)
    assert np.abs(dist.probs - dist.probs.T).max() < 1e-13


def test_generic_quadrature_fails_loudly_at_extreme_mode_ratio():
    # sigma ratio 100 on a 4-window grid: cells are far wider than the
    # difference mode, so fixed-order quadrature misses the ridge entirely
    p = DoubleGaussianParams(1.0, 0.01)
    extent = 12 * math.sqrt(position_covariance(p)[0])
    ax = AxisGrid.centered(4, extent)
    grid = GridSpec(Observable.POSITION, (ax,), (ax,))
    with pytest.raises(TruncationError, match="quadrature"):
        discretize(lambda a, b: position_density(p, a, b), grid)
    dist, deficit = discretize_state(p, grid)
    assert abs(deficit) < 1e-6
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-13)


def test_discretize_state_rejects_clipping_beyond_tolerance():
    p = default_params()
    grid = viewing_grid(Observable.POSITION)
    with pytest.raises(TruncationError, match="clip"):
        discretize_state(p, grid)  # strict default tolerance
    with pytest.raises(TruncationError):
        discretize_state(p, viewing_grid(Observable.POSITION, extent=2e-4))


def test_discretize_rejects_bad_quadrature_order():
    p = default_params()
    grid = viewing_grid(Observable.POSITION)
    with pytest.raises(UsageError):
        discretize_state(p, grid, order=1, tail_tol=DEFAULT_CLIP_TOL)
    with pytest.raises(UsageError):
        discretize(lambda a, b: position_density(p, a, b), grid, order=500)


def test_discretize_rejects_two_axis_grids():
    p = default_params()
    ax = AxisGrid.centered(4, 1.0)
    grid = GridSpec(Observable.POSITION, (ax, ax), (ax, ax))
    with pytest.raises(UsageError):
        discretize_state(p, grid)


# --------------------------------------------------------- synthetic preset


def test_viewing_grid_defaults():
    gx = viewing_grid(Observable.POSITION)
    gk = viewing_grid(Observable.MOMENTUM)
    assert gx.shape == (24, 24)
    assert gx.extents("A") == (pytest.approx(1.04e-3),)
    assert gk.extents("B") == (pytest.approx(1.00e5),)
    edges = gx.axes("A")[0].edges()
    assert edges[0] == pytest.approx(-5.2e-4)


def test_make_synthetic_state_records_clipped_fractions():
    state = make_synthetic_state()
    assert state.clipped_position == pytest.approx(CLIP_POSITION, abs=1e-9)
    assert state.clipped_momentum == pytest.approx(CLIP_MOMENTUM, abs=1e-9)
    assert state.position.grid.observable is Observable.POSITION
    assert state.momentum.grid.observable is Observable.MOMENTUM


def test_make_synthetic_state_honors_clip_tolerance():
    with pytest.raises(TruncationError):
        make_synthetic_state(clip_tol=1e-3)


def test_make_synthetic_state_rejects_two_axis_params():
    p = DoubleGaussianParams((1.0, 1.0), (0.5, 0.5))
    with pytest.raises(UsageError):
        make_synthetic_state(p, extent_x=10.0, extent_k=10.0)


def test_expected_counts_scale_with_total():
    state = make_synthetic_state(n_windows=8)
    means = expected_counts(state.position, 1e6)
    assert means.sum() == pytest.approx(1e6, rel=1e-12)
    assert (means >= 0).all()
    with pytest.raises(UsageError):
        expected_counts(state.position, 0.0)


def test_sample_histograms_deterministic_and_poissonian():
    state = make_synthetic_state(n_windows=8)
    pos1, mom1 = sample_histograms(state, total=100_000, seed=12)
    pos2, mom2 = sample_histograms(state, total=100_000, seed=12)
    np.testing.assert_array_equal(pos1.counts.counts, pos2.counts.counts)
    np.testing.assert_array_equal(mom1.counts.counts, mom2.counts.counts)
    # grand totals fluctuate as independent Poisson sums around the target
    assert abs(int(pos1.total) - 100_000) < 6 * math.sqrt(100_000)
    assert abs(int(mom1.total) - 100_000) < 6 * math.sqrt(100_000)
    pos3, _ = sample_histograms(state, total=100_000, seed=13)
    assert (pos1.counts.counts != pos3.counts.counts).any()


def test_sample_histograms_position_and_momentum_streams_differ():
    state = make_synthetic_state(n_windows=8, extent_x=1.04e-3, extent_k=1.0e5)
    # identical grids would expose stream reuse as identical draws; the
    # marginals differ here, so compare via seeds instead: same seed, the two
    # observables must not share their random stream
    pos, mom = sample_histograms(state, total=50_000, seed=0)
    assert (pos.counts.counts != mom.counts.counts).any()


@pytest.mark.parametrize("seed", [0, 11])
def test_sample_histograms_streams_are_keyed_by_seed_and_observable(seed):
    state = make_synthetic_state(n_windows=6)
    pos, mom = sample_histograms(state, total=50_000, seed=seed)
    for hist, dist, stream in ((pos, state.position, 0), (mom, state.momentum, 1)):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))
        np.testing.assert_array_equal(hist.counts.counts, rng.poisson(expected_counts(dist, 50_000)))


def test_sample_histograms_rejects_bad_seed():
    state = make_synthetic_state(n_windows=8)
    with pytest.raises(UsageError):
        sample_histograms(state, total=1000, seed=-1)


# ---------------------------------------------- continuum-discrete bridges


def test_connection_identity_gaussian():
    axis = AxisGrid.centered(16, 12.0)
    residual = connection_check(
        lambda x: np.exp(-(x**2) / 2) / math.sqrt(2 * math.pi), axis
    )
    assert abs(residual) < 1e-6


def test_connection_identity_uniform():
    axis = AxisGrid.centered(4, 2.0)
    residual = connection_check(
        lambda x: np.where(np.abs(x) <= 1.0, 0.5, 0.0), axis, points=(-1.0, 1.0)
    )
    assert abs(residual) < 1e-9


def test_windowed_conditional_bound_dominates_true_entropy():
    for ratio in (1.0, 3.0, 10.0):
        p = DoubleGaussianParams(1.0, 1.0 / ratio)
        extent = 12 * math.sqrt(position_covariance(p)[0])
        for n in (6, 16):
            ax = AxisGrid.centered(n, extent)
            grid = GridSpec(Observable.POSITION, (ax,), (ax,))
            rhs = windowed_conditional_rhs(
                lambda a, b: position_density(p, a, b), grid
            )
            h_true = continuous_conditional_entropy(
                p, Observable.POSITION, base=math.e
            )
            assert rhs - h_true >= -1e-6


def test_windowed_bound_is_tight_at_independence():
    p = DoubleGaussianParams(1.0, 1.0)
    extent = 12 * math.sqrt(position_covariance(p)[0])
    ax = AxisGrid.centered(8, extent)
    grid = GridSpec(Observable.POSITION, (ax,), (ax,))
    rhs = windowed_conditional_rhs(lambda a, b: position_density(p, a, b), grid)
    h_true = continuous_conditional_entropy(p, Observable.POSITION, base=math.e)
    assert rhs == pytest.approx(h_true, abs=1e-6)
