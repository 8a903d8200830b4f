import math
import warnings

import numpy as np
import pytest

from eprsteering import (
    AxisGrid,
    GridSpec,
    JointDistribution,
    Observable,
    SyntheticConfig,
    TruncationError,
    UsageError,
    ZeroTotalError,
    conditional_variance,
    connection_check,
    continuous_conditional_entropy,
    continuous_margin,
    default_params,
    evaluate,
    make_synthetic_state,
    momentum_covariance,
    position_covariance,
    sample_histograms,
    viewing_grid,
)
from eprsteering import spdc
from eprsteering.bootstrap import POISSON_MEAN_MAX
from eprsteering.spdc import (
    DEFAULT_CLIP_TOL,
    DoubleGaussianParams,
    discretize_state,
)
from oracles import discretize, momentum_density, position_density, windowed_conditional_rhs

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
    assert (p.sigma_plus, p.sigma_minus) == (3.5e-4, 2.9e-5)


def test_params_coerce_scalars_and_pairs():
    p = DoubleGaussianParams(np.float32(1.0), 1)
    assert (p.sigma_plus, p.sigma_minus) == (1.0, 1.0)
    assert type(p.sigma_plus) is float and type(p.sigma_minus) is float
    # one axis per state: a 2-D state is built per axis, and a pair of
    # widths is refused by its type, not as a bad magnitude
    with pytest.raises(UsageError, match="^sigma_plus must be a real number, got tuple$"):
        DoubleGaussianParams((1.0, 2.0), (0.5, 0.25))
    with pytest.raises(UsageError, match="^sigma_minus must be a real number, got list$"):
        DoubleGaussianParams(1.0, [0.5, 0.25])


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_params_reject_nonpositive_widths(bad):
    with pytest.raises(UsageError, match=f"^sigma_plus must be finite and > 0, got {bad!r}$"):
        DoubleGaussianParams(bad, 1.0)
    with pytest.raises(UsageError, match=f"^sigma_minus must be finite and > 0, got {bad!r}$"):
        DoubleGaussianParams(1.0, bad)


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


@pytest.mark.parametrize("extent_x", [10.0, 300.0, 1e300, 1.7e308])
def test_exact_route_refuses_windows_too_wide_to_resolve(extent_x):
    # the outer rule tiles a window in at most 128 panels; past that the
    # state's party-A mass per window is missed, which is no clipped mass
    # (the state lies inside every one of these areas), and an x**2 past the
    # float range is density 0, not an overflow warning, and a window
    # width over the state's scale past the float range is the 128-panel cap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationError, match="too wide for the quadrature"):
            make_synthetic_state(extent_x=extent_x)


def test_discretize_routes_share_one_mass_gate():
    # the default viewing area clips ~0.4% of the state: both routes refuse
    # it at the strict tolerance with the same message
    p = default_params()
    grid = viewing_grid(Observable.POSITION)
    with pytest.raises(TruncationError) as exact:
        discretize_state(p, grid)
    with pytest.raises(TruncationError) as generic:
        discretize(lambda a, b: position_density(p, a, b), grid)
    assert str(generic.value) == str(exact.value)
    assert str(exact.value).startswith("viewing area captures only 0.996286721 of the state")


def _with_scipy_ndtr(monkeypatch, build):
    # scipy serves here only as the oracle for the libm-based CDF
    from scipy.special import ndtr

    with monkeypatch.context() as m:
        m.setattr(spdc, "_ndtr", ndtr)
        return build()


def test_ndtr_matches_scipy():
    from scipy.special import ndtr

    t = np.append(np.linspace(-40.0, 40.0, 160_001), 0.0)
    assert np.abs(spdc._ndtr(t) - ndtr(t)).max() <= 4.5e-16
    assert spdc._ndtr(np.zeros(1))[0] == 0.5


def test_synthetic_state_matches_scipy_cdf_build(monkeypatch):
    state = make_synthetic_state()
    ref = _with_scipy_ndtr(monkeypatch, make_synthetic_state)
    for dist, ref_dist in ((state.position, ref.position), (state.momentum, ref.momentum)):
        assert np.abs(dist.probs - ref_dist.probs).max() <= 1e-15
    for seed in range(5):
        for hist, ref_hist in zip(sample_histograms(state, seed=seed), sample_histograms(ref, seed=seed)):
            np.testing.assert_array_equal(hist.counts.counts, ref_hist.counts.counts)


def test_exact_route_matches_scipy_cdf_build_on_panelled_windows(monkeypatch):
    # mode ratio 100: the conditional ridge is ~0.06 wide against windows 3
    # wide, so the outer rule is tiled into 50 panels per window
    p = DoubleGaussianParams(1.0, 0.01)
    grid = viewing_grid(Observable.POSITION, 4, 12.0)
    dist, deficit = discretize_state(p, grid)
    ref, ref_deficit = _with_scipy_ndtr(monkeypatch, lambda: discretize_state(p, grid))
    assert np.abs(dist.probs - ref.probs).max() <= 1e-15
    assert deficit == pytest.approx(ref_deficit, abs=1e-15)


@pytest.mark.parametrize("n_windows", [6, 16])
def test_two_axis_state_is_built_per_axis(n_windows):
    # blocks and their outer product are the same 2-D state, and windowing
    # keeps its margin below the sum of the per-axis continuous margins
    params = [DoubleGaussianParams(1.0, 0.25), DoubleGaussianParams(2.0, 0.5)]

    def per_axis(observable, covariance):
        blocks = []
        for p in params:
            grid = viewing_grid(observable, n_windows, 12 * math.sqrt(covariance(p)[0]))
            blocks.append(discretize_state(p, grid)[0])
        axes = tuple(b.grid.axes_a[0] for b in blocks)
        product = JointDistribution(
            np.einsum("ab,cd->acbd", blocks[0].probs, blocks[1].probs),
            GridSpec(observable, axes, axes),
        )
        return blocks, product

    pos_blocks, pos_product = per_axis(Observable.POSITION, position_covariance)
    mom_blocks, mom_product = per_axis(Observable.MOMENTUM, momentum_covariance)
    from_blocks = evaluate(pos_blocks, mom_blocks).margin
    from_product = evaluate(pos_product, mom_product).margin
    assert from_blocks == pytest.approx(from_product, abs=1e-12)
    assert from_blocks < continuous_margin(params[0]) + continuous_margin(params[1])


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


@pytest.mark.parametrize("name", ["sigma_plus", "sigma_minus"])
@pytest.mark.parametrize("width", [1e155, 1e200, 1e-160, 1e-200])
def test_a_width_whose_square_leaves_the_float_range_is_refused(name, width):
    widths = {"sigma_plus": 1.0, "sigma_minus": 1.0, name: width}
    with pytest.raises(UsageError, match=f"{name} is out of range"):
        DoubleGaussianParams(**widths)


@pytest.mark.parametrize("width", [1e150, 1e-150])
def test_a_width_whose_square_stays_in_the_float_range_is_kept(width):
    assert DoubleGaussianParams(width, width).sigma_plus == width


@pytest.mark.parametrize("tol", [1.0, 5.0])
def test_a_mass_tolerance_of_one_or_more_is_refused(tol):
    # the grid misses the density, so its cells hold no mass at all
    p = DoubleGaussianParams(1.0, 1.0)
    ax = AxisGrid(8, 1.0, origin=100.0)
    grid = GridSpec(Observable.POSITION, (ax,), (ax,))
    with pytest.raises(UsageError, match="tail_tol must be < 1"):
        discretize(lambda a, b: position_density(p, a, b), grid, tail_tol=tol)
    with pytest.raises(UsageError, match="tail_tol must be < 1"):
        discretize_state(p, grid, tail_tol=tol)
    with pytest.raises(UsageError, match="clip_tol must be < 1"):
        make_synthetic_state(p, extent_x=1e-300, clip_tol=tol)
    with pytest.raises(UsageError, match="clip_tol must be < 1"):
        SyntheticConfig(clip_tol=tol)


def test_make_synthetic_state_honors_clip_tolerance():
    with pytest.raises(TruncationError):
        make_synthetic_state(clip_tol=1e-3)


def test_sample_histograms_rejects_a_nonpositive_total():
    state = make_synthetic_state(n_windows=8)
    for total in (0.0, -1.0, math.inf, math.nan, "many"):
        with pytest.raises(UsageError, match="total"):
            sample_histograms(state, total=total)


def test_sample_histograms_refuses_a_total_past_the_poisson_limit(monkeypatch):
    state = make_synthetic_state(n_windows=8)
    pos, mom = sample_histograms(state, total=POISSON_MEAN_MAX)
    assert pos.total > 0 and mom.total > 0

    def no_draw(*args):
        raise AssertionError("drew before checking the total")

    monkeypatch.setattr(spdc, "_keyed_rng", no_draw)
    for total in (np.nextafter(POISSON_MEAN_MAX, math.inf), 2e19):
        with pytest.raises(UsageError, match="^total must be <= 9.22337e[+]18, the largest Poisson mean"):
            sample_histograms(state, total=total)


@pytest.mark.parametrize(
    "seed, total, observable",
    [(0, 1, "position"), (5, 1, "momentum"), (11, 0.5, "momentum"), (8, 0.5, "position")],
)
def test_sample_histograms_names_the_empty_draw_and_its_total(seed, total, observable):
    # a position draw is made and checked before the momentum draw
    state = make_synthetic_state(n_windows=2)
    message = f"the {observable} draw holds zero events at total={total}: a larger total gives it events to score"
    with pytest.raises(ZeroTotalError) as err:
        sample_histograms(state, total=total, seed=seed)
    assert str(err.value) == message


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
        np.testing.assert_array_equal(hist.counts.counts, rng.poisson(dist.probs * 50_000.0))


def test_sample_histograms_rejects_bad_seed():
    state = make_synthetic_state(n_windows=8)
    with pytest.raises(UsageError):
        sample_histograms(state, total=1000, seed=-1)


# ---------------------------------------------- continuum-discrete bridges


def test_quadrature_rule_is_numpys_leggauss_16():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = spdc._GL_NODES, spdc._GL_WEIGHTS
    np.testing.assert_array_equal(nodes, -nodes[::-1])
    np.testing.assert_array_equal(weights, weights[::-1])
    assert math.fsum(weights) == pytest.approx(2.0, abs=1e-15)
    ref_nodes, ref_weights = leggauss(16)
    np.testing.assert_array_max_ulp(nodes, ref_nodes, maxulp=2)
    np.testing.assert_array_max_ulp(weights, ref_weights, maxulp=2)


def test_connection_identity_gaussian():
    assert connection_check(1.0, AxisGrid.centered(16, 12.0)) <= 1e-12


def test_connection_check_sees_a_rule_off_by_one_part_in_a_billion(monkeypatch):
    # the closed form resolves a weight error that adaptive quad at 1e-6 hid
    monkeypatch.setattr(spdc, "_GL_WEIGHTS", spdc._GL_WEIGHTS * (1 + 1e-9))
    assert connection_check(1.0, AxisGrid.centered(16, 12.0)) > 1e-12


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
def test_connection_check_rejects_a_nonpositive_width(sigma):
    with pytest.raises(UsageError, match="sigma"):
        connection_check(sigma, AxisGrid.centered(8, 4.0))


def test_connection_check_needs_no_confined_density():
    # the tails past the grid extent are not part of any window's integral
    assert connection_check(3.0, AxisGrid.centered(8, 4.0)) <= 1e-12


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


def test_under_mass_advice_suits_every_caller():
    # windowed_conditional_rhs has no tolerance to raise: widening is the fix
    p = DoubleGaussianParams(1.0, 0.25)
    ax = AxisGrid.centered(8, 1.0)
    grid = GridSpec(Observable.POSITION, (ax,), (ax,))
    with pytest.raises(TruncationError) as err:
        windowed_conditional_rhs(lambda a, b: position_density(p, a, b), grid)
    message = str(err.value)
    assert "tail_tol" not in message
    assert "(tol 1e-06)" in message
    assert "widen the extents" in message


def test_windowed_bound_shares_the_mass_gate():
    # the grid captures 0.57 of the state, and discretize refuses it too
    p = DoubleGaussianParams(1.0, 0.25)
    ax = AxisGrid.centered(8, 1.0)
    grid = GridSpec(Observable.POSITION, (ax,), (ax,))
    for window in (windowed_conditional_rhs, discretize):
        with pytest.raises(TruncationError, match="captures only 0.57"):
            window(lambda a, b: position_density(p, a, b), grid)
