import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eprsteering import (
    AxisGrid,
    DataError,
    DegenerateBootstrapError,
    Direction,
    GridSpec,
    Histogram,
    JointDistribution,
    NonDivisibleFactorError,
    NumericalError,
    Observable,
    UsageError,
    asymmetry_map,
    downsample,
    evaluate,
    make_synthetic_state,
    mutual_information,
    resolution_curve,
    sample_histograms,
    witness_significance,
)

# Margins of the noise-free default synthetic state over divisors of 24.
CURVE_MARGINS = {
    2: -2.203008,
    3: -1.187660,
    4: -0.584594,
    6: 0.205369,
    8: 0.714937,
    12: 1.363367,
    24: 2.164006,
}


def square_grid(n, width, observable=Observable.POSITION):
    ax = AxisGrid.centered(n, n * width)
    return GridSpec(observable, (ax,), (ax,))


# --------------------------------------------------------------- downsample


def test_downsample_histogram_counts_and_grid():
    grid = square_grid(4, 0.5)
    counts = np.arange(16, dtype=np.int64).reshape(4, 4)
    hist = Histogram(counts, grid)
    coarse = downsample(hist, 2, 2)
    assert isinstance(coarse, Histogram)
    assert coarse.counts.counts.sum() == counts.sum()
    ax_a = coarse.grid.axes("A")[0]
    assert ax_a.n_windows == 2
    assert ax_a.window_width == pytest.approx(1.0)
    # the physical extent and origin never move
    assert ax_a.extent == pytest.approx(grid.axes("A")[0].extent)
    assert ax_a.origin == grid.axes("A")[0].origin


def test_downsample_asymmetric_factors():
    grid = square_grid(6, 1.0)
    counts = np.ones((6, 6), dtype=np.int64)
    coarse = downsample(Histogram(counts, grid), 3, 2)
    assert coarse.counts.counts.shape == (2, 3)
    assert coarse.grid.widths("A") == (3.0,)
    assert coarse.grid.widths("B") == (2.0,)


def test_downsample_refuses_a_plain_sequence():
    with pytest.raises(UsageError, match="^downsample expects Histogram or JointDistribution, got list$"):
        downsample([[1, 2], [3, 4]], 1, 1)


def test_downsample_distribution_stays_normalized():
    grid = square_grid(4, 1.0)
    rng = np.random.default_rng(0)
    probs = rng.random((4, 4))
    probs /= probs.sum()
    coarse = downsample(JointDistribution(probs, grid), 2, 2)
    assert isinstance(coarse, JointDistribution)
    assert coarse.probs.sum() == pytest.approx(1.0, abs=1e-14)


def test_downsample_sums_contiguous_blocks():
    counts = np.arange(16, dtype=np.int64).reshape(4, 4)
    coarse = downsample(Histogram(counts, square_grid(4, 1.0)), 2, 2)
    expected = [[0 + 1 + 4 + 5, 2 + 3 + 6 + 7], [8 + 9 + 12 + 13, 10 + 11 + 14 + 15]]
    np.testing.assert_array_equal(coarse.counts.counts, expected)


def test_downsample_identity_factor_keeps_the_counts():
    grid = GridSpec(Observable.POSITION, (AxisGrid(2, 1.0),), (AxisGrid(3, 1.0),))
    counts = np.arange(6, dtype=np.int64).reshape(2, 3)
    np.testing.assert_array_equal(downsample(Histogram(counts, grid), 1, 1).counts.counts, counts)


@pytest.mark.parametrize(
    ("axes", "factors", "message"),
    [
        ((4, 6), (3, 2), "downsampling factor of axis 0 must divide 4, got 3"),
        ((4, 6), (2, 4), "downsampling factor of axis 1 must divide 6, got 4"),
        ((4, 6, 6, 4), (2, 3), "downsampling factor of axis 3 must divide 4, got 3"),
        ((4, 6, 6, 4), (4, 2), "downsampling factor of axis 1 must divide 6, got 4"),
    ],
)
def test_downsample_rejects_a_factor_that_does_not_divide_its_party(axes, factors, message):
    n = len(axes) // 2
    grid = GridSpec(
        Observable.POSITION, tuple(AxisGrid(k, 1.0) for k in axes[:n]), tuple(AxisGrid(k, 1.0) for k in axes[n:])
    )
    hist = Histogram(np.ones(axes, dtype=np.int64), grid)
    with pytest.raises(NonDivisibleFactorError, match=f"^{message}$"):
        downsample(hist, *factors)


def test_downsample_commutes_with_normalization():
    grid = square_grid(8, 1.0)
    rng = np.random.default_rng(2)
    counts = rng.integers(0, 1000, size=(8, 8))
    hist = Histogram(counts, grid)
    via_counts = downsample(hist, 4, 2).normalize().probs
    via_probs = downsample(hist.normalize(), 4, 2).probs
    np.testing.assert_allclose(via_counts, via_probs, atol=1e-15)


@given(
    arr=hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.sampled_from([2, 4, 6, 8]), st.sampled_from([2, 4, 6, 8])
        ),
        elements=st.floats(0.0, 1.0, allow_nan=False),
    )
)
@settings(max_examples=60, deadline=None)
def test_downsampling_cannot_create_mutual_information(arr):
    total = arr.sum()
    if total <= 0:
        return
    probs = arr / total
    n_a, n_b = probs.shape
    grid = GridSpec(
        Observable.POSITION, (AxisGrid(n_a, 1.0),), (AxisGrid(n_b, 1.0),)
    )
    dist = JointDistribution(probs, grid)
    before = mutual_information(dist)
    after = mutual_information(downsample(dist, 2, 2))
    assert after <= before + 1e-12


# --------------------------------------------------------- resolution curve


def test_resolution_curve_default_resolutions_are_divisors():
    state = make_synthetic_state()
    points = resolution_curve(state.position, state.momentum)
    assert tuple(p.resolution for p in points) == (2, 3, 4, 6, 8, 12, 24)


def test_resolution_curve_frozen_margins():
    state = make_synthetic_state()
    points = resolution_curve(state.position, state.momentum)
    for point in points:
        assert point.margin == pytest.approx(CURVE_MARGINS[point.resolution], abs=5e-4)
    margins = [p.margin for p in points]
    assert margins == sorted(margins)


def test_resolution_curve_directions_agree_for_symmetric_state():
    # the default model treats the parties identically, so steering either way
    # must give the same numbers
    state = make_synthetic_state()
    ba = resolution_curve(state.position, state.momentum, direction=Direction.B_GIVEN_A)
    ab = resolution_curve(state.position, state.momentum, direction=Direction.A_GIVEN_B)
    for p, q in zip(ba, ab):
        assert p.margin == pytest.approx(q.margin, abs=1e-12)


def test_resolution_curve_inverse_window_product_tracks_resolution():
    state = make_synthetic_state(n_windows=8)
    points = resolution_curve(state.position, state.momentum, resolutions=[2, 4, 8])
    inv = [p.inv_window_product for p in points]
    assert inv == sorted(inv)
    assert inv[2] / inv[0] == pytest.approx(16.0, rel=1e-12)
    bounds = [p.bound for p in points]
    assert bounds == sorted(bounds)


def test_resolution_curve_accepts_histograms():
    state = make_synthetic_state(n_windows=8)
    pos, mom = sample_histograms(state, total=50_000, seed=1)
    points = resolution_curve(pos, mom, resolutions=[2, 8])
    assert len(points) == 2


def test_resolution_curve_symmetric_direction_uses_symmetric_witness():
    state = make_synthetic_state(n_windows=8)
    points = resolution_curve(
        state.position, state.momentum, resolutions=[8], direction=Direction.SYMMETRIC
    )
    direct = evaluate(state.position, state.momentum, direction=Direction.SYMMETRIC)
    assert points[0].margin == pytest.approx(direct.margin, abs=1e-12)


def test_resolution_curve_rejects_non_divisor_resolution():
    state = make_synthetic_state(n_windows=8)
    with pytest.raises(NonDivisibleFactorError):
        resolution_curve(state.position, state.momentum, resolutions=[3])


def test_resolution_curve_requires_histograms_or_distributions():
    state = make_synthetic_state(n_windows=8)
    with pytest.raises(UsageError):
        resolution_curve([state.position], [state.momentum])


def test_resolution_curve_rejects_non_square_grid():
    probs = np.full((4, 6), 1 / 24)
    grid = GridSpec(Observable.POSITION, (AxisGrid(4, 1.0),), (AxisGrid(6, 1.0),))
    dist = JointDistribution(probs, grid)
    mom_grid = GridSpec(Observable.MOMENTUM, (AxisGrid(4, 1.0),), (AxisGrid(6, 1.0),))
    mom = JointDistribution(probs, mom_grid)
    with pytest.raises(UsageError):
        resolution_curve(dist, mom)


def _inv_window_product(pos, mom, f, direction):
    """The product of 1 / (w_x * w_k) over the steered party's widths on downsample's grids, party B's for the symmetric witness."""
    steered = "A" if direction is Direction.A_GIVEN_B else "B"
    inv = 1.0
    for wx, wk in zip(downsample(pos, f, f).grid.widths(steered), downsample(mom, f, f).grid.widths(steered)):
        inv /= wx * wk
    return inv


@pytest.mark.parametrize("direction", list(Direction))
def test_curve_rows_equal_evaluate_and_the_map_cell_bit_for_bit(direction):
    # counts are scored as counts at every resolution, as witness and map
    # score them; a probability curve is evaluate on the downsampled state
    state = make_synthetic_state(n_windows=8)
    pos, mom = sample_histograms(state, total=50_000, seed=1)

    def downsampled_evaluate(position, momentum, r):
        return evaluate(downsample(position, 8 // r, 8 // r), downsample(momentum, 8 // r, 8 // r), direction=direction)

    for p in resolution_curve(pos, mom, direction=direction):
        want = downsampled_evaluate(pos, mom, p.resolution)
        cell = asymmetry_map(pos, mom, [p.resolution], [p.resolution], direction=direction, n_boot=100).cells[0]
        assert (p.lhs, p.bound, p.margin) == (want.lhs, want.bound, want.margin)
        assert cell.result == want
        assert p.inv_window_product == _inv_window_product(pos, mom, 8 // p.resolution, direction)
    exact = resolution_curve(state.position, state.momentum, direction=direction)
    assert [p.resolution for p in exact] == [2, 4, 8]
    for p in exact:
        want = downsampled_evaluate(state.position, state.momentum, p.resolution)
        assert (p.lhs, p.bound, p.margin) == (want.lhs, want.bound, want.margin)


# ------------------------------------------------------------ asymmetry map


@pytest.fixture(scope="module")
def sampled_12():
    state = make_synthetic_state(n_windows=12)
    return sample_histograms(state, total=200_000, seed=3)


@pytest.fixture(scope="module")
def off_centre_12(sampled_12):
    # the sampled counts on grids with off-centre origins and unequal widths
    # per party and observable, so no coarse width or extent is a round number
    def grid(observable, a, b):
        return GridSpec(observable, (AxisGrid(12, a[0], a[1]),), (AxisGrid(12, b[0], b[1]),))

    pos, mom = sampled_12
    return (
        Histogram(pos.counts, grid(Observable.POSITION, (0.1, -0.37), (0.07, 0.21))),
        Histogram(mom.counts, grid(Observable.MOMENTUM, (9.0, -50.0), (11.0, 3.0))),
    )


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("blocks", ["sampled_12", "off_centre_12"])
def test_asymmetry_map_cells_match_direct_evaluation(blocks, direction, request):
    # each cell is built from the base counts, not from downsample's blocks;
    # its whole report must be the one witness_significance gives on them
    pos, mom = request.getfixturevalue(blocks)
    sweep = asymmetry_map(pos, mom, [2, 6], [3, 4, 12], direction=direction, n_boot=100, seed=5)
    assert sweep.margins().shape == (2, 3)
    for cell in sweep.cells:
        fa = 12 // cell.resolution_a
        fb = 12 // cell.resolution_b
        pos_rr = downsample(pos, fa, fb)
        mom_rr = downsample(mom, fa, fb)
        boot = witness_significance(
            pos_rr, mom_rr, direction=direction, n_boot=100, seed=[5, cell.resolution_a, cell.resolution_b]
        )
        assert cell.report == boot
        assert cell.result == boot.point == evaluate(pos_rr, mom_rr, direction=direction)


def test_a_map_cell_past_the_poisson_limit_is_named():
    # each base cell can be drawn, but at party B's 2 windows the two 5e18
    # cells of row 1 merge into one mean of 1e19; the message named no cell
    counts = np.ones((4, 4), dtype=np.uint64)
    counts[1, :2] = 5 * 10**18
    pos = Histogram(counts, square_grid(4, 2.0))
    mom = Histogram(counts, square_grid(4, 2.0, Observable.MOMENTUM))
    with pytest.raises(DataError) as err:
        asymmetry_map(pos, mom, [4], [2], n_boot=100)
    assert str(err.value) == (
        "map cell (4, 2): a cell mean of 1e+19 exceeds 9.22337e+18, the largest Poisson mean that can be drawn"
    )


@pytest.mark.parametrize(
    "width, error, message",
    [
        # every replicate of cell (2, 2) scores one margin, up to roundoff
        (2.0, DegenerateBootstrapError, "map cell (2, 2): the bootstrap margins are constant up to roundoff"),
        # extent 2 on every axis: L_x * L_k = 4 is below pi*e at every cell,
        # so the base grids are refused before the first cell is built
        (0.5, NumericalError, "base grids: party B's viewing area L_x*L_k = 4 is at most pi*e = 8.53973, so"),
    ],
)
def test_a_map_cell_refused_as_numerical_is_named(width, error, message):
    # neither refusal named the cell; the viewing-area rule was raised
    # outside the cell's try, where the kernel was built
    pos, mom = numerical_refusal_blocks(width)
    with pytest.raises(error) as err:
        asymmetry_map(pos, mom, [2, 4], [2, 4], direction=Direction.B_GIVEN_A, n_boot=100)
    assert type(err.value) is error
    assert str(err.value).startswith(message)


def numerical_refusal_blocks(width):
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[0, 0] = 1000
    pos = Histogram(counts, square_grid(4, width))
    mom = Histogram(300 * np.eye(4, dtype=np.int64), square_grid(4, width, Observable.MOMENTUM))
    return pos, mom


def test_a_curve_on_base_grids_below_pi_e_names_the_base_grids(monkeypatch):
    # the rule is the base grids', checked once before any row is scored
    pos, mom = numerical_refusal_blocks(0.5)
    monkeypatch.setattr("eprsteering.coarse._kernel", None)
    with pytest.raises(NumericalError) as err:
        resolution_curve(pos, mom, [2, 4], direction=Direction.B_GIVEN_A)
    assert type(err.value) is NumericalError
    assert str(err.value).startswith("base grids: party B's viewing area L_x*L_k = 4 is at most pi*e = 8.53973, so")


def test_a_cell_whose_merged_extents_fall_to_pi_e_is_named():
    # 9 windows of these widths pass the rule by one ulp of log-area, but 3
    # windows of 3 * w round to a party-B area of exactly pi*e: the cell
    # keeps its own check
    wx, wk = 1.4306491748563095, 0.07369299155710916
    counts = np.random.default_rng(2).poisson(50, (9, 9))
    pos = Histogram(counts, GridSpec(Observable.POSITION, (AxisGrid(9, wx),), (AxisGrid(9, wx),)))
    mom = Histogram(counts, GridSpec(Observable.MOMENTUM, (AxisGrid(9, wk),), (AxisGrid(9, wk),)))
    assert evaluate(pos, mom).bound > 0
    with pytest.raises(NumericalError) as err:
        asymmetry_map(pos, mom, [9], [3], direction=Direction.B_GIVEN_A, n_boot=100)
    assert str(err.value).startswith("map cell (9, 3): party B's viewing area L_x*L_k = 8.53973 is at most pi*e")
    with pytest.raises(NumericalError) as err:
        resolution_curve(pos, mom, [9, 3])
    assert type(err.value) is NumericalError
    assert str(err.value).startswith("curve row 3: party B's viewing area L_x*L_k = 8.53973 is at most pi*e")


@pytest.fixture(scope="module")
def off_centre_2d():
    # one full-joint (6, 6, 6, 6) block per observable, on grids with an
    # off-centre origin and a width of its own on every axis
    rng = np.random.default_rng(11)

    def grid(observable, widths, origins):
        axes = tuple(AxisGrid(6, w, o) for w, o in zip(widths, origins))
        return GridSpec(observable, axes[:2], axes[2:])

    return (
        Histogram(rng.poisson(3.0, (6, 6, 6, 6)), grid(Observable.POSITION, (0.5, 0.6, 0.7, 0.9), (-0.3, 0.1, -1.7, 0.45))),
        Histogram(rng.poisson(3.0, (6, 6, 6, 6)), grid(Observable.MOMENTUM, (1.5, 1.7, 1.9, 2.3), (-4.0, 0.2, -6.1, 1.3))),
    )


@pytest.mark.parametrize("direction", list(Direction))
def test_full_joint_2d_sweeps_match_direct_evaluation(off_centre_2d, direction):
    # the kernel builder merges each block's 2 * n_dims axes by its party's
    # factor; each cell and row must be the witness on downsample's blocks
    pos, mom = off_centre_2d
    sweep = asymmetry_map(pos, mom, [2, 3, 6], [2, 3, 6], direction=direction, n_boot=100, seed=7)
    for cell in sweep.cells:
        fa, fb = 6 // cell.resolution_a, 6 // cell.resolution_b
        boot = witness_significance(
            downsample(pos, fa, fb),
            downsample(mom, fa, fb),
            direction=direction,
            n_boot=100,
            seed=[7, cell.resolution_a, cell.resolution_b],
        )
        assert cell.report == boot
        assert (boot.point.mode, boot.point.n_dims) == ("full-joint", 2)
    curve = resolution_curve(pos, mom, direction=direction)
    assert [p.resolution for p in curve] == [2, 3, 6]
    for p in curve:
        f = 6 // p.resolution
        want = evaluate(downsample(pos, f, f), downsample(mom, f, f), direction=direction)
        assert (p.lhs, p.bound, p.margin) == (want.lhs, want.bound, want.margin)
        assert p.inv_window_product == _inv_window_product(pos, mom, f, direction)


def test_asymmetry_map_matrices_read_cells_in_row_major_order(sampled_12):
    pos, mom = sampled_12
    sweep = asymmetry_map(pos, mom, [4, 2], [4], n_boot=100)
    assert [(c.resolution_a, c.resolution_b) for c in sweep.cells] == [(4, 4), (2, 4)]
    np.testing.assert_array_equal(sweep.margins(), [[c.result.margin] for c in sweep.cells])
    np.testing.assert_array_equal(
        sweep.significances(), [[c.report.significance] for c in sweep.cells]
    )


def test_sweeps_reject_repeated_resolutions(sampled_12):
    pos, mom = sampled_12
    with pytest.raises(UsageError, match="once"):
        asymmetry_map(pos, mom, [2, 2], [4], n_boot=100)
    with pytest.raises(UsageError, match="once"):
        asymmetry_map(pos, mom, [4], [3, 6, 3], n_boot=100)
    with pytest.raises(UsageError, match="once"):
        resolution_curve(pos, mom, resolutions=[2, 2])


def test_asymmetry_map_defaults_to_the_curve_resolutions():
    state = make_synthetic_state(n_windows=8)
    pos, mom = sample_histograms(state, total=50_000, seed=1)
    sweep = asymmetry_map(pos, mom, n_boot=100)
    curve = tuple(p.resolution for p in resolution_curve(pos, mom))
    assert sweep.resolutions_a == sweep.resolutions_b == curve == (2, 4, 8)
    assert [(c.resolution_a, c.resolution_b) for c in sweep.cells] == [
        (ra, rb) for ra in curve for rb in curve
    ]


def test_asymmetry_map_is_deterministic(sampled_12):
    pos, mom = sampled_12
    first = asymmetry_map(pos, mom, [3, 12], [12], n_boot=100, seed=9)
    second = asymmetry_map(pos, mom, [3, 12], [12], n_boot=100, seed=9)
    np.testing.assert_array_equal(first.margins(), second.margins())
    np.testing.assert_array_equal(first.significances(), second.significances())


def test_asymmetry_map_cell_independent_of_sweep_shape(sampled_12):
    # cell randomness is keyed by (seed, res_a, res_b), not sweep position
    pos, mom = sampled_12
    wide = asymmetry_map(pos, mom, [3, 4, 12], [3, 12], n_boot=100, seed=9)
    narrow = asymmetry_map(pos, mom, [4], [12], n_boot=100, seed=9)
    wide_cell = next(
        c for c in wide.cells if (c.resolution_a, c.resolution_b) == (4, 12)
    )
    assert wide_cell.report.significance == narrow.cells[0].report.significance
    assert wide_cell.result.margin == narrow.cells[0].result.margin


def test_asymmetry_map_requires_histograms():
    state = make_synthetic_state(n_windows=8)
    with pytest.raises(UsageError):
        asymmetry_map(state.position, state.momentum, [2], [2], n_boot=100)


def test_asymmetry_map_rejects_empty_resolutions(sampled_12):
    pos, mom = sampled_12
    with pytest.raises(UsageError):
        asymmetry_map(pos, mom, [], [3], n_boot=100)
    with pytest.raises(UsageError):
        resolution_curve(pos, mom, resolutions=[])


def test_asymmetry_map_rejects_non_divisor(sampled_12):
    pos, mom = sampled_12
    with pytest.raises(NonDivisibleFactorError):
        asymmetry_map(pos, mom, [5], [3], n_boot=100)


def test_coarse_party_b_resolution_controls_feasibility():
    # with party B held below the minimum feasible resolution the bound is
    # negative, so no distribution on these extents can fire the witness
    state = make_synthetic_state()
    pos = downsample(state.position, 1, 8)
    mom = downsample(state.momentum, 1, 8)
    result = evaluate(pos, mom)
    assert result.bound < 0
    assert not result.violated
    # steering the other way is still wide open at full resolution
    other = evaluate(pos, mom, direction=Direction.A_GIVEN_B)
    assert other.bound > 0
