import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsteering import (
    AxisGrid,
    DimensionMismatchError,
    Direction,
    GridSpec,
    DoubleGaussianParams,
    JointDistribution,
    NonpositiveExtentError,
    NonpositiveWindowError,
    NumericalError,
    Observable,
    UsageError,
    asymmetry_map,
    conditional_entropy,
    evaluate,
    make_synthetic_state,
    min_resolution,
    mutual_information,
    per_dim_bound,
    resolution_curve,
    sample_histograms,
    witness_significance,
)

PI_E = math.pi * math.e

# Default viewing area: 1.04 mm by 1.00e5 rad/m, split into 24 windows per axis.
EXTENT_X = 1.04e-3
EXTENT_K = 1.00e5
BOUND_24 = 5.563676453662503
BOUND_8 = 2.3937514522201897
SYM_BOUND = 3.6062485477798103


def square_dist(probs: np.ndarray, extent: float, observable) -> JointDistribution:
    ax = AxisGrid.centered(probs.shape[0], extent)
    grid = GridSpec(observable, (ax,), (ax,))
    return JointDistribution(probs, grid)


def diag_pair(n: int = 24):
    probs = np.eye(n) / n
    pos = square_dist(probs, EXTENT_X, Observable.POSITION)
    mom = square_dist(probs, EXTENT_K, Observable.MOMENTUM)
    return pos, mom


def uniform_pair(n: int = 8):
    probs = np.full((n, n), 1.0 / n**2)
    pos = square_dist(probs, EXTENT_X, Observable.POSITION)
    mom = square_dist(probs, EXTENT_K, Observable.MOMENTUM)
    return pos, mom


# ---------------------------------------------------------------- bounds


def test_per_dim_bound_frozen_values():
    assert per_dim_bound(EXTENT_X / 24, EXTENT_K / 24) == pytest.approx(
        BOUND_24, abs=1e-12
    )
    assert per_dim_bound(EXTENT_X / 8, EXTENT_K / 8) == pytest.approx(
        BOUND_8, abs=1e-12
    )


def test_per_dim_bound_closed_form():
    value = per_dim_bound(0.2, 3.0, base=math.e)
    assert value == pytest.approx(math.log(PI_E / 0.6), rel=1e-14)


def test_per_dim_bound_zero_at_pi_e_window_product():
    assert per_dim_bound(PI_E, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert per_dim_bound(2 * PI_E, 1.0) < 0.0


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_per_dim_bound_rejects_nonpositive_widths(bad):
    with pytest.raises(NonpositiveWindowError):
        per_dim_bound(bad, 1.0)
    with pytest.raises(NonpositiveWindowError):
        per_dim_bound(1.0, bad)


def test_min_resolution_frozen_values():
    assert min_resolution(EXTENT_X, EXTENT_K) == 4
    # past pi*e by the rule evaluate refuses by, though L_x * L_k / (pi*e)
    # rounds to just below 1: one window still cannot fire
    lx, lk = 0.12277505667624512, 69.55593793935391
    assert math.log(lx) + math.log(lk) - math.log(PI_E) > 0.0 > lx * lk / PI_E - 1.0
    assert min_resolution(lx, lk) == 2
    for area in (PI_E, 0.1):
        with pytest.raises(NumericalError, match=r"viewing area L_x\*L_k = .* is at most pi\*e = 8\.53973"):
            min_resolution(area, 1.0)


def test_min_resolution_rejects_nonpositive_extent():
    with pytest.raises(NonpositiveExtentError):
        min_resolution(0.0, 1.0)


@given(
    lx=st.floats(1e-6, 1e6),
    lk=st.floats(1e-6, 1e6),
)
@settings(max_examples=120, deadline=None)
def test_min_resolution_is_threshold(lx, lk):
    # the area rule of evaluate's refusal splits the domain
    if math.log(lx) + math.log(lk) - math.log(PI_E) <= 0.0:
        with pytest.raises(NumericalError, match=r"pi\*e"):
            min_resolution(lx, lk)
        return
    n = min_resolution(lx, lk)
    assert per_dim_bound(lx / n, lk / n) > 0.0
    assert per_dim_bound(lx / (n - 1), lk / (n - 1)) <= 0.0


@pytest.mark.parametrize(
    "lx, lk, n",
    [
        # L_x*L_k/(pi*e) rounds to exactly 4, so a square root of it says 3,
        # yet the bound at 2 windows is +8.0e-17 bit
        (23.53610302568196, 1.4513420872359775, 2),
        # it rounds to just below 4, so a square root says 2, yet the bound
        # at 2 windows is -1.6e-16 bit
        (6.394382335349088, 5.342022903738274, 3),
    ],
)
def test_min_resolution_resolves_ties_as_the_witness_bound_does(lx, lk, n):
    assert min_resolution(lx, lk) == n
    probs = np.full((2, 2), 0.25)
    pos, mom = square_dist(probs, lx, Observable.POSITION), square_dist(probs, lk, Observable.MOMENTUM)
    assert (evaluate(pos, mom).bound > 0.0) is (n == 2)
    assert (per_dim_bound(lx / 2, lk / 2) > 0.0) is (n == 2)


def test_min_resolution_is_the_bound_threshold_at_near_ties():
    # extents whose product lies within an ulp of k^2 * pi*e, where a formula
    # over the product and the bound's logarithms can round apart
    rng = np.random.default_rng(3)
    for k in range(2, 200):
        for lx in np.exp(rng.uniform(-5.0, 8.0, 5)).tolist():
            lk = k * k * PI_E / lx
            for lk in (math.nextafter(lk, 0.0), lk, math.nextafter(lk, math.inf)):
                n = min_resolution(lx, lk)
                assert per_dim_bound(lx / n, lk / n) > 0.0, (lx, lk, n)
                assert n == 2 or per_dim_bound(lx / (n - 1), lk / (n - 1)) <= 0.0, (lx, lk, n)


@pytest.mark.parametrize("lx, lk", [(1e200, 1e200), (1e300, 1e10), (1.7e308, 1.7e308)])
def test_min_resolution_of_an_area_past_the_float_range(lx, lk):
    # L_x * L_k overflows a float; the count is found from the log-area
    n = min_resolution(lx, lk)
    assert per_dim_bound(lx / n, lk / n) > 0.0
    assert per_dim_bound(lx / (n - 1), lk / (n - 1)) <= 0.0


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    excess=st.floats(1.0, 4.0),
)
@settings(max_examples=60, deadline=None)
def test_no_distribution_fires_at_window_products_of_pi_e_or_more(seed, n, excess):
    # the bound is <= 0 there and conditional entropies are >= 0
    rng = np.random.default_rng(seed)
    probs = [p / p.sum() for p in rng.exponential(size=(2, n, n))]
    pos = square_dist(probs[0], n * 2.0, Observable.POSITION)
    mom = square_dist(probs[1], n * excess * PI_E / 2.0, Observable.MOMENTUM)
    result = evaluate(pos, mom)
    assert result.bound <= 1e-12
    assert result.margin <= 0.0
    assert not result.violated


# ------------------------------------------------------- conditional witness


def test_perfectly_correlated_diagonal_fires():
    pos, mom = diag_pair(24)
    result = evaluate(pos, mom)
    assert result.direction is Direction.B_GIVEN_A
    assert result.lhs == pytest.approx(0.0, abs=1e-12)
    assert result.bound == pytest.approx(BOUND_24, abs=1e-12)
    assert result.margin == pytest.approx(BOUND_24, abs=1e-12)
    assert result.violated
    assert result.mode == "full-joint"
    assert result.n_dims == 1


def test_uniform_product_state_cannot_fire():
    pos, mom = uniform_pair(8)
    result = evaluate(pos, mom)
    # conditional entropies hit log2(8) for each observable
    assert result.lhs == pytest.approx(6.0, abs=1e-12)
    assert result.bound == pytest.approx(BOUND_8, abs=1e-12)
    assert result.margin == pytest.approx(BOUND_8 - 6.0, abs=1e-12)
    assert result.margin == pytest.approx(-3.6062485477798103, abs=1e-12)
    assert not result.violated


def test_direction_selects_steered_party():
    # b is a deterministic function of a, so H(B|A)=0 while H(A|B)=1 bit;
    # empty windows widen each party's viewing area past pi*e
    probs = np.zeros((9, 3))
    for a in range(4):
        probs[a, a // 2] = 0.25
    pos_grid = GridSpec(
        Observable.POSITION, (AxisGrid(9, 0.5),), (AxisGrid(3, 1.0),)
    )
    mom_grid = GridSpec(
        Observable.MOMENTUM, (AxisGrid(9, 0.25),), (AxisGrid(3, 2.0),)
    )
    pos = JointDistribution(probs, pos_grid)
    mom = JointDistribution(probs, mom_grid)

    ba = evaluate(pos, mom, direction=Direction.B_GIVEN_A)
    ab = evaluate(pos, mom, direction=Direction.A_GIVEN_B)

    assert ba.lhs == pytest.approx(0.0, abs=1e-12)
    assert ab.lhs == pytest.approx(2.0, abs=1e-12)
    assert ba.bound == pytest.approx(per_dim_bound(1.0, 2.0), abs=1e-12)
    assert ab.bound == pytest.approx(per_dim_bound(0.5, 0.25), abs=1e-12)
    assert ba.direction is Direction.B_GIVEN_A
    assert ab.direction is Direction.A_GIVEN_B


def test_observable_mismatch_rejected():
    pos, _ = diag_pair(4)
    with pytest.raises(UsageError):
        evaluate(pos, pos)


@pytest.fixture(scope="module")
def sampled_4x4():
    return sample_histograms(make_synthetic_state(n_windows=4), total=10_000, seed=0)


@pytest.mark.parametrize(
    "call",
    [
        evaluate,
        lambda pos, mom: witness_significance(pos, mom, n_boot=100),
        lambda pos, mom: asymmetry_map(pos, mom, n_boot=100),
        resolution_curve,
    ],
    ids=["evaluate", "witness_significance", "asymmetry_map", "resolution_curve"],
)
@pytest.mark.parametrize(
    "order, message",
    [
        ("mom-pos", "expected a position distribution, got one on a momentum grid"),
        ("pos-pos", "expected a momentum distribution, got one on a position grid"),
        ("mom-mom", "expected a position distribution, got one on a momentum grid"),
    ],
)
def test_every_entry_point_refuses_blocks_of_the_wrong_observable(sampled_4x4, call, order, message):
    blocks = dict(zip(("pos", "mom"), sampled_4x4))
    first, second = (blocks[name] for name in order.split("-"))
    with pytest.raises(UsageError, match=f"^{message}$"):
        call(first, second)


def test_dimension_mismatch_rejected():
    pos, mom = diag_pair(4)
    with pytest.raises(DimensionMismatchError):
        evaluate([pos, pos], mom)


def test_base_rescales_margin_without_changing_sign():
    pos, mom = diag_pair(24)
    r2 = evaluate(pos, mom, base=2.0)
    re = evaluate(pos, mom, base=math.e)
    r10 = evaluate(pos, mom, base=10.0)
    assert re.margin == pytest.approx(r2.margin * math.log(2.0), rel=1e-12)
    assert r10.margin == pytest.approx(r2.margin * math.log10(2.0), rel=1e-12)
    assert (r2.violated, re.violated, r10.violated) == (True, True, True)


# -------------------------------------------------------- symmetric witness


def test_symmetric_diagonal_frozen_values():
    pos, mom = diag_pair(24)
    result = evaluate(pos, mom, Direction.SYMMETRIC)
    assert result.direction is Direction.SYMMETRIC
    assert result.lhs == pytest.approx(9.169925001442312, abs=1e-12)
    assert result.bound == pytest.approx(SYM_BOUND, abs=1e-12)
    assert result.margin == pytest.approx(5.563676453662502, abs=1e-12)
    assert result.violated


def test_symmetric_uniform_product_is_silent():
    pos, mom = uniform_pair(8)
    result = evaluate(pos, mom, Direction.SYMMETRIC)
    assert result.lhs == pytest.approx(0.0, abs=1e-12)
    assert not result.violated


def test_symmetric_bound_takes_worse_party():
    probs = np.full((4, 4), 1 / 16)
    pos_grid = GridSpec(
        Observable.POSITION, (AxisGrid(4, 1.0),), (AxisGrid(4, 1.0),)
    )
    mom_grid = GridSpec(
        Observable.MOMENTUM, (AxisGrid(4, 0.75),), (AxisGrid(4, 1.5),)
    )
    result = evaluate(
        JointDistribution(probs, pos_grid), JointDistribution(probs, mom_grid), Direction.SYMMETRIC
    )
    bound_a = math.log2(4.0 * 3.0 / PI_E)
    bound_b = math.log2(4.0 * 6.0 / PI_E)
    assert result.bound_terms == pytest.approx((bound_a, bound_b), abs=1e-12)
    assert result.bound == pytest.approx(max(bound_a, bound_b), abs=1e-12)


def test_evaluate_dispatch_by_direction_value():
    pos, mom = diag_pair(6)
    sym = evaluate(pos, mom, direction="symmetric")
    cond = evaluate(pos, mom, direction="A_given_B")
    assert sym.direction is Direction.SYMMETRIC
    assert cond.direction is Direction.A_GIVEN_B
    with pytest.raises(UsageError, match="direction must be one of"):
        evaluate(pos, mom, direction="sideways")


# ------------------------------------------------- independent-axes blocks


def two_axis_inputs():
    rng = np.random.default_rng(5)
    p1 = rng.random((3, 3))
    p1 /= p1.sum()
    p2 = rng.random((4, 4))
    p2 /= p2.sum()

    def blocks(observable, w1, w2):
        g1 = GridSpec(observable, (AxisGrid(3, w1),), (AxisGrid(3, w1),))
        g2 = GridSpec(observable, (AxisGrid(4, w2),), (AxisGrid(4, w2),))
        return [JointDistribution(p1, g1), JointDistribution(p2, g2)]

    # extents 1.8 and 1.6 against 6: each area exceeds pi*e
    pos = blocks(Observable.POSITION, 0.6, 0.4)
    mom = blocks(Observable.MOMENTUM, 2.0, 1.5)

    def full(observable, w1, w2):
        joint = np.einsum("ab,cd->acbd", p1, p2)
        grid = GridSpec(
            observable,
            (AxisGrid(3, w1), AxisGrid(4, w2)),
            (AxisGrid(3, w1), AxisGrid(4, w2)),
        )
        return JointDistribution(joint, grid)

    return pos, mom, full(Observable.POSITION, 0.6, 0.4), full(
        Observable.MOMENTUM, 2.0, 1.5
    )


def test_independent_axis_blocks_match_product_joint():
    pos_blocks, mom_blocks, pos_full, mom_full = two_axis_inputs()
    from_blocks = evaluate(pos_blocks, mom_blocks)
    from_full = evaluate(pos_full, mom_full)
    assert from_blocks.mode == "independent-axes"
    assert from_full.mode == "full-joint"
    assert from_blocks.n_dims == 2
    assert from_full.n_dims == 2
    assert from_blocks.lhs == pytest.approx(from_full.lhs, abs=1e-12)
    assert from_blocks.bound == pytest.approx(from_full.bound, abs=1e-12)
    assert len(from_blocks.bound_terms) == 2
    assert sum(from_blocks.bound_terms) == pytest.approx(
        from_blocks.bound, abs=1e-12
    )


@pytest.mark.parametrize("direction", list(Direction))
def test_blocks_of_mixed_structure_have_the_bound_of_either(direction):
    # a full-joint 2-D block beside two independent 1-D blocks pairs the
    # observables' axes dimension by dimension, not block by block
    pos_blocks, mom_blocks, pos_full, mom_full = two_axis_inputs()
    full = evaluate(pos_full, mom_full, direction)
    independent = evaluate(pos_blocks, mom_blocks, direction)
    for pos, mom in ((pos_full, mom_blocks), (pos_blocks, mom_full)):
        mixed = evaluate(pos, mom, direction)
        assert mixed.mode == "independent-axes"
        for want in (full, independent):
            assert (mixed.n_dims, mixed.bound, mixed.bound_terms) == (want.n_dims, want.bound, want.bound_terms)


def test_symmetric_blocks_match_product_joint():
    pos_blocks, mom_blocks, pos_full, mom_full = two_axis_inputs()
    from_blocks = evaluate(pos_blocks, mom_blocks, Direction.SYMMETRIC)
    from_full = evaluate(pos_full, mom_full, Direction.SYMMETRIC)
    assert from_blocks.lhs == pytest.approx(from_full.lhs, abs=1e-12)
    assert from_blocks.bound == pytest.approx(from_full.bound, abs=1e-12)


def test_more_than_two_axes_rejected():
    pos_blocks, mom_blocks, _, _ = two_axis_inputs()
    with pytest.raises(UsageError):
        evaluate(pos_blocks + pos_blocks[:1], mom_blocks + mom_blocks[:1])


# ------------------------------------------------ viewing areas at most pi*e


@pytest.fixture(scope="module")
def small_aperture():
    """A separable state sampled on L_x * L_k = 4 < pi*e: every margin is >= 1.094 bit on any data."""
    state = make_synthetic_state(
        DoubleGaussianParams(1.0, 1.0), n_windows=8, extent_x=2.0, extent_k=2.0, clip_tol=0.5
    )
    return sample_histograms(state, total=100_000, seed=0)


def _no_draw(*args, **kwargs):
    raise AssertionError("a bootstrap draw was keyed")


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize(
    "run",
    [
        lambda pos, mom, d: evaluate(pos, mom, direction=d),
        lambda pos, mom, d: witness_significance(pos, mom, direction=d, n_boot=100),
        lambda pos, mom, d: asymmetry_map(pos, mom, direction=d, n_boot=100),
        lambda pos, mom, d: resolution_curve(pos, mom, direction=d),
    ],
    ids=["evaluate", "witness_significance", "asymmetry_map", "resolution_curve"],
)
def test_a_viewing_area_below_pi_e_is_refused_before_any_draw(small_aperture, run, direction, monkeypatch):
    monkeypatch.setattr("eprsteering.bootstrap._philox_keys", _no_draw)
    with pytest.raises(NumericalError, match=r"viewing area L_x\*L_k = 4 is at most pi\*e = 8\.53973"):
        run(*small_aperture, direction)


def area_blocks(areas_a, areas_b):
    """One 3x3 block per dimension, position extent 1 for both parties, so each momentum extent is an area."""
    probs = np.random.default_rng(3).random((3, 3))
    probs /= probs.sum()

    def block(observable, extent_a, extent_b):
        grid = GridSpec(observable, (AxisGrid.centered(3, extent_a),), (AxisGrid.centered(3, extent_b),))
        return JointDistribution(probs, grid)

    pos = [block(Observable.POSITION, 1.0, 1.0) for _ in areas_a]
    mom = [block(Observable.MOMENTUM, a, b) for a, b in zip(areas_a, areas_b)]
    return pos, mom


@pytest.mark.parametrize("direction", list(Direction))
def test_a_one_dimensional_area_is_refused_up_to_pi_e(direction):
    with pytest.raises(NumericalError, match=r"pi\*e"):
        evaluate(*area_blocks([0.99 * PI_E], [0.99 * PI_E]), direction=direction)
    assert evaluate(*area_blocks([1.01 * PI_E], [1.01 * PI_E]), direction=direction).n_dims == 1


def test_the_area_rule_sums_over_dimensions():
    # B|A reads party B alone: 4 * 20 = 80 exceeds (pi*e)^2 = 72.9, 4 * 15 = 60
    # does not, whatever party A's areas (here 4 and 15)
    assert evaluate(*area_blocks([4.0, 15.0], [4.0, 20.0])).n_dims == 2
    with pytest.raises(NumericalError, match=r"party B's viewing area L_x\*L_k = 4 \* 15 is at most \(pi\*e\)\^2"):
        evaluate(*area_blocks([4.0, 15.0], [4.0, 15.0]))


@pytest.fixture(scope="module")
def full_joint_pairs():
    # the default state at 12 windows, random 4-index distributions with empty
    # cells, and diagonal ones, whose conditional entropies are exactly 0
    state = make_synthetic_state(n_windows=12)
    pairs = [(state.position, state.momentum)]
    rng = np.random.default_rng(8)

    def dist(probs, observable):
        axes = (AxisGrid(probs.shape[0], 2.0),) * (probs.ndim // 2)
        return JointDistribution(probs, GridSpec(observable, axes, axes))

    for case in range(120):
        n = int(rng.integers(2, 5))
        if case % 10 == 0:
            tensors = [np.diag(rng.random(n) + 0.1) for _ in range(2)]
        else:
            tensors = [rng.random((n,) * 4) * (rng.random((n,) * 4) > 0.3) for _ in range(2)]
        pos, mom = (dist(t / t.sum(), obs) for t, obs in zip(tensors, (Observable.POSITION, Observable.MOMENTUM)))
        pairs.append((pos, mom))
    return pairs


@pytest.mark.parametrize("base", [2.0, math.e, 10.0])
@pytest.mark.parametrize("direction", list(Direction))
def test_the_kernel_gives_the_entropy_functions_sums_bit_for_bit(full_joint_pairs, direction, base):
    # one expression scores every direction; on single full-joint blocks its
    # left-hand side is the public functions' sum, a zero conditional entropy
    # included: .hex() tells +0.0 from -0.0
    for pos, mom in full_joint_pairs:
        if direction is Direction.SYMMETRIC:
            want = mutual_information(pos, base) + mutual_information(mom, base)
        else:
            given = "A" if direction is Direction.B_GIVEN_A else "B"
            want = conditional_entropy(pos, given, base) + conditional_entropy(mom, given, base)
        assert evaluate(pos, mom, direction, base).lhs.hex() == want.hex()
