"""End-to-end acceptance checks, one test per shipped guarantee.

Each test stamps a criterion label and a one-line detail; conftest turns
those into the PASS/FAIL summary block at the end of the run.
"""

import math
import time

import numpy as np
import pytest

from eprsteering import (
    AxisGrid,
    Direction,
    DoubleGaussianParams,
    GridSpec,
    Observable,
    SteeringError,
    conditional_entropy,
    connection_check,
    continuous_conditional_entropy,
    downsample,
    entropy,
    evaluate,
    make_synthetic_state,
    min_resolution,
    mutual_information,
    per_dim_bound,
    sample_histograms,
    witness_significance,
)
from eprsteering.cli import main
from eprsteering.entropy import ZERO_FLOOR, _plogp
from eprsteering.spdc import (
    _cell_nodes,
    discretize_state,
    momentum_covariance,
    position_covariance,
)
from eprsteering.witness import PI_E
from oracles import CorrelatedSeparable, correlated_separable_state

EXTENT_X = 1.04e-3
EXTENT_K = 1.00e5
DIVISORS_24 = (2, 3, 4, 6, 8, 12, 24)


@pytest.fixture(scope="module")
def default_run():
    state = make_synthetic_state()
    pos, mom = sample_histograms(state, seed=0)
    return state, pos, mom


def random_joint(rng, max_side=64):
    shape = (int(rng.integers(2, max_side + 1)), int(rng.integers(2, max_side + 1)))
    arr = rng.random(shape)
    arr[rng.random(shape) < 0.2] = 0.0
    total = arr.sum()
    if total == 0.0:
        arr[0, 0] = 1.0
        total = 1.0
    return arr / total


def test_1_entropy_identities(record_criterion):
    record_criterion("criterion", "entropy identities on 1000 random joints")
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p = random_joint(rng)
        h_joint = entropy(p)
        h_a = entropy(p.sum(axis=1))
        h_b = entropy(p.sum(axis=0))
        h_b_given_a = conditional_entropy(p, given="A")
        h_a_given_b = conditional_entropy(p, given="B")
        mi = mutual_information(p)
        residuals = (
            h_joint - h_a - h_b_given_a,              # chain rule via A
            h_joint - h_b - h_a_given_b,              # chain rule via B
            h_b_given_a - (h_a_given_b + h_b - h_a),  # conditioning swap
            mi - (h_b - h_b_given_a),
        )
        worst = max(worst, max(abs(r) for r in residuals))
        assert mi >= -1e-12
        assert h_b_given_a <= h_b + 1e-12
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 10.0
    record_criterion(
        "detail", f"worst identity residual {worst:.2e}, {elapsed:.1f}s for 1000 joints"
    )


def _window_residual(pdf, axis):
    """Largest per-window |Gauss-Legendre - adaptive quad| of integral -p log p, nats."""
    from scipy.integrate import quad

    def neg_plogp(t):
        p = float(pdf(np.asarray([t]))[0])
        return -p * math.log(p) if p > ZERO_FLOOR else 0.0

    x, w = _cell_nodes(axis.edges())
    rule = -(_plogp(np.asarray(pdf(x), dtype=np.float64)) * w).sum(axis=1)
    edges = axis.edges().tolist()
    direct = [
        quad(neg_plogp, lo, hi, limit=500, epsabs=1e-11, epsrel=1e-11)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    return float(np.abs(rule - direct).max())


def test_2_continuum_connection(record_criterion):
    record_criterion("criterion", "binned/differential entropy connection identity")

    def uniform(x):
        return np.where(np.abs(x) <= 1.0, 0.5, 0.0)

    def bimodal(x):
        s = 0.5
        lobe = lambda c: np.exp(-((x - c) ** 2) / (2 * s**2)) / (
            s * math.sqrt(2 * math.pi)
        )
        return 0.5 * (lobe(-2.0) + lobe(2.0))

    # Gaussians against their closed form, the rest against adaptive quad
    # window by window; the uniform's jumps sit on window edges
    cases = [(16 * sigma, lambda axis, s=sigma: connection_check(s, axis)) for sigma in (0.3, 1.0, 3.0)]
    cases.append((2.0, lambda axis: _window_residual(uniform, axis)))
    cases.append((12.0, lambda axis: _window_residual(bimodal, axis)))

    start = time.perf_counter()
    worst = 0.0
    for support, residual_of in cases:
        for width in (0.1, 0.5, 1.0):
            n = max(2, math.ceil(support / width))
            axis = AxisGrid.centered(n, n * width)
            residual = residual_of(axis)
            worst = max(worst, residual)
            assert residual < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    record_criterion(
        "detail", f"worst residual {worst:.2e} over 15 density/window cases, {elapsed:.1f}s"
    )


def test_3_binned_entropy_dominates_differential(record_criterion):
    record_criterion(
        "criterion", "H(X_B|X_A) + log(dx) upper-bounds h(x_B|x_A), 50 states"
    )
    ratios = np.geomspace(1.0, 100.0, 50)
    worst_slack = math.inf
    for ratio in ratios:
        params = DoubleGaussianParams(1.0, 1.0 / ratio)
        h_cont = continuous_conditional_entropy(
            params, Observable.POSITION, base=math.e
        )
        extent = 12.0 * math.sqrt(position_covariance(params)[0])
        for n in (4, 8, 16, 24):
            ax = AxisGrid.centered(n, extent)
            grid = GridSpec(Observable.POSITION, (ax,), (ax,))
            dist, _ = discretize_state(params, grid)
            h_disc = conditional_entropy(dist, given="A", base=math.e)
            slack = h_disc + math.log(extent / n) - h_cont
            worst_slack = min(worst_slack, slack)
            assert slack >= -1e-6
    record_criterion("detail", f"min slack {worst_slack:.3e} nats over 200 grids")


def test_4_resolution_cutoff(record_criterion):
    record_criterion("criterion", "minimum feasible resolution on default extents")
    n = min_resolution(EXTENT_X, EXTENT_K)
    assert n == 4
    assert per_dim_bound(EXTENT_X / 4, EXTENT_K / 4) > 0.0
    assert per_dim_bound(EXTENT_X / 3, EXTENT_K / 3) < 0.0
    record_criterion(
        "detail",
        f"min_resolution=4; bound at 4x4 {per_dim_bound(EXTENT_X / 4, EXTENT_K / 4):+.3f} bit, "
        f"at 3x3 {per_dim_bound(EXTENT_X / 3, EXTENT_K / 3):+.3f} bit",
    )


def test_5_default_synthetic_pattern(record_criterion, default_run):
    record_criterion(
        "criterion", "default synthetic counts reproduce the qualitative pattern"
    )
    state, pos, mom = default_run
    assert pos.total >= 1_000_000 and mom.total >= 1_000_000
    start = time.perf_counter()

    cond_fine = witness_significance(pos, mom, n_boot=1000, seed=0)
    assert cond_fine.significance > 3.0

    pos3, mom3 = downsample(pos, 8, 8), downsample(mom, 8, 8)
    cond_coarse = evaluate(pos3.normalize(), mom3.normalize())
    assert cond_coarse.margin < 0.0

    pos8, mom8 = downsample(pos, 3, 3), downsample(mom, 3, 3)
    sym_mid = evaluate(pos8.normalize(), mom8.normalize(), direction="symmetric")
    assert not sym_mid.violated

    sym_fine = witness_significance(
        pos, mom, direction=Direction.SYMMETRIC, n_boot=1000, seed=0
    )
    assert sym_fine.margin_mean > 0.0
    assert sym_fine.significance > 3.0

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    record_criterion(
        "detail",
        f"B|A at 24x24 {cond_fine.significance:+.0f} sigma, margin at 3x3 "
        f"{cond_coarse.margin:+.2f} bit; symmetric at 8x8 {sym_mid.margin:+.2f} bit, "
        f"at 24x24 {sym_fine.significance:+.0f} sigma; {elapsed:.0f}s",
    )


def test_6_separable_states_never_fire(record_criterion):
    record_criterion("criterion", "null test: 100 separable states, 3-sigma threshold")
    rng = np.random.default_rng(20260815)
    max_sig = -math.inf
    for draw in range(100):
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        z_x, z_k = rng.uniform(5.2, 8.0, size=2)
        params = DoubleGaussianParams(scale, scale)
        extent_x = 2.0 * z_x * math.sqrt(position_covariance(params)[0])
        extent_k = 2.0 * z_k * math.sqrt(momentum_covariance(params)[0])
        state = make_synthetic_state(
            params, extent_x=extent_x, extent_k=extent_k, clip_tol=1e-6
        )
        pos, mom = sample_histograms(state, total=1_000_000, seed=draw)
        for r in DIVISORS_24:
            f = 24 // r
            pos_r, mom_r = downsample(pos, f, f), downsample(mom, f, f)
            for tag, direction in ((0, Direction.B_GIVEN_A), (1, Direction.SYMMETRIC)):
                report = witness_significance(
                    pos_r, mom_r, direction=direction, n_boot=200, seed=[draw, r, tag]
                )
                max_sig = max(max_sig, report.significance)
                assert report.significance < 3.0
    record_criterion(
        "detail",
        f"max significance {max_sig:+.1f} sigma over 1400 witness evaluations; "
        "0 false positives",
    )


def test_7_downsampling_never_creates_information(record_criterion):
    record_criterion("criterion", "coarse-graining cannot increase mutual information")
    rng = np.random.default_rng(7)
    worst = -math.inf
    for _ in range(500):
        n_a = 2 * int(rng.integers(1, 17))
        n_b = 2 * int(rng.integers(1, 17))
        arr = rng.random((n_a, n_b))
        arr[rng.random((n_a, n_b)) < 0.3] = 0.0
        if arr.sum() == 0.0:
            arr[0, 0] = 1.0
        probs = arr / arr.sum()
        grid = GridSpec(
            Observable.POSITION, (AxisGrid(n_a, 1.0),), (AxisGrid(n_b, 1.0),)
        )
        from eprsteering import JointDistribution

        dist = JointDistribution(probs, grid)
        gain = mutual_information(downsample(dist, 2, 2)) - mutual_information(dist)
        worst = max(worst, gain)
        assert gain <= 1e-12
    record_criterion("detail", f"max information gain {worst:.2e} bit over 500 joints")


def test_8_map_runs_are_byte_identical(record_criterion, tmp_path):
    record_criterion("criterion", "identical config and seed give byte-identical maps")
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = main(
            [
                "map",
                "--synthetic",
                "--res-a", "3,8,24",
                "--res-b", "3,8,24",
                "--boot", "200",
                "--seed", "0",
                "--output", str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    rows = len([l for l in outputs[0].splitlines() if l and not l.startswith(b"#")])
    record_criterion("detail", f"two runs, {len(outputs[0])} bytes, {rows - 1} cells each")


def test_9_violation_decisions_are_base_invariant(record_criterion, default_run):
    record_criterion("criterion", "margin signs agree across log bases 2, e, 10")
    _, pos, mom = default_run
    checked = 0
    for r in DIVISORS_24:
        f = 24 // r
        pos_r = downsample(pos, f, f).normalize()
        mom_r = downsample(mom, f, f).normalize()
        for direction in (Direction.B_GIVEN_A, Direction.A_GIVEN_B, Direction.SYMMETRIC):
            signs = {
                np.sign(evaluate(pos_r, mom_r, direction=direction, base=b).margin)
                for b in (2.0, math.e, 10.0)
            }
            assert len(signs) == 1
            checked += 1
    record_criterion("detail", f"{checked} direction/resolution decisions, all sign-stable")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the plug-in bootstrap certifies separable states at sparse counts",
)
def test_10_sparse_separable_states_never_fire(record_criterion):
    record_criterion("criterion", "sparse null test: separable state, 24x24, B|A, 100 to 5e3 events")
    state = make_synthetic_state(DoubleGaussianParams(1.0, 1.0), extent_x=8.0, extent_k=8.0)
    significances = []
    for total in (100, 1_000, 5_000):
        for seed in range(5):
            pos, mom = sample_histograms(state, total=total, seed=seed)
            report = witness_significance(pos, mom, n_boot=200, seed=seed)
            significances.append(report.significance)
    record_criterion("detail", f"max significance {max(significances):+.1f} sigma over 15 runs")
    assert max(significances) < 3.0


@pytest.fixture(scope="module")
def boundary_null():
    """ROADMAP item 13's boundary null: a B|A margin just below zero, so no run may certify it."""
    return make_synthetic_state(
        DoubleGaussianParams(1.0, 0.835579), n_windows=24, extent_x=8.0, extent_k=8.0, clip_tol=0.1
    )


def test_boundary_null_margin_is_just_below_zero(boundary_null, record_criterion):
    record_criterion("criterion", "boundary null state: exact B|A margin -0.005 bit")
    margin = evaluate(boundary_null.position, boundary_null.momentum).margin
    record_criterion("detail", f"margin {margin:+.8f} bit")
    assert margin == pytest.approx(-0.005, abs=1e-6)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the plug-in bootstrap certifies a state whose exact margin is -0.005 bit",
)
def test_11_boundary_null_never_fires(boundary_null, record_criterion):
    record_criterion("criterion", "boundary null test: exact margin -0.005 bit, 24x24, B|A, 300 and 1e3 events")
    significances = []
    for total in (300, 1_000):
        for seed in range(10):
            pos, mom = sample_histograms(boundary_null, total=total, seed=seed)
            report = witness_significance(pos, mom, n_boot=200, seed=seed)
            significances.append(report.significance)
    record_criterion("detail", f"max significance {max(significances):+.1f} sigma over 20 runs")
    assert max(significances) < 3.0


@pytest.fixture(scope="module")
def symmetric_boundary_null():
    """ROADMAP item 13's symmetric boundary null: viewing area 1.2*pi*e, a symmetric margin just below zero."""
    return make_synthetic_state(
        DoubleGaussianParams(1.0, 0.5996144), n_windows=24, extent_x=2.5, extent_k=1.2 * PI_E / 2.5, clip_tol=0.1
    )


def test_symmetric_boundary_null_margin_is_just_below_zero(symmetric_boundary_null, record_criterion):
    record_criterion("criterion", "symmetric boundary null state: exact symmetric margin -0.005 bit")
    state = symmetric_boundary_null
    margin = evaluate(state.position, state.momentum, direction=Direction.SYMMETRIC).margin
    record_criterion("detail", f"margin {margin:+.8f} bit")
    assert margin == pytest.approx(-0.005, abs=1e-6)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the plug-in bootstrap certifies a state whose exact symmetric margin is -0.005 bit",
)
def test_13_symmetric_boundary_null_never_fires(symmetric_boundary_null, record_criterion):
    record_criterion(
        "criterion", "symmetric boundary null test: exact margin -0.005 bit, 24x24, 300 and 1e3 events"
    )
    significances = []
    for total in (300, 1_000):
        for seed in range(10):
            pos, mom = sample_histograms(symmetric_boundary_null, total=total, seed=seed)
            report = witness_significance(pos, mom, direction=Direction.SYMMETRIC, n_boot=200, seed=seed)
            significances.append(report.significance)
    record_criterion("detail", f"max significance {max(significances):+.1f} sigma over 20 runs")
    assert max(significances) < 3.0


def _unclipped_separable(family, sds, **kwargs):
    """``family`` with every axis ``sds`` of its party's standard deviations wide."""
    extents_x, extents_k = (
        tuple(sds * sd for sd in family.sds(obs)) for obs in (Observable.POSITION, Observable.MOMENTUM)
    )
    return correlated_separable_state(family, extents_x, extents_k, **kwargs)


#: ROADMAP item 22's unclipped correlated separable states, each with its exact B|A margin in bits and the
#: mass clipped from each observable.
UNCLIPPED_SEPARABLE = {
    "D=0.5": (lambda: _unclipped_separable(CorrelatedSeparable(a=0.05, spread=0.5, b=1.0), 12.0), -0.0387, 3.9e-9),
    "D=1": (
        lambda: _unclipped_separable(CorrelatedSeparable(a=0.05, spread=1.0, b=1.0), 10.0, tail_tol=1e-3),
        -0.0425,
        1.1e-6,
    ),
}


@pytest.fixture(scope="module")
def correlated_separable_nulls():
    """Each of ``UNCLIPPED_SEPARABLE``'s states: a=0.05, b=1, D=0.5 at 12 sds per axis, D=1 at 10 sds."""
    return {name: make() for name, (make, _, _) in UNCLIPPED_SEPARABLE.items()}


@pytest.fixture(scope="module")
def clipped_separable_state():
    """ROADMAP item 22's clipped state: a=0.1, D=3, b=1, position extent 12, momentum 8 of each party's sds."""
    family = CorrelatedSeparable(a=0.1, spread=3.0, b=1.0)
    extents_k = tuple(8.0 * sd for sd in family.sds(Observable.MOMENTUM))
    return correlated_separable_state(family, (12.0, 12.0), extents_k, tail_tol=0.1)


def test_correlated_separable_states_are_pinned(correlated_separable_nulls, clipped_separable_state, record_criterion):
    # windowing only coarse-grains an unclipped state, so its exact margin
    # sits below the continuum's; renormalizing inside a clipping aperture
    # lifts the clipped one above zero, though the state steers in no direction
    record_criterion(
        "criterion", "correlated separable states: unclipped -0.0387 and -0.0425 bit, clipped +0.0129 bit"
    )
    clipped = clipped_separable_state
    margins = {name: evaluate(s.position, s.momentum).margin for name, s in correlated_separable_nulls.items()}
    clipped_margin = evaluate(clipped.position, clipped.momentum).margin
    unclipped = "; ".join(f"{name} {margin:+.6f} bit" for name, margin in margins.items())
    record_criterion(
        "detail",
        f"unclipped {unclipped}; clipped {clipped_margin:+.6f} bit at {clipped.clipped_position:.4f} "
        "position mass clipped",
    )
    for name, (_, margin, clipped_mass) in UNCLIPPED_SEPARABLE.items():
        state = correlated_separable_nulls[name]
        assert (state.clipped_position, state.clipped_momentum) == pytest.approx((clipped_mass, clipped_mass), rel=0.05)
        assert margins[name] == pytest.approx(margin, abs=5e-5)
        assert margins[name] < state.params.continuum_margin() < 0.0
    assert clipped.clipped_position == pytest.approx(0.0677, abs=5e-5)
    assert clipped_margin == pytest.approx(0.0129, abs=5e-5)
    assert clipped.params.continuum_margin() < 0.0 < clipped_margin


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the plug-in bootstrap certifies a correlated separable state at sparse counts",
)
@pytest.mark.parametrize("name", sorted(UNCLIPPED_SEPARABLE))
def test_14_correlated_separable_state_never_fires(correlated_separable_nulls, name, record_criterion):
    record_criterion(
        "criterion",
        f"correlated separable null test ({name}): exact margin {UNCLIPPED_SEPARABLE[name][1]:+.4f} bit, 24x24, B|A, "
        "100 to 1e3 events",
    )
    significances = []
    for total in (100, 300, 1_000):
        for seed in range(20):
            pos, mom = sample_histograms(correlated_separable_nulls[name], total=total, seed=seed)
            report = witness_significance(pos, mom, n_boot=200, seed=seed)
            significances.append(report.significance)
    record_criterion("detail", f"max significance {max(significances):+.1f} sigma over 60 runs")
    assert max(significances) < 3.0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 22: renormalizing inside a clipping aperture gives a separable state a positive margin",
)
def test_15_clipped_separable_state_never_fires(clipped_separable_state, record_criterion):
    record_criterion(
        "criterion", "clipped separable null test: 6.8% of position clipped, 24x24, B|A, 2e6 events"
    )
    significances = []
    for seed in range(15):
        pos, mom = sample_histograms(clipped_separable_state, total=2_000_000, seed=seed)
        report = witness_significance(pos, mom, n_boot=200, seed=seed)
        significances.append(report.significance)
    record_criterion("detail", f"max significance {max(significances):+.1f} sigma over 15 runs")
    assert max(significances) < 3.0


def _certifies(run) -> bool:
    """Whether ``run()`` certifies steering; a refusal (any ``SteeringError``) certifies nothing."""
    try:
        return run()
    except SteeringError:
        return False


def test_12_small_viewing_areas_never_certify(record_criterion):
    # L_x * L_k = 4 < pi*e: the conditional margin is at least log(pi*e/4) =
    # 1.094 bit on any data, and so is the symmetric one once both parties'
    # areas are below pi*e; the state is separable, so no run may certify it
    record_criterion("criterion", "small-aperture null test: separable state, 8x8, L_x*L_k = 4 < pi*e, 1e5 events")

    def state():
        return make_synthetic_state(
            DoubleGaussianParams(1.0, 1.0), n_windows=8, extent_x=2.0, extent_k=2.0, clip_tol=0.5
        )

    def exact(direction):
        s = state()
        return evaluate(s.position, s.momentum, direction=direction).violated

    def sampled(direction):
        pos, mom = sample_histograms(state(), total=100_000, seed=0)
        return witness_significance(pos, mom, direction=direction, n_boot=200, seed=0).significance >= 3.0

    fired = [
        f"{direction.value} {run.__name__}"
        for direction in Direction
        for run in (exact, sampled)
        if _certifies(lambda: run(direction))
    ]
    record_criterion("detail", f"{len(fired)} of 6 runs certified: {', '.join(fired) or 'none'}")
    assert not fired
