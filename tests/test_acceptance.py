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
from eprsteering.spdc import (
    discretize_state,
    momentum_covariance,
    position_covariance,
)

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
        h_joint = float(entropy(p))
        h_a = float(entropy(p.sum(axis=1)))
        h_b = float(entropy(p.sum(axis=0)))
        h_b_given_a = float(conditional_entropy(p, given="A"))
        h_a_given_b = float(conditional_entropy(p, given="B"))
        mi = float(mutual_information(p))
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


def test_2_continuum_connection(record_criterion):
    record_criterion("criterion", "binned/differential entropy connection identity")

    def gaussian(sigma):
        return lambda x: np.exp(-(x**2) / (2 * sigma**2)) / (
            sigma * math.sqrt(2 * math.pi)
        )

    def uniform(x):
        return np.where(np.abs(x) <= 1.0, 0.5, 0.0)

    def bimodal(x):
        s = 0.5
        lobe = lambda c: np.exp(-((x - c) ** 2) / (2 * s**2)) / (
            s * math.sqrt(2 * math.pi)
        )
        return 0.5 * (lobe(-2.0) + lobe(2.0))

    cases = []
    for sigma in (0.3, 1.0, 3.0):
        cases.append((gaussian(sigma), 16 * sigma, None))
    cases.append((uniform, 2.0, (-1.0, 1.0)))
    cases.append((bimodal, 12.0, None))

    start = time.perf_counter()
    worst = 0.0
    for pdf, support, points in cases:
        for width in (0.1, 0.5, 1.0):
            n = max(2, math.ceil(support / width))
            axis = AxisGrid.centered(n, n * width)
            residual = abs(connection_check(pdf, axis, points=points))
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
            h_disc = float(conditional_entropy(dist, given="A", base=math.e))
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
        gain = float(mutual_information(downsample(dist, 2, 2))) - float(
            mutual_information(dist)
        )
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
