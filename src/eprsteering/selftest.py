"""Built-in consistency battery.

Runs a battery of named checks covering the identities the package is built
on: entropy algebra, coarse-graining monotonicity, the continuum bridges,
bound arithmetic, bootstrap determinism, and file round-trips.  Every check
is deterministic.  The CLI prints one PASS/FAIL line per check.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bootstrap import _check_seed, witness_significance
from .coarse import downsample
from .entropy import conditional_entropy, entropy, mutual_information
from .grids import AxisGrid, GridSpec, Histogram, JointDistribution, Observable
from .io import load_histogram, save_histogram
from .spdc import (
    DEFAULT_RESOLUTION,
    DoubleGaussianParams,
    connection_check,
    continuous_margin,
    discretize_state,
    make_synthetic_state,
    momentum_covariance,
    position_covariance,
    sample_histograms,
    viewing_grid,
)
from .witness import PI_E, conditional_witness, min_resolution, per_dim_bound, symmetric_witness

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _random_dist(rng: np.random.Generator, max_side: int = 32) -> np.ndarray:
    shape = (int(rng.integers(2, max_side + 1)), int(rng.integers(2, max_side + 1)))
    p = rng.exponential(size=shape)
    p[rng.random(shape) < 0.3] = 0.0
    if p.sum() == 0.0:
        p[0, 0] = 1.0
    return p / p.sum()


def _check_entropy_identities(rng: np.random.Generator) -> str:
    worst = 0.0
    for _ in range(200):
        p = _random_dist(rng)
        h_ab = entropy(p, base=math.e).value
        h_a = entropy(p.sum(axis=1), base=math.e).value
        h_b = entropy(p.sum(axis=0), base=math.e).value
        h_b_a = conditional_entropy(p, given="A", base=math.e).value
        h_a_b = conditional_entropy(p, given="B", base=math.e).value
        mi = mutual_information(p, base=math.e).value
        residuals = [
            abs(h_a + h_b_a - h_ab),
            abs(h_b + h_a_b - h_ab),
            abs(mi - (h_b - h_b_a)),
            abs(mi - (h_a - h_a_b)),
            max(0.0, -mi),
            max(0.0, h_b_a - h_b),
        ]
        worst = max(worst, *residuals)
    _require(worst <= 1e-12, f"identity residual {worst:.3e} exceeds 1e-12")
    return f"200 random distributions, worst residual {worst:.2e}"


def _check_uniform_maximum(rng: np.random.Generator) -> str:
    worst = 0.0
    for n in (3, 7, 16):
        uniform = np.full((n, n), 1.0 / n**2)
        h_u = entropy(uniform, base=2.0).value
        _require(abs(h_u - 2 * math.log2(n)) <= 1e-12, f"uniform {n}x{n} entropy {h_u}")
        for _ in range(20):
            p = _random_dist(rng, max_side=n)
            pad = np.zeros((n, n))
            pad[: p.shape[0], : p.shape[1]] = p
            excess = entropy(pad, base=2.0).value - h_u
            worst = max(worst, excess)
    _require(worst <= 1e-12, f"entropy exceeded the uniform maximum by {worst:.3e}")
    return f"uniform maximal on 3/7/16-window grids (max excess {worst:.2e})"


def _check_base_rebasing(rng: np.random.Generator) -> str:
    p = _random_dist(rng)
    bits = entropy(p, base=2.0)
    back = bits.rebase(math.e).rebase(10.0).rebase(2.0)
    _require(abs(back.value - bits.value) <= 1e-12, "rebase round trip drifted")
    direct = entropy(p, base=math.e)
    _require(
        abs(direct.value - bits.rebase(math.e).value) <= 1e-12,
        "rebase disagrees with direct evaluation",
    )
    return "bit → nat → hartley → bit round trip exact to 1e-12"


# Half-swapped two-window pair: H(A,B), H(B|A), I(A;B) in bits.
_FROZEN_2X2 = {
    "joint": 1.811278124459133,
    "conditional": 0.811278124459133,
    "mutual": 0.188721875540867,
}


def _check_frozen_values(_: np.random.Generator) -> str:
    p = np.array([[0.375, 0.125], [0.125, 0.375]])
    vals = {
        "joint": entropy(p, base=2.0).value,
        "conditional": conditional_entropy(p, given="A", base=2.0).value,
        "mutual": mutual_information(p, base=2.0).value,
    }
    for key, expect in _FROZEN_2X2.items():
        _require(abs(vals[key] - expect) <= 1e-12, f"{key}: {vals[key]!r} != {expect!r}")
    return "textbook two-window values reproduced to 1e-12"


def _toy_grid(n: int, observable: Observable = Observable.POSITION) -> GridSpec:
    ax = AxisGrid.centered(n, 1.0)
    return GridSpec(observable=observable, axes_a=(ax,), axes_b=(ax,))


def _check_downsample(rng: np.random.Generator) -> str:
    worst = -np.inf
    grid = _toy_grid(12)
    for _ in range(50):
        p = rng.exponential(size=(12, 12))
        p /= p.sum()
        dist = JointDistribution(probs=p, grid=grid)
        mi_fine = mutual_information(dist, base=math.e).value
        mi_coarse = mutual_information(
            downsample(dist, 2, 2), base=math.e
        ).value
        worst = max(worst, mi_coarse - mi_fine)
    _require(worst <= 1e-12, f"coarse-graining raised mutual information by {worst:.3e}")
    return f"mutual information never rose under 2x2 merging (max rise {worst:.2e})"


def _check_count_scaling(rng: np.random.Generator) -> str:
    grid = _toy_grid(8)
    counts = rng.integers(0, 500, size=(8, 8))
    h1 = Histogram(counts=counts, grid=grid).normalize()
    h7 = Histogram(counts=counts * 7, grid=grid).normalize()
    _require(np.array_equal(h1.probs, h7.probs), "scaling all counts by 7 changed frequencies")
    return "frequencies invariant under scaling counts by 7 (bit-exact)"


def _check_connection(_: np.random.Generator) -> str:
    gauss = AxisGrid.centered(32, 16.0)
    res_g = connection_check(
        lambda x: np.exp(-(x**2) / 2) / math.sqrt(2 * math.pi), gauss
    )
    flat = AxisGrid.centered(4, 2.0)
    res_u = connection_check(lambda x: np.where(np.abs(x) <= 1.0, 0.5, 0.0), flat)
    _require(res_g < 1e-6, f"gaussian residual {res_g:.3e}")
    _require(res_u < 1e-9, f"uniform residual {res_u:.3e}")
    return (
        "per-cell -p log p quadrature matches adaptive quad "
        f"(gaussian {res_g:.1e}, uniform {res_u:.1e})"
    )


def _check_continuum_dominates(_: np.random.Generator) -> str:
    worst = -np.inf
    for sp, sm in ((1.0, 1.0), (1.0, 0.25), (2.0, 0.1)):
        params = DoubleGaussianParams(sp, sm)
        cont = continuous_margin(params, base=2.0)
        var_x, _, _ = position_covariance(params)
        var_k, _, _ = momentum_covariance(params)
        for n in (6, 16):
            pos_grid = viewing_grid(Observable.POSITION, n, 12.0 * math.sqrt(var_x))
            mom_grid = viewing_grid(Observable.MOMENTUM, n, 12.0 * math.sqrt(var_k))
            pos, _ = discretize_state(params, pos_grid)
            mom, _ = discretize_state(params, mom_grid)
            res = conditional_witness(pos, mom, base=2.0)
            worst = max(worst, res.margin - cont)
    _require(worst <= 1e-6, f"discrete margin exceeded the continuous one by {worst:.3e}")
    return f"windowed margins never beat the continuous margin (max excess {worst:.2e})"


def _check_coarse_window_guard(rng: np.random.Generator) -> str:
    # With window products at or above pi*e the conditional bound is <= 0,
    # so no histogram whatsoever can fire the witness.
    bound = per_dim_bound(PI_E, 1.0)
    _require(bound <= 0.0, f"bound {bound} positive at the pi*e product")
    ax = AxisGrid.centered(6, 6 * 2.0)
    pos_grid = GridSpec(observable=Observable.POSITION, axes_a=(ax,), axes_b=(ax,))
    kax = AxisGrid.centered(6, 6 * PI_E / 2.0)
    mom_grid = GridSpec(observable=Observable.MOMENTUM, axes_a=(kax,), axes_b=(kax,))
    worst = -np.inf
    for _ in range(20):
        pos = JointDistribution(probs=_exp_dist(rng, 6), grid=pos_grid)
        mom = JointDistribution(probs=_exp_dist(rng, 6), grid=mom_grid)
        worst = max(worst, conditional_witness(pos, mom).margin)
    _require(worst <= 0.0, f"witness fired on unresolvable windows (margin {worst:.3e})")
    return f"no firing possible at window products >= pi*e (max margin {worst:.2f})"


def _exp_dist(rng: np.random.Generator, n: int) -> np.ndarray:
    p = rng.exponential(size=(n, n))
    return p / p.sum()


def _check_min_resolution(_: np.random.Generator) -> str:
    cases = {
        (1.04e-3, 1.00e5): 4,
        (PI_E, 1.0): 2,
        (0.1, 1.0): 1,
    }
    for (lx, lk), expect in cases.items():
        got = min_resolution(lx, lk)
        _require(got == expect, f"min_resolution({lx}, {lk}) = {got}, expected {expect}")
        _require(
            per_dim_bound(lx / got, lk / got) > 0.0,
            f"bound not positive at the claimed minimum {got}",
        )
        if got > 1:
            _require(
                per_dim_bound(lx / (got - 1), lk / (got - 1)) <= 0.0,
                f"bound already positive one step below {got}",
            )
    return "window-count thresholds correct on all three reference areas"


def _check_bootstrap_determinism(_: np.random.Generator) -> str:
    state = make_synthetic_state(n_windows=8)
    pos, mom = sample_histograms(state, total=1e5, seed=42)
    rep1 = witness_significance(pos, mom, n_boot=100, seed=7)
    rep2 = witness_significance(pos, mom, n_boot=100, seed=7)
    _require(rep1 == rep2, "same seed produced different bootstrap reports")
    rep_nats = witness_significance(pos, mom, n_boot=100, seed=7, base=math.e)
    rel = abs(rep_nats.significance - rep1.significance) / abs(rep1.significance)
    _require(rel <= 1e-9, f"significance changed with log base (rel {rel:.3e})")
    return f"replay bit-exact; significance base-independent (rel {rel:.1e})"


# Point margins of the default synthetic state, frozen from the calibration
# prototype (independent implementation); bits.
_EXPECTED_DEFAULT_MARGINS = {
    ("conditional", 24): 2.164,
    ("conditional", 3): -1.188,
    ("symmetric", 24): 1.104,
    ("symmetric", 8): -0.291,
}


def _check_default_state(_: np.random.Generator) -> str:
    state = make_synthetic_state()
    details = []
    for (kind, res), expect in _EXPECTED_DEFAULT_MARGINS.items():
        f = DEFAULT_RESOLUTION // res
        pos = downsample(state.position, f, f)
        mom = downsample(state.momentum, f, f)
        if kind == "conditional":
            got = conditional_witness(pos, mom).margin
        else:
            got = symmetric_witness(pos, mom).margin
        _require(
            abs(got - expect) <= 5e-3,
            f"{kind}@{res}: margin {got:.4f} drifted from calibration {expect}",
        )
        details.append(f"{kind[:4]}@{res}={got:+.3f}")
    return "default-state margins match calibration: " + " ".join(details)


def _check_file_roundtrip(_: np.random.Generator) -> str:
    state = make_synthetic_state(n_windows=6)
    pos, mom = sample_histograms(state, total=5e4, seed=3)
    before = conditional_witness(pos.normalize(), mom.normalize())
    with tempfile.TemporaryDirectory() as tmp:
        save_histogram(pos, Path(tmp) / "position.csv")
        save_histogram(mom, Path(tmp) / "momentum.csv")
        pos2 = load_histogram(Path(tmp) / "position.csv")
        mom2 = load_histogram(Path(tmp) / "momentum.csv")
    _require(np.array_equal(pos.counts.counts, pos2.counts.counts), "counts changed")
    _require(pos.grid == pos2.grid and mom.grid == mom2.grid, "grids changed")
    after = conditional_witness(pos2.normalize(), mom2.normalize())
    _require(before == after, "witness result changed across the file round trip")
    return "save → load → re-evaluate is bit-exact"


_CHECKS = [
    ("entropy-identities", _check_entropy_identities),
    ("uniform-maximum", _check_uniform_maximum),
    ("base-rebasing", _check_base_rebasing),
    ("frozen-textbook-values", _check_frozen_values),
    ("downsample-data-processing", _check_downsample),
    ("count-scaling-invariance", _check_count_scaling),
    ("continuum-connection", _check_connection),
    ("continuum-dominates-windowed", _check_continuum_dominates),
    ("coarse-window-guard", _check_coarse_window_guard),
    ("min-resolution-thresholds", _check_min_resolution),
    ("bootstrap-determinism", _check_bootstrap_determinism),
    ("default-state-margins", _check_default_state),
    ("file-roundtrip", _check_file_roundtrip),
]


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every check with a fresh deterministic generator."""
    seed = _check_seed(seed)
    results = []
    for index, (name, fn) in enumerate(_CHECKS):
        rng = np.random.default_rng([seed, index])
        try:
            detail = fn(rng)
            results.append(CheckResult(name=name, passed=True, detail=detail))
        except Exception as exc:  # a failing check must not stop the battery
            results.append(
                CheckResult(name=name, passed=False, detail=f"{type(exc).__name__}: {exc}")
            )
    return results
