"""Built-in install check.

Runs named checks whose outcome depends on the installed numerics and file
I/O: frozen textbook entropy values, the Gauss-Legendre rule against the
closed-form Gaussian window entropy, windowed margins below the continuous
one, the three numpy facts the bootstrap's stream contract rests on,
bootstrap replay, the default-state margins, and file round trips.  The
algebra behind them is proved by the test suite; this battery checks that an
install reproduces it.  Every check is deterministic given its seed.  The CLI
prints one PASS/FAIL line per check.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bootstrap import _check_seed, _draw, _philox_keys, replicate_rng
from .bootstrap import witness_significance
from .coarse import downsample
from .entropy import conditional_entropy, entropy, mutual_information
from .grids import AxisGrid, Observable
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
from .witness import Direction, evaluate

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


# Half-swapped two-window pair: H(A,B), H(B|A), I(A;B) in bits.
_FROZEN_2X2 = {
    "joint": 1.811278124459133,
    "conditional": 0.811278124459133,
    "mutual": 0.188721875540867,
}


def _check_frozen_values(_: np.random.Generator) -> str:
    p = np.array([[0.375, 0.125], [0.125, 0.375]])
    vals = {
        "joint": entropy(p, base=2.0),
        "conditional": conditional_entropy(p, given="A", base=2.0),
        "mutual": mutual_information(p, base=2.0),
    }
    for key, expect in _FROZEN_2X2.items():
        _require(abs(vals[key] - expect) <= 1e-12, f"{key}: {vals[key]!r} != {expect!r}")
    return "textbook two-window values reproduced to 1e-12"


def _check_connection(_: np.random.Generator) -> str:
    worst = max(
        connection_check(sigma, AxisGrid.centered(n, 16.0)) for sigma in (0.3, 1.0, 2.5) for n in (16, 32)
    )
    _require(worst <= 1e-12, f"window residual {worst:.3e} nats exceeds 1e-12")
    return f"per-window Gauss-Legendre -p log p matches the Gaussian closed form (max {worst:.1e} nats)"


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
            res = evaluate(pos, mom, base=2.0)
            worst = max(worst, res.margin - cont)
    _require(worst <= 1e-6, f"discrete margin exceeded the continuous one by {worst:.3e}")
    return f"windowed margins never beat the continuous margin (max excess {worst:.2e})"


def _check_philox_keys(rng: np.random.Generator) -> str:
    # the first seed word takes two 32-bit words; an index, below MAX_REPLICATES, takes one
    seed = (int(rng.integers(2**32, 2**63)), int(rng.integers(2**32)))
    index = rng.integers(2**32, size=3, dtype=np.uint64)
    attempt = int(rng.integers(1000))
    for i, key in zip(index.tolist(), _philox_keys(seed, index, attempt)):
        want = np.random.SeedSequence(seed + (i, attempt)).generate_state(2, np.uint64)
        _require(np.array_equal(key, want), f"key of replicate {i} differs from SeedSequence's")
    return f"{index.size} replicate keys equal SeedSequence's hash, on a seed past 2^32"


def _check_philox_reset(rng: np.random.Generator) -> str:
    # means on both sides of 10, where numpy switches Poisson samplers
    lam = 0.5 + rng.exponential(20.0, size=32)
    seed = int(rng.integers(2**63))
    indices = rng.integers(2**32, size=4).tolist()
    streams = [replicate_rng(seed, index) for index in indices]
    keys = [s.bit_generator.state["state"]["key"].tolist() for s in streams]
    got = np.empty((len(indices), lam.size))
    _draw(lam, keys, range(len(keys)), got)
    for index, stream, row in zip(indices, streams, got):
        _require(np.array_equal(row, stream.poisson(lam)), f"replicate {index}: the reset Philox drew another stream")
    return f"{len(indices)} draws on one reset Philox equal replicate_rng's"


def _check_poisson_zero_means(rng: np.random.Generator) -> str:
    # means on both sides of 10, where numpy switches Poisson samplers
    lam = rng.exponential(20.0, size=64)
    lam[rng.random(lam.size) < 0.4] = 0.0
    support = np.flatnonzero(lam)
    seed, index = int(rng.integers(2**63)), int(rng.integers(2**32))
    every, nonzero = replicate_rng(seed, index), replicate_rng(seed, index)
    for _ in range(3):
        dense = every.poisson(lam)
        sparse = np.zeros_like(dense)
        sparse[support] = nonzero.poisson(lam[support])
        _require(np.array_equal(dense, sparse), "draws over every mean differ from draws over the non-zero ones")
    _require(
        np.array_equal(every.bit_generator.random_raw(4), nonzero.bit_generator.random_raw(4)),
        "zero means moved the stream",
    )
    return f"{lam.size - support.size} zero means of {lam.size} read no stream"


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
        direction = Direction.B_GIVEN_A if kind == "conditional" else Direction.SYMMETRIC
        got = evaluate(pos, mom, direction).margin
        _require(
            abs(got - expect) <= 5e-3,
            f"{kind}@{res}: margin {got:.4f} drifted from calibration {expect}",
        )
        details.append(f"{kind[:4]}@{res}={got:+.3f}")
    return "default-state margins match calibration: " + " ".join(details)


def _check_file_roundtrip(_: np.random.Generator) -> str:
    state = make_synthetic_state(n_windows=6)
    pos, mom = sample_histograms(state, total=5e4, seed=3)
    before = evaluate(pos.normalize(), mom.normalize())
    with tempfile.TemporaryDirectory() as tmp:
        save_histogram(pos, Path(tmp) / "position.csv")
        save_histogram(mom, Path(tmp) / "momentum.csv")
        pos2 = load_histogram(Path(tmp) / "position.csv")
        mom2 = load_histogram(Path(tmp) / "momentum.csv")
    _require(np.array_equal(pos.counts.counts, pos2.counts.counts), "counts changed")
    _require(pos.grid == pos2.grid and mom.grid == mom2.grid, "grids changed")
    after = evaluate(pos2.normalize(), mom2.normalize())
    _require(before == after, "witness result changed across the file round trip")
    return "save → load → re-evaluate is bit-exact"


_CHECKS = [
    ("frozen-textbook-values", _check_frozen_values),
    ("continuum-connection", _check_connection),
    ("continuum-dominates-windowed", _check_continuum_dominates),
    ("philox-key-hash", _check_philox_keys),
    ("philox-key-reset", _check_philox_reset),
    ("poisson-zero-means", _check_poisson_zero_means),
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
