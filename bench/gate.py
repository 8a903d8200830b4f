"""Correctness gate: an independent plain-numpy witness and bootstrap.

Nothing here imports ``eprsteering``.  Margins are recomputed from raw counts
with plug-in Shannon entropies and the window-width bounds, and bootstrap
distributions are recomputed from the package's documented stream contract:
replicate ``i``, attempt ``j`` draws from
``Philox(SeedSequence(seed_key + (i, j)))``, one Poisson draw per histogram
in position-then-momentum order, redrawn while any histogram comes back empty.

The significance formula is deliberately not gated; only the distribution it
summarizes (mean, sample std, rejected draws) is, so a change of estimator
does not read as a wrong answer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Allowed disagreement with the package, in bits.
TOL_BITS = 1e-9

PI_E = math.pi * math.e


@dataclass(frozen=True)
class Block:
    """One histogram: counts with party A's axes first, and each party's window widths."""

    counts: np.ndarray
    widths_a: tuple[float, ...]
    widths_b: tuple[float, ...]

    def extents(self, party: str) -> list[float]:
        n = len(self.widths_a)
        widths = self.widths_a if party == "A" else self.widths_b
        sizes = self.counts.shape[:n] if party == "A" else self.counts.shape[n:]
        return [size * w for size, w in zip(sizes, widths)]


def read_block(counts_csv: Path, grid_json: Path) -> Block:
    """Read a counts CSV and its grid sidecar without the package's parsers."""
    counts = np.loadtxt(counts_csv, delimiter=",", comments="#", dtype=np.int64, ndmin=2)
    grid = json.loads(Path(grid_json).read_text())
    return Block(
        counts=counts,
        widths_a=tuple(float(ax["window_width"]) for ax in grid["axes_a"]),
        widths_b=tuple(float(ax["window_width"]) for ax in grid["axes_b"]),
    )


def coarsen(block: Block, factor_a: int, factor_b: int) -> Block:
    """Sum adjacent windows in groups of ``factor_a`` (party A) and ``factor_b`` (party B)."""
    n = len(block.widths_a)
    factors = [factor_a] * n + [factor_b] * n
    shape: list[int] = []
    for size, f in zip(block.counts.shape, factors):
        shape += [size // f, f]
    counts = block.counts.reshape(shape).sum(axis=tuple(range(1, 2 * 2 * n, 2)))
    return Block(
        counts=counts,
        widths_a=tuple(w * factor_a for w in block.widths_a),
        widths_b=tuple(w * factor_b for w in block.widths_b),
    )


def _h_nats(p: np.ndarray) -> float:
    q = p[p > 0]
    return float(-(q * np.log(q)).sum())


def _lhs_nats(counts: np.ndarray, direction: str) -> float:
    p = counts.astype(np.float64) / float(counts.sum())
    n = p.ndim // 2
    marg_a = p.sum(axis=tuple(range(n, 2 * n)))
    marg_b = p.sum(axis=tuple(range(n)))
    if direction == "B_given_A":
        return _h_nats(p) - _h_nats(marg_a)
    if direction == "A_given_B":
        return _h_nats(p) - _h_nats(marg_b)
    return _h_nats(marg_a) + _h_nats(marg_b) - _h_nats(p)


def margin_bits(
    pos: list[Block], mom: list[Block], direction: str, counts: list[np.ndarray] | None = None
) -> float:
    """Witness margin in bits; ``margin > 0`` certifies steering.

    ``counts`` replaces the blocks' own counts (in position-then-momentum
    order), which is how bootstrap replicates are scored on the same grids.
    """
    blocks = pos + mom
    if counts is None:
        counts = [b.counts for b in blocks]
    lhs = sum(_lhs_nats(c, direction) for c in counts)
    if direction == "symmetric":
        candidates = []
        for party in ("A", "B"):
            candidates.append(
                sum(
                    math.log(lx) + math.log(lk) - math.log(PI_E)
                    for p, m in zip(pos, mom)
                    for lx, lk in zip(p.extents(party), m.extents(party))
                )
            )
        return (lhs - max(candidates)) / math.log(2.0)
    steered = "widths_b" if direction == "B_given_A" else "widths_a"
    bound = sum(
        math.log(PI_E) - math.log(wx) - math.log(wk)
        for p, m in zip(pos, mom)
        for wx, wk in zip(getattr(p, steered), getattr(m, steered))
    )
    return (bound - lhs) / math.log(2.0)


@dataclass(frozen=True)
class BootSummary:
    margin_mean: float
    margin_std: float
    rejected: int


def bootstrap(
    pos: list[Block], mom: list[Block], direction: str, n_boot: int, seed_key: tuple[int, ...]
) -> BootSummary:
    """Poisson bootstrap of the margin under the keyed-stream contract."""
    blocks = pos + mom
    lams = [b.counts.astype(np.float64) for b in blocks]
    margins = np.empty(n_boot)
    rejected = 0
    for i in range(n_boot):
        attempt = 0
        while True:
            key = tuple(seed_key) + (i, attempt)
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))
            draws = [rng.poisson(lam) for lam in lams]
            if all(d.sum() > 0 for d in draws):
                break
            rejected += 1
            attempt += 1
        margins[i] = margin_bits(pos, mom, direction, counts=draws)
    return BootSummary(float(margins.mean()), float(margins.std(ddof=1)), rejected)


def compare(label: str, got: float, want: float, tol: float = TOL_BITS) -> list[str]:
    """A finding when ``got`` is not finite or differs from ``want`` by more than ``tol``."""
    if not math.isfinite(got) or abs(got - want) > tol:
        return [f"{label}: package {got!r}, reference {want!r} (tol {tol:g})"]
    return []


def compare_boot(label: str, mean: float, std: float, rejected: int, want: BootSummary) -> list[str]:
    found = compare(f"{label} margin_mean", mean, want.margin_mean)
    found += compare(f"{label} margin_std", std, want.margin_std)
    if rejected != want.rejected:
        found.append(f"{label}: package rejected {rejected} draws, reference {want.rejected}")
    return found


def compare_digests(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """Findings for every output whose sha256 differs from the reference op's."""
    if expected.keys() != got.keys():
        return [f"output set changed: {sorted(expected)} -> {sorted(got)}"]
    return [
        f"output {name} changed: sha256 {expected[name][:12]} -> {got[name][:12]}"
        for name in expected
        if expected[name] != got[name]
    ]
