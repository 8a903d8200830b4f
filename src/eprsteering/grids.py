"""Measurement grids and validated count/probability containers.

Layout convention used everywhere in this package: tensors are row-major with
party A's axes first, then party B's.  One transverse dimension gives a plain
``(N_A, N_B)`` matrix; two dimensions give ``(N_A1, N_A2, N_B1, N_B2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Literal

import numpy as np

from .errors import (
    DataError,
    DimensionMismatchError,
    NegativeCountError,
    NonpositiveWindowError,
    NotNormalizedError,
    NegativeProbabilityError,
    NumericalError,
    ShapeMismatchError,
    UsageError,
    ZeroTotalError,
)

__all__ = [
    "Observable",
    "AxisGrid",
    "GridSpec",
    "CountTensor",
    "JointDistribution",
    "Histogram",
    "validate_distribution",
    "normalize_counts",
    "marginal",
]

Party = Literal["A", "B"]

#: Probability tensors must sum to one within this absolute tolerance.
NORMALIZATION_TOL = 1e-12


class Observable(str, Enum):
    """Which conjugate observable a grid discretizes."""

    POSITION = "position"
    MOMENTUM = "momentum"


@dataclass(frozen=True)
class AxisGrid:
    """Uniform binning of one transverse axis for one party.

    ``origin`` is the lower edge of the first window, so the covered extent is
    ``[origin, origin + n_windows * window_width]``.
    """

    n_windows: int
    window_width: float
    origin: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_windows, (int, np.integer)) or isinstance(self.n_windows, bool):
            raise UsageError(f"n_windows must be an integer, got {self.n_windows!r}")
        if self.n_windows < 1:
            raise UsageError(f"n_windows must be >= 1, got {self.n_windows}")
        object.__setattr__(self, "n_windows", int(self.n_windows))
        width = float(self.window_width)
        if not math.isfinite(width) or width <= 0.0:
            raise NonpositiveWindowError(f"window_width must be finite and > 0, got {width!r}")
        object.__setattr__(self, "window_width", width)
        origin = float(self.origin)
        if not math.isfinite(origin):
            raise UsageError(f"origin must be finite, got {origin!r}")
        object.__setattr__(self, "origin", origin)

    @classmethod
    def centered(cls, n_windows: int, extent: float) -> "AxisGrid":
        """Grid of ``n_windows`` equal windows covering ``[-extent/2, extent/2]``."""
        from .errors import NonpositiveExtentError

        extent = float(extent)
        if not math.isfinite(extent) or extent <= 0.0:
            raise NonpositiveExtentError(f"extent must be finite and > 0, got {extent!r}")
        return cls(n_windows=n_windows, window_width=extent / n_windows, origin=-extent / 2.0)

    @property
    def extent(self) -> float:
        return self.n_windows * self.window_width

    def edges(self) -> np.ndarray:
        return self.origin + self.window_width * np.arange(self.n_windows + 1)

    def centers(self) -> np.ndarray:
        return self.origin + self.window_width * (np.arange(self.n_windows) + 0.5)


@dataclass(frozen=True)
class GridSpec:
    """Full grid for one observable: per-dimension axes for both parties."""

    observable: Observable
    axes_a: tuple[AxisGrid, ...]
    axes_b: tuple[AxisGrid, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "observable", Observable(self.observable))
        axes_a = tuple(self.axes_a)
        axes_b = tuple(self.axes_b)
        for axes, party in ((axes_a, "A"), (axes_b, "B")):
            if not axes:
                raise UsageError(f"party {party} needs at least one axis")
            for ax in axes:
                if not isinstance(ax, AxisGrid):
                    raise UsageError(f"party {party} axes must be AxisGrid, got {type(ax).__name__}")
        if len(axes_a) != len(axes_b):
            raise DimensionMismatchError(
                f"parties disagree on dimensions: A has {len(axes_a)}, B has {len(axes_b)}"
            )
        if len(axes_a) > 2:
            raise UsageError(f"at most 2 transverse dimensions supported, got {len(axes_a)}")
        object.__setattr__(self, "axes_a", axes_a)
        object.__setattr__(self, "axes_b", axes_b)

    @property
    def n_dims(self) -> int:
        return len(self.axes_a)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.n_windows for ax in self.axes_a + self.axes_b)

    def axes(self, party: Party) -> tuple[AxisGrid, ...]:
        return self.axes_a if party == "A" else self.axes_b

    def widths(self, party: Party) -> tuple[float, ...]:
        return tuple(ax.window_width for ax in self.axes(party))

    def extents(self, party: Party) -> tuple[float, ...]:
        return tuple(ax.extent for ax in self.axes(party))


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CountTensor:
    """Immutable non-negative integer event counts."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts)
        if arr.dtype == object or not (
            np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_
        ):
            raise DataError(f"counts must have integer dtype, got {arr.dtype}")
        if np.issubdtype(arr.dtype, np.signedinteger) and (arr < 0).any():
            bad = int(arr.min())
            raise NegativeCountError(f"counts must be non-negative, found {bad}")
        object.__setattr__(self, "counts", _as_readonly(arr.astype(np.uint64)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts.shape

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def validate_distribution(
    probs: np.ndarray, grid: GridSpec | None = None, *, tol: float = NORMALIZATION_TOL
) -> list[str]:
    """Check a probability tensor, returning human-readable findings.

    An empty list means the tensor is a valid distribution (and matches
    ``grid`` when one is given).
    """
    findings: list[str] = []
    arr = np.asarray(probs, dtype=np.float64)
    if grid is not None and arr.shape != grid.shape:
        findings.append(f"shape {arr.shape} does not match grid shape {grid.shape}")
        return findings
    if not np.isfinite(arr).all():
        findings.append("non-finite entries present")
        return findings
    if (arr < 0).any():
        findings.append(f"negative entries present (min {arr.min():.3e})")
    total = float(arr.sum())
    if abs(total - 1.0) > tol:
        findings.append(f"sums to {total!r}, off by {total - 1.0:.3e} (tol {tol:g})")
    return findings


@dataclass(frozen=True)
class JointDistribution:
    """Validated probability tensor tied to the grid that produced it."""

    probs: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.shape != self.grid.shape:
            raise ShapeMismatchError(
                f"probability shape {arr.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.isfinite(arr).all():
            raise NumericalError("probability tensor has non-finite entries")
        if (arr < 0).any():
            raise NegativeProbabilityError(
                f"probability tensor has negative entries (min {arr.min():.3e})"
            )
        total = float(arr.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NotNormalizedError(
                f"probability tensor sums to {total!r} (tol {NORMALIZATION_TOL:g})"
            )
        object.__setattr__(self, "probs", _as_readonly(arr))

    @property
    def n_dims(self) -> int:
        return self.grid.n_dims

    def marginal(self, party: Party) -> np.ndarray:
        return marginal(self, party)


@dataclass(frozen=True)
class Histogram:
    """Counts plus the grid they were recorded on."""

    counts: CountTensor
    grid: GridSpec

    def __post_init__(self) -> None:
        counts = self.counts
        if not isinstance(counts, CountTensor):
            counts = CountTensor(np.asarray(counts))
            object.__setattr__(self, "counts", counts)
        if counts.shape != self.grid.shape:
            raise ShapeMismatchError(
                f"count shape {counts.shape} does not match grid shape {self.grid.shape}"
            )

    @property
    def total(self) -> int:
        return self.counts.total

    def normalize(self) -> JointDistribution:
        return normalize_counts(self.counts, self.grid)


def normalize_counts(counts: CountTensor | np.ndarray, grid: GridSpec) -> JointDistribution:
    """Relative frequencies from raw counts.

    Raises :class:`ZeroTotalError` when no events were recorded.
    """
    if not isinstance(counts, CountTensor):
        counts = CountTensor(np.asarray(counts))
    if counts.shape != grid.shape:
        raise ShapeMismatchError(
            f"count shape {counts.shape} does not match grid shape {grid.shape}"
        )
    total = counts.total
    if total == 0:
        raise ZeroTotalError("count tensor holds zero events")
    probs = counts.counts.astype(np.float64) / float(total)
    return JointDistribution(probs=probs, grid=grid)


def marginal(dist: JointDistribution, party: Party) -> np.ndarray:
    """Marginal probability tensor of one party (sums out the other)."""
    if party not in ("A", "B"):
        raise UsageError(f"party must be 'A' or 'B', got {party!r}")
    n = dist.n_dims
    axes = tuple(range(n, 2 * n)) if party == "A" else tuple(range(n))
    return dist.probs.sum(axis=axes)
