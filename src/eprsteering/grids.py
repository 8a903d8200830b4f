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
    NonpositiveExtentError,
    NonpositiveWindowError,
    NotNormalizedError,
    NegativeProbabilityError,
    NumericalError,
    ShapeMismatchError,
    SteeringError,
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


def _check_int(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int >= ``minimum``; bools, floats and strings are refused."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise UsageError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _positive(value, name: str, error: type[SteeringError] = UsageError) -> float:
    """``value`` as a finite float > 0, or ``error`` naming it."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number) or number <= 0.0:
        raise error(f"{name} must be finite and > 0, got {value!r}")
    return number


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
        object.__setattr__(self, "n_windows", _check_int(self.n_windows, "n_windows"))
        width = _positive(self.window_width, "window_width", NonpositiveWindowError)
        object.__setattr__(self, "window_width", width)
        origin = float(self.origin)
        if not math.isfinite(origin):
            raise UsageError(f"origin must be finite, got {origin!r}")
        object.__setattr__(self, "origin", origin)

    @classmethod
    def centered(cls, n_windows: int, extent: float) -> "AxisGrid":
        """Grid of ``n_windows`` equal windows covering ``[-extent/2, extent/2]``."""
        n_windows = _check_int(n_windows, "n_windows")
        extent = _positive(extent, "extent", NonpositiveExtentError)
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
        if arr.sum(dtype=np.float64) >= 2.0**64:
            raise DataError("total count exceeds the unsigned 64-bit range")
        counts = arr.astype(np.uint64)  # always a copy, so it can be made read-only in place
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts.shape

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _distribution_faults(
    arr: np.ndarray, shape: tuple[int, ...] | None = None, tol: float = NORMALIZATION_TOL
) -> list[SteeringError]:
    """Every way a float64 array fails to be a probability tensor (of ``shape``), in check order.

    A shape mismatch or a non-finite entry ends the checks.  This is the one
    place a sum is compared with one.
    """
    if shape is not None and arr.shape != shape:
        return [ShapeMismatchError(f"probability shape {arr.shape} does not match grid shape {shape}")]
    if not np.isfinite(arr).all():
        return [NumericalError("probability tensor has non-finite entries")]
    faults: list[SteeringError] = []
    if (arr < 0).any():
        faults.append(
            NegativeProbabilityError(f"probability tensor has negative entries (min {arr.min():.3e})")
        )
    total = float(arr.sum())
    if abs(total - 1.0) > tol:
        faults.append(
            NotNormalizedError(
                f"probability tensor sums to {total!r}, off by {total - 1.0:.3e} (tol {tol:g})"
            )
        )
    return faults


def _checked_probs(probs, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``probs`` as a float64 array, raising its first fault if it is not a distribution."""
    arr = np.asarray(probs, dtype=np.float64)
    faults = _distribution_faults(arr, shape)
    if faults:
        raise faults[0]
    return arr


def validate_distribution(
    probs: np.ndarray, grid: GridSpec | None = None, *, tol: float = NORMALIZATION_TOL
) -> list[str]:
    """Check a probability tensor, returning human-readable findings.

    An empty list means the tensor is a valid distribution (and matches
    ``grid`` when one is given).
    """
    arr = np.asarray(probs, dtype=np.float64)
    return [str(f) for f in _distribution_faults(arr, None if grid is None else grid.shape, tol)]


@dataclass(frozen=True)
class JointDistribution:
    """Validated probability tensor tied to the grid that produced it."""

    probs: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _as_readonly(_checked_probs(self.probs, self.grid.shape)))

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
        """Relative frequencies; raises :class:`ZeroTotalError` when no events were recorded."""
        total = self.total
        if total == 0:
            raise ZeroTotalError("count tensor holds zero events")
        probs = self.counts.counts.astype(np.float64) / float(total)
        return JointDistribution(probs=probs, grid=self.grid)


def normalize_counts(counts: CountTensor | np.ndarray, grid: GridSpec) -> JointDistribution:
    """Relative frequencies from raw counts, checked as a :class:`Histogram` on ``grid``."""
    return Histogram(counts=counts, grid=grid).normalize()


def marginal(dist: JointDistribution, party: Party) -> np.ndarray:
    """Marginal probability tensor of one party (sums out the other)."""
    if party not in ("A", "B"):
        raise UsageError(f"party must be 'A' or 'B', got {party!r}")
    n = dist.n_dims
    axes = tuple(range(n, 2 * n)) if party == "A" else tuple(range(n))
    return dist.probs.sum(axis=axes)
