"""Measurement grids and validated count/probability containers.

Layout convention used everywhere in this package: tensors are row-major with
party A's axes first, then party B's.  One transverse dimension gives a plain
``(N_A, N_B)`` matrix; two dimensions give ``(N_A1, N_A2, N_B1, N_B2)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
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
]

Party = Literal["A", "B"]

#: Probability tensors must sum to one within this absolute tolerance.
NORMALIZATION_TOL = 1e-12


def _shown(value) -> str:
    """``value`` as a message echoes it: its repr, or an integer past the 64-bit range as ``%.6g`` shows a float."""
    if isinstance(value, int) and abs(value) >= 2**64:
        exponent = math.log10(abs(value))  # exact enough past the float range too
        return f"{'-' if value < 0 else ''}{10 ** (exponent % 1):.6g}e+{int(exponent)}"
    return repr(value)


def _check_int(value, name: str, minimum: int = 1, maximum: int | None = None) -> int:
    """``value`` as an int from ``minimum`` to ``maximum`` (if given); bools, floats and strings are refused."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise UsageError(f"{name} must be >= {minimum}, got {_shown(int(value))}")
    if maximum is not None and value > maximum:
        raise UsageError(f"{name} must be <= {maximum}, got {_shown(int(value))}")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a float, an infinity if it is past the float range; :class:`UsageError` if it is no number."""
    try:
        if isinstance(value, (str, bytes, bytearray, bool, np.bool_)):
            raise TypeError  # ``float`` reads text and bools, but they are no number
        return float(value)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be a real number, got {type(value).__name__}") from None
    except OverflowError:
        return -math.inf if value < 0 else math.inf


def _positive(
    value, name: str, error: type[SteeringError] = UsageError, maximum=(sys.float_info.max, "the largest float")
) -> float:
    """``value`` as a float in (0, max], or ``error`` naming it; :class:`UsageError` if it is no number.

    ``maximum`` is ``(max, what it is)``.  A number past it is too large, and
    so is an integer past the float range: only an infinity is not finite.
    """
    number = _real(value, name)
    if not number > 0.0 or value == math.inf:
        raise error(f"{name} must be finite and > 0, got {_shown(value)}")
    if number > maximum[0]:
        shown = repr(number) if number < math.inf else _shown(value)  # %g could match the bound
        raise error(f"{name} must be <= {maximum[0]:.6g}, {maximum[1]}, got {shown}")
    return number


class _Choice(str, Enum):
    """A string enum that refuses an unknown value with a :class:`UsageError` naming the valid ones."""

    @classmethod
    def _missing_(cls, value):
        valid = ", ".join(repr(member.value) for member in cls)
        raise UsageError(f"{cls.__name__.lower()} must be one of {valid}, got {value!r}")


class Observable(_Choice):
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
        if self.n_windows > sys.float_info.max or math.isinf(self.extent):
            extent = f"{_shown(self.n_windows)} * {width!r}"
            raise NonpositiveExtentError(f"extent n_windows * window_width = {extent} overflows")
        origin = _real(self.origin, "origin")
        if not math.isfinite(origin):
            raise UsageError(f"origin must be a finite float, got {_shown(self.origin)}")
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
        """The ``n_windows + 1`` window edges; :class:`MemoryError` if numpy cannot index that many float64s."""
        if (self.n_windows + 1) * 8 > np.iinfo(np.intp).max:
            raise MemoryError(f"{_shown(self.n_windows + 1)} window edges exceed the largest array numpy can index")
        return self.origin + self.window_width * np.arange(self.n_windows + 1)


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


def _merged(grid: GridSpec, factor_a: int, factor_b: int) -> GridSpec:
    """``grid`` with party A's windows merged in groups of ``factor_a`` and B's of ``factor_b``.

    Each axis of ``n`` windows of width ``w``, ``f`` dividing ``n``, becomes ``n // f`` windows of width
    ``w * f`` from its origin: the one rule for a merged width or extent, read by downsamples and sweeps.
    """
    def merged(axes: tuple[AxisGrid, ...], factor: int) -> tuple[AxisGrid, ...]:
        return tuple(AxisGrid(ax.n_windows // factor, ax.window_width * factor, ax.origin) for ax in axes)

    return GridSpec(grid.observable, merged(grid.axes_a, factor_a), merged(grid.axes_b, factor_b))


@dataclass(frozen=True)
class CountTensor:
    """Immutable non-negative integer event counts, and their ``total``, summed once."""

    counts: np.ndarray
    total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts)
        if arr.dtype == object or not (
            np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_
        ):
            raise DataError(f"counts must have integer dtype, got {arr.dtype}")
        if np.issubdtype(arr.dtype, np.signedinteger) and (arr < 0).any():
            bad = int(arr.min())
            raise NegativeCountError(f"counts must be non-negative, found {bad}")
        total = arr.sum(dtype=np.float64)
        if total >= 2.0**64:
            raise DataError("total count exceeds the unsigned 64-bit range")
        counts = arr.astype(np.uint64)  # always a copy, so it can be made read-only in place
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        # the float sum is exact below 2**53, and reaches 2**53 only if the total does
        object.__setattr__(self, "total", int(total) if total < 2.0**53 else int(counts.sum()))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts.shape


def _checked_probs(probs, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``probs`` as a float64 array; raises its first fault if it is no distribution (of ``shape``).

    Faults are checked in order: shape, non-finite entries, negative
    entries, sum.  This is the one place a sum is compared with one.
    """
    arr = np.asarray(probs, dtype=np.float64)
    if shape is not None and arr.shape != shape:
        raise ShapeMismatchError(f"probability shape {arr.shape} does not match grid shape {shape}")
    if not np.isfinite(arr).all():
        raise NumericalError("probability tensor has non-finite entries")
    if (arr < 0).any():
        raise NegativeProbabilityError(f"probability tensor has negative entries (min {arr.min():.3e})")
    total = float(arr.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        off = f"off by {total - 1.0:.3e} (tol {NORMALIZATION_TOL:g})"
        raise NotNormalizedError(f"probability tensor sums to {total!r}, {off}")
    return arr


@dataclass(frozen=True)
class JointDistribution:
    """Validated probability tensor tied to the grid that produced it."""

    probs: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        probs = _checked_probs(np.array(self.probs, dtype=np.float64), self.grid.shape)
        probs.setflags(write=False)  # a fresh copy, so read-only in place
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class Histogram:
    """Counts plus the grid they were recorded on; :class:`ZeroTotalError` if they hold no events."""

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
        if counts.total == 0:
            raise ZeroTotalError("count tensor holds zero events")

    @property
    def total(self) -> int:
        return self.counts.total

    def normalize(self) -> JointDistribution:
        """Relative frequencies; a histogram holds at least one event, so they are always defined."""
        probs = self.counts.counts.astype(np.float64) / float(self.total)
        return JointDistribution(probs=probs, grid=self.grid)

