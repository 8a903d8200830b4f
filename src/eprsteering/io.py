"""File formats, reports, and run configuration.

Formats are deliberately plain and deterministic:

* counts: CSV of integers, one row per party-A window, ``#`` comment lines
  carry free-form metadata and are ignored on read;
* grid sidecar: small JSON documents describing both parties' axes;
* witness reports: canonical JSON (sorted keys, two-space indent);
* map/curve tables: CSV with a ``#`` metadata header.

Nothing embeds timestamps or environment details, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .bootstrap import BootstrapReport, _check_n_boot, _check_poisson_means, _check_seed
from .coarse import ResolutionSweep, CurvePoint
from .entropy import _check_base
from .errors import (
    DataError,
    DimensionMismatchError,
    NegativeCountError,
    ParseError,
    ShapeMismatchError,
    SteeringError,
    UsageError,
    ZeroTotalError,
)
from .grids import AxisGrid, CountTensor, GridSpec, Histogram, Observable, _check_int, _positive
from .spdc import (
    DEFAULT_CLIP_TOL,
    DEFAULT_EXTENT_K,
    DEFAULT_EXTENT_X,
    DEFAULT_RESOLUTION,
    DEFAULT_SIGMA_MINUS,
    DEFAULT_SIGMA_PLUS,
    DEFAULT_TOTAL_EVENTS,
    _check_total,
    _mass_tol,
)
from .witness import Direction

__all__ = [
    "write_counts_csv",
    "read_counts_csv",
    "write_grid_json",
    "read_grid_json",
    "save_histogram",
    "load_histogram",
    "sidecar_path",
    "SyntheticConfig",
    "RunConfig",
    "config_hash",
    "units_name",
    "witness_report",
    "dump_json",
    "write_map_csv",
    "write_curve_csv",
]

GRID_FORMAT = "eprsteering-grid-v1"
WITNESS_FORMAT = "eprsteering-witness-v1"

#: Redundant extent fields must agree with n_windows * window_width this well.
EXTENT_CONSISTENCY_RTOL = 1e-9

#: Count rows, joined by commas, that ``np.fromstring`` reads as ``int()`` does.
_PLAIN_ROWS = re.compile(r"[0-9]{1,19}(?:,[0-9]{1,19})*")


# ---------------------------------------------------------------- counts CSV


def _read_text(path: Path) -> str:
    """``path`` decoded as UTF-8 less one leading byte-order mark, as ``utf-8-sig`` reads it.

    The mark is dropped after decoding, so a fault's byte offset counts it.
    """
    try:
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason} at byte {exc.start})", str(path)) from None


def write_counts_csv(hist: Histogram, path: str | Path) -> None:
    """Write a 2-D count matrix; rows are party-A windows, columns party-B."""
    counts = hist.counts.counts
    if counts.ndim != 2:
        raise UsageError(
            f"counts CSV holds one transverse axis (a 2-D matrix), got rank {counts.ndim}"
        )
    lines = ["# eprsteering counts v1", f"# observable={hist.grid.observable.value}"]
    lines.append(f"# shape={counts.shape[0]},{counts.shape[1]}")
    lines += [",".join(str(int(v)) for v in row) for row in counts]
    Path(path).write_text("\n".join(lines) + "\n")


def read_counts_csv(path: str | Path) -> CountTensor:
    """Parse a counts CSV written by :func:`write_counts_csv` (or by hand)."""
    path = Path(path)
    text = _read_text(path)
    lines = [
        (lineno, line)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.strip()) and not line.startswith("#")
    ]
    if not lines:
        raise ParseError("no count rows found", str(path))
    # rows of plain ASCII digits at one width parse in one np.fromstring
    # call; every other file runs the checked loop below, which stops at the
    # first fault in file order.  Nineteen digits stay below 2**64, past
    # which np.fromstring saturates where int() overflows
    width = lines[0][1].count(",") + 1
    data = ",".join([line for _, line in lines])
    if all(line.count(",") + 1 == width for _, line in lines) and _PLAIN_ROWS.fullmatch(data):
        values = np.fromstring(data, dtype=np.uint64, sep=",")
    else:
        values = []
        for lineno, line in lines:
            tokens = line.split(",")
            for tok in tokens:
                tok = tok.strip()
                try:
                    # int() alone also takes 1_0 and non-ASCII digits such as ١٢
                    if not tok.isascii() or "_" in tok:
                        raise ValueError(tok)
                    value = int(tok)
                except ValueError:
                    raise ParseError(f"not an integer count: {tok!r}", str(path), lineno) from None
                if value < 0:
                    raise NegativeCountError(f"{path}:{lineno}: negative count {value}")
                values.append(value)
            if len(tokens) != width:
                raise ParseError(
                    f"row has {len(tokens)} columns, expected {width} (as on line {lines[0][0]})",
                    str(path),
                    lineno,
                )
    try:
        return CountTensor(np.asarray(values, dtype=np.uint64).reshape(len(lines), width))
    except OverflowError:
        raise ParseError("count exceeds the unsigned 64-bit range", str(path)) from None
    except DataError as exc:
        raise ParseError(str(exc), str(path)) from None


# ---------------------------------------------------------------- grid JSON


def _axis_to_dict(ax: AxisGrid) -> dict[str, Any]:
    return {
        "n_windows": ax.n_windows,
        "window_width": ax.window_width,
        "origin": ax.origin,
    }


#: JSON types of the axis keys; ``n_windows`` and ``window_width`` are required.
_AXIS_TYPES = {
    "n_windows": int,
    "window_width": (int, float),
    "origin": (int, float),
    "extent": (int, float),
}


def _axis_from_dict(d: Any) -> AxisGrid:
    if not isinstance(d, dict):
        raise DataError(f"axis entry must be a JSON object, got {d!r}")
    for key, kind in _AXIS_TYPES.items():
        if key in d and (isinstance(d[key], bool) or not isinstance(d[key], kind)):
            raise DataError(f"axis {key} has the wrong JSON type: {d[key]!r}")
    ax = AxisGrid(d["n_windows"], d["window_width"], d.get("origin", 0.0))
    if "extent" in d and not math.isclose(d["extent"], ax.extent, rel_tol=EXTENT_CONSISTENCY_RTOL):
        raise DataError(
            f"declared extent {d['extent']!r} disagrees with n_windows * window_width = {ax.extent!r}"
        )
    return ax


def grid_to_dict(grid: GridSpec) -> dict[str, Any]:
    return {
        "format": GRID_FORMAT,
        "observable": grid.observable.value,
        "axes_a": [_axis_to_dict(ax) for ax in grid.axes_a],
        "axes_b": [_axis_to_dict(ax) for ax in grid.axes_b],
    }


def write_grid_json(grid: GridSpec, path: str | Path) -> None:
    dump_json(grid_to_dict(grid), path)


def read_grid_json(path: str | Path) -> GridSpec:
    """Parse a grid sidecar; every fault in it is a :class:`ParseError` naming ``path``."""
    path = Path(path)
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", str(path), exc.lineno) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply", str(path)) from None
    try:
        if not isinstance(doc, dict):
            raise DataError("grid document must be a JSON object")
        if doc["observable"] not in [o.value for o in Observable]:
            raise DataError(f"unknown observable {doc['observable']!r}")
        axes = {}
        for key in ("axes_a", "axes_b"):
            if not isinstance(doc[key], list):
                raise DataError(f"{key} must be a JSON array, got {doc[key]!r}")
            axes[key] = tuple(_axis_from_dict(d) for d in doc[key])
        return GridSpec(observable=Observable(doc["observable"]), **axes)
    except KeyError as exc:
        raise ParseError(f"grid document missing key {exc}", str(path)) from None
    except (SteeringError, OverflowError) as exc:
        raise ParseError(str(exc), str(path)) from None


def sidecar_path(counts_path: str | Path) -> Path:
    """Default grid path for a counts file: same stem, ``.grid.json`` suffix."""
    return Path(counts_path).with_suffix(".grid.json")


def save_histogram(
    hist: Histogram, counts_path: str | Path, grid_path: str | Path | None = None
) -> None:
    write_counts_csv(hist, counts_path)
    write_grid_json(hist.grid, grid_path if grid_path is not None else sidecar_path(counts_path))


def load_histogram(
    counts_path: str | Path, grid_path: str | Path | None = None
) -> Histogram:
    """A counts file and its grid sidecar; counts with no events or a cell
    the bootstrap cannot redraw raise :class:`ParseError` naming the file."""
    grid_path = grid_path if grid_path is not None else sidecar_path(counts_path)
    counts = read_counts_csv(counts_path)
    try:
        _check_poisson_means(counts.counts)
    except DataError as exc:
        raise ParseError(str(exc), str(counts_path)) from None
    grid = read_grid_json(grid_path)
    try:
        return Histogram(counts=counts, grid=grid)
    except ShapeMismatchError as exc:
        raise ShapeMismatchError(f"{counts_path} with {grid_path}: {exc}") from None
    except ZeroTotalError as exc:
        raise ParseError(str(exc), str(counts_path)) from None


# ---------------------------------------------------------------- run config


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of a synthetic run (model state, grids, sampling)."""

    sigma_plus: float = DEFAULT_SIGMA_PLUS
    sigma_minus: float = DEFAULT_SIGMA_MINUS
    extent_x: float = DEFAULT_EXTENT_X
    extent_k: float = DEFAULT_EXTENT_K
    n_windows: int = DEFAULT_RESOLUTION
    total: int = DEFAULT_TOTAL_EVENTS
    clip_tol: float = DEFAULT_CLIP_TOL

    def __post_init__(self) -> None:
        for name in ("sigma_plus", "sigma_minus", "extent_x", "extent_k"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        object.__setattr__(self, "clip_tol", _mass_tol(self.clip_tol, "clip_tol"))
        for name in ("n_windows", "total"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name))
        _check_total(self.total)


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a witness run's numbers.

    Exactly one event source must be set: counts files for both observables,
    each with its grid file or none, or a synthetic state, which takes no
    grid files.
    """

    direction: Direction = Direction.B_GIVEN_A
    base: float = 2.0
    n_boot: int = 1000
    seed: int = 0
    position_counts: tuple[str, ...] = ()
    position_grids: tuple[str, ...] = ()
    momentum_counts: tuple[str, ...] = ()
    momentum_grids: tuple[str, ...] = ()
    synthetic: SyntheticConfig | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "direction", Direction(self.direction))
        object.__setattr__(self, "base", _check_base(self.base))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        object.__setattr__(self, "n_boot", _check_n_boot(self.n_boot))
        for name in ("position_counts", "position_grids", "momentum_counts", "momentum_grids"):
            object.__setattr__(self, name, tuple(str(p) for p in getattr(self, name)))
        has_files = bool(self.position_counts or self.momentum_counts)
        if has_files == (self.synthetic is not None):
            raise UsageError("give either counts files or a synthetic state, not both or neither")
        if self.synthetic is not None and (self.position_grids or self.momentum_grids):
            raise UsageError("grid files describe counts files; a synthetic state takes none")
        if has_files:
            np_, nm = len(self.position_counts), len(self.momentum_counts)
            if np_ == 0 or nm == 0:
                raise UsageError("counts files are needed for both observables")
            if np_ != nm:
                raise DimensionMismatchError(
                    f"{np_} position file(s) but {nm} momentum file(s)"
                )
            for counts, grids, flag in (
                (self.position_counts, self.position_grids, "position"),
                (self.momentum_counts, self.momentum_grids, "momentum"),
            ):
                if grids and len(grids) != len(counts):
                    raise UsageError(
                        f"{flag}: {len(grids)} grid file(s) for {len(counts)} counts file(s)"
                    )

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "direction": self.direction.value,
            "base": self.base,
            "n_boot": self.n_boot,
            "seed": self.seed,
        }
        if self.synthetic is not None:
            d["synthetic"] = asdict(self.synthetic)
        else:
            d["position_counts"] = list(self.position_counts)
            d["momentum_counts"] = list(self.momentum_counts)
            if self.position_grids:
                d["position_grids"] = list(self.position_grids)
            if self.momentum_grids:
                d["momentum_grids"] = list(self.momentum_grids)
        return d


def config_hash(config: RunConfig | Mapping[str, Any]) -> str:
    """Short stable digest of a run configuration."""
    d = config.to_dict() if isinstance(config, RunConfig) else dict(config)
    canon = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ------------------------------------------------------------------ reports


def units_name(base: float) -> str:
    if base == 2.0:
        return "bit"
    if abs(base - math.e) < 1e-15:
        return "nat"
    if base == 10.0:
        return "hartley"
    return f"log{base:g}"


def _tagged(value: float, units: str) -> dict[str, Any]:
    return {"value": value, "units": units}


def witness_report(
    boot: BootstrapReport,
    config: RunConfig,
    grids: Mapping[str, Sequence[GridSpec]],
    clipped: Mapping[str, float] | None = None,
) -> dict[str, Any]:
    """Assemble the canonical JSON document for one witness run: ``boot.point`` and its bootstrap."""
    result = boot.point
    units = units_name(result.base)
    doc: dict[str, Any] = {
        "format": WITNESS_FORMAT,
        "direction": result.direction.value,
        "mode": result.mode,
        "n_dims": result.n_dims,
        "base": result.base,
        "lhs": _tagged(result.lhs, units),
        "bound": _tagged(result.bound, units),
        "margin": _tagged(result.margin, units),
        "bound_terms": list(result.bound_terms),
        "violated": result.violated,
        "significance": {
            "sigma": boot.significance,
            "n_boot": boot.n_boot,
            "seed": list(boot.seed),
            "margin_mean": _tagged(boot.margin_mean, units),
            "margin_std": _tagged(boot.margin_std, units),
            "rejected_replicates": boot.rejected_replicates,
        },
        "grids": {name: [grid_to_dict(g) for g in gs] for name, gs in grids.items()},
        "config": config.to_dict(),
        "config_hash": config_hash(config),
    }
    if clipped is not None:
        doc["clipped_fraction"] = dict(clipped)
    return doc


def dump_json(doc: Mapping[str, Any], out: str | Path | TextIO) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    _write_text(text, out)


def _write_text(text: str, out: str | Path | TextIO) -> None:
    if hasattr(out, "write"):
        out.write(text)  # type: ignore[union-attr]
    elif out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# ------------------------------------------------------------------- tables


def _write_table(
    title: str,
    meta: Mapping[str, Any],
    header: str,
    rows: Iterable[Sequence[Any]],
    out: str | Path | TextIO,
) -> None:
    """``#`` metadata lines, the header, then one CSV row per entry: integers
    as ``str``, floats as ``repr`` (which round-trips exactly)."""
    lines = [f"# eprsteering {title} v1", *(f"# {k}={v}" for k, v in meta.items()), header]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row))
    _write_text("\n".join(lines) + "\n", out)


def write_map_csv(
    sweep: ResolutionSweep,
    out: str | Path | TextIO,
    extra_meta: Mapping[str, Any] | None = None,
) -> None:
    """Asymmetric resolution sweep as CSV, one row per (res_a, res_b) cell."""
    meta: dict[str, Any] = {
        "direction": sweep.direction.value,
        "base": repr(sweep.base),
        "n_boot": sweep.n_boot,
        "seed": sweep.seed,
    }
    if extra_meta:
        meta.update(extra_meta)
    header = (
        "resolution_a,resolution_b,lhs,bound,margin,significance,"
        "margin_boot_mean,margin_boot_std,rejected_replicates"
    )
    rows = [
        (c.resolution_a, c.resolution_b, c.result.lhs, c.result.bound, c.result.margin,
         c.report.significance, c.report.margin_mean, c.report.margin_std, c.report.rejected_replicates)
        for c in sweep.cells
    ]
    _write_table("map", meta, header, rows, out)


def write_curve_csv(
    points: Iterable[CurvePoint],
    out: str | Path | TextIO,
    extra_meta: Mapping[str, Any] | None = None,
) -> None:
    """Resolution curve as CSV, one row per symmetric resolution."""
    rows = [(p.resolution, p.inv_window_product, p.lhs, p.bound, p.margin) for p in points]
    _write_table("curve", extra_meta or {}, "resolution,inv_window_product,lhs,bound,margin", rows, out)
