"""Spans around calls into each eprsteering module, recorded from outside the package.

:meth:`Tracer.install` replaces each traced function with a wrapper under
every name a package module looks it up by (``bootstrap.evaluate``,
``cli.load_histogram``, ...), and ``Histogram.normalize`` on its class.  A
span is ``(name, parent, op, start, end, n)``: ``parent`` is the index of the
enclosing span or -1, ``op`` the traced op it belongs to (-1 for set-up), and
``n`` a per-call work count (cells, replicates) where one applies.

:meth:`Tracer.fold` adds the finished spans to per-layer totals; the spans
of the folds marked ``keep`` (set-up and the first traced op) stay in memory
until :meth:`Tracer.write`, and the rest are dropped, which bounds memory
on ops with ~10^5 spans.

Nothing here imports ``eprsteering``; modules are found in ``sys.modules``.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path
from time import perf_counter

import numpy as np


def _cells(args, kwargs, result) -> int:
    dist = args[0] if args else kwargs["dist"]
    return int(np.size(getattr(dist, "probs", dist)))


#: (span name, defining module, attribute, work count from (args, kwargs, result)).
FUNCTIONS = (
    ("cli.main", "eprsteering.cli", "main", None),
    ("io.load_histogram", "eprsteering.io", "load_histogram", None),
    ("io.witness_report", "eprsteering.io", "witness_report", None),
    ("io.dump_json", "eprsteering.io", "dump_json", None),
    ("spdc.make_synthetic_state", "eprsteering.spdc", "make_synthetic_state", None),
    ("spdc.sample_histograms", "eprsteering.spdc", "sample_histograms", None),
    ("coarse.asymmetry_map", "eprsteering.coarse", "asymmetry_map", None),
    ("coarse.downsample", "eprsteering.coarse", "downsample", None),
    (
        "bootstrap.witness_significance",
        "eprsteering.bootstrap",
        "witness_significance",
        lambda args, kwargs, result: result.n_boot,
    ),
    ("bootstrap.replicate_rng", "eprsteering.bootstrap", "replicate_rng", None),
    (
        "bootstrap.poisson_resample",
        "eprsteering.bootstrap",
        "poisson_resample",
        lambda args, kwargs, result: int(result.counts.size),
    ),
    ("witness.evaluate", "eprsteering.witness", "evaluate", None),
    ("entropy.conditional_entropy", "eprsteering.entropy", "conditional_entropy", _cells),
    ("entropy.mutual_information", "eprsteering.entropy", "mutual_information", _cells),
)

#: (span name, defining module, class, method).
METHODS = (("grids.Histogram.normalize", "eprsteering.grids", "Histogram", "normalize"),)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.kept: list[tuple] = []
        #: (name, is an op span) -> [calls, seconds, self seconds, work count]
        self.totals: dict[tuple[str, bool], list] = {}
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def record(self, name: str, start: float, end: float, n: int = 0) -> None:
        """A span timed by the caller, such as the package import."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, parent, self.op, start, end, n))

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                n = count(args, kwargs, result) if count is not None and result is not None else 0
                spans[idx] = (name, parent, self.op, start, end, n)

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "eprsteering" or key.startswith("eprsteering.")
        ]
        for name, modname, attr, count in FUNCTIONS:
            if modname not in sys.modules:
                continue
            orig = getattr(sys.modules[modname], attr)
            traced = self.wrap(name, orig, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, traced)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self.wrap(name, orig))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def fold(self, keep: bool) -> None:
        """Add the finished spans to the totals, keep them for :meth:`write` if asked, and drop them.

        Self time is a span's duration minus its children's durations;
        spans nest strictly because every traced call is on one thread.
        """
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, _, op, start, end, n) in enumerate(self.spans):
            a = self.totals.setdefault((name, op >= 0), [0, 0.0, 0.0, 0])
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child[i]
            a[3] += n
        if keep:
            base = len(self.kept)
            self.kept += [(s[0], s[1] + base if s[1] >= 0 else -1, *s[2:]) for s in self.spans]
        self.spans.clear()

    def write(self, path: Path) -> None:
        self.fold(keep=True)
        lines = [f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]!r}\t{s[4]!r}\t{s[5]}" for s in self.kept]
        Path(path).write_text("\n".join(lines) + "\n" if lines else "")


#: Per-layer metrics read straight from op spans, per traced op: (span, field).
_SPAN_FIELDS = (
    ("cli.main", "s"),
    ("cli.main", "self_s"),
    ("io.load_histogram", "calls"),
    ("io.load_histogram", "s"),
    ("io.witness_report", "s"),
    ("io.dump_json", "s"),
    ("coarse.asymmetry_map", "self_s"),
    ("coarse.downsample", "calls"),
    ("coarse.downsample", "s"),
    ("bootstrap.witness_significance", "calls"),
    ("bootstrap.witness_significance", "s"),
    ("bootstrap.witness_significance", "self_s"),
    ("bootstrap.replicate_rng", "calls"),
    ("bootstrap.replicate_rng", "s"),
    ("bootstrap.poisson_resample", "calls"),
    ("bootstrap.poisson_resample", "s"),
    ("grids.Histogram.normalize", "calls"),
    ("grids.Histogram.normalize", "s"),
    ("witness.evaluate", "calls"),
    ("witness.evaluate", "s"),
    ("witness.evaluate", "self_s"),
    ("entropy.conditional_entropy", "calls"),
    ("entropy.conditional_entropy", "s"),
    ("entropy.mutual_information", "calls"),
    ("entropy.mutual_information", "s"),
)
_FIELD = {"calls": (0, "count"), "s": (1, "s"), "self_s": (2, "s")}


def layer_metrics(tracer: Tracer, n_ops: int, overhead: float) -> dict:
    """Every per-layer metric, as ``{name: {"value", "unit"}}``.

    Op metrics are per traced op.  Set-up spans (``spdc``) are totals for
    the one set-up of the run, ``import`` included.  ``overhead`` is the
    traced op time over the untraced one, minus 1.
    """
    zero = [0, 0.0, 0.0, 0]
    per_op = {name: a for (name, is_op), a in tracer.totals.items() if is_op}
    setup = {name: a for (name, is_op), a in tracer.totals.items() if not is_op}
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    imp = setup.get("import", zero)
    put("import.s", imp[1], "s")
    put("import.modules", imp[3], "count")
    for span, field in _SPAN_FIELDS:
        index, unit = _FIELD[field]
        put(f"{span}.{field}", per_op.get(span, zero)[index] / n_ops, unit)
    for span in ("spdc.make_synthetic_state", "spdc.sample_histograms"):
        put(f"{span}.s", setup.get(span, zero)[1], "s")

    boot = per_op.get("bootstrap.witness_significance", zero)
    draws = per_op.get("bootstrap.replicate_rng", zero)[0]
    replicates = boot[3]
    put("bootstrap.us_per_replicate", boot[1] / replicates * 1e6 if replicates else 0.0, "us")
    put("bootstrap.replicates", replicates / n_ops, "count")
    put("bootstrap.rejected", (draws - replicates) / n_ops, "count")
    put("bootstrap.accept_ratio", replicates / draws if draws else 0.0, "ratio")
    put("bootstrap.poisson_resample.cells", per_op.get("bootstrap.poisson_resample", zero)[3] / n_ops, "count")
    cells = sum(per_op.get(s, zero)[3] for s in ("entropy.conditional_entropy", "entropy.mutual_information"))
    put("entropy.cells", cells / n_ops, "count")
    put("trace.overhead", overhead, "ratio")
    return metrics
