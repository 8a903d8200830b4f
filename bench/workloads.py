"""The benchmark's workloads: input generation, one op, output digests, and the gate.

Each workload builds its inputs from a seed with the package's synthetic
model, runs one op on them, and can check an op's output against the
independent reference in :mod:`gate`.  An op is a fixed list of steps, each
one public call into the package, which the benchmark times one by one.  Package functions are always reached through their module
attribute at call time (``coarse.asymmetry_map``), so the spans that
:mod:`tracer` installs see every call.
"""

from __future__ import annotations

import dataclasses
import contextlib
import hashlib
import json
import math
from io import StringIO
from pathlib import Path

import eprsteering.io as ep_io
import numpy as np
from eprsteering import cli, coarse, spdc

import gate

ROOT = Path(__file__).resolve().parent.parent

def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _relative(path: Path) -> Path:
    """Paths under the checkout are passed relative to it, so reports do not depend on where it is."""
    try:
        return path.resolve().relative_to(ROOT)
    except ValueError:
        return path


def _block(hist) -> gate.Block:
    return gate.Block(
        counts=np.asarray(hist.counts.counts).astype(np.int64),
        widths_a=hist.grid.widths("A"),
        widths_b=hist.grid.widths("B"),
    )


class Workload:
    def op(self, inputs):
        """One op, untimed: every step in order, assembled into the op's output."""
        return self.assemble([step() for step in self.steps(inputs)])


# ------------------------------------------------------------------ cli-witness


@dataclasses.dataclass(frozen=True)
class CliInputs:
    position: Path
    momentum: Path


@dataclasses.dataclass(frozen=True)
class CliWitness(Workload):
    """``eprsteer witness --boot 100 --seed K`` on counts files, for K = 0..9, through ``cli.main``.

    Each step is one CLI invocation in this process; its report is what
    ``python -m eprsteering witness`` prints.  Ten short invocations (1000
    replicates in all, as one default-flag run draws) rather than one long
    one keep each step short enough to time steadily.  Paths are relative to
    the checkout, which must be the working directory.
    """

    name = "cli-witness"
    direction = "B_given_A"
    #: Per invocation; the package's minimum.
    n_boot = 100
    boot_seeds = tuple(range(10))
    n_windows: int = spdc.DEFAULT_RESOLUTION

    @property
    def replicates(self) -> int:
        return self.n_boot * len(self.boot_seeds)

    def setup(self, seed: int, workdir: Path) -> CliInputs:
        workdir.mkdir(parents=True, exist_ok=True)
        state = spdc.make_synthetic_state(n_windows=self.n_windows)
        pos, mom = spdc.sample_histograms(state, seed=seed)
        ep_io.save_histogram(pos, workdir / "position.csv")
        ep_io.save_histogram(mom, workdir / "momentum.csv")
        return CliInputs(_relative(workdir / "position.csv"), _relative(workdir / "momentum.csv"))

    def steps(self, inputs: CliInputs) -> list:
        return [lambda k=k: self._witness(inputs, k) for k in self.boot_seeds]

    def assemble(self, outs: list) -> list:
        return outs

    def _witness(self, inputs: CliInputs, boot_seed: int) -> bytes:
        args = [
            "witness",
            "--position", str(inputs.position),
            "--momentum", str(inputs.momentum),
            "--boot", str(self.n_boot),
            "--seed", str(boot_seed),
        ]
        out, err = StringIO(), StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        if code != 0:
            raise RuntimeError(f"CLI exit code {code}: {err.getvalue().strip()[-300:]}")
        return out.getvalue().encode()

    def digests(self, out: list) -> dict[str, str]:
        return {f"witness-seed{k}.json": sha256(report) for k, report in zip(self.boot_seeds, out)}

    def check(self, inputs: CliInputs, out: list) -> list[str]:
        pos = [gate.read_block(ROOT / inputs.position, ROOT / ep_io.sidecar_path(inputs.position))]
        mom = [gate.read_block(ROOT / inputs.momentum, ROOT / ep_io.sidecar_path(inputs.momentum))]
        margin = gate.margin_bits(pos, mom, self.direction)
        found = []
        for k, report in zip(self.boot_seeds, out):
            doc = json.loads(report)
            label = f"seed {k}"
            if doc["direction"] != self.direction:
                found.append(f"{label}: report direction {doc['direction']!r}, expected {self.direction!r}")
            found += gate.compare(f"{label} margin", doc["margin"]["value"], margin)
            sig = doc["significance"]
            if sig["n_boot"] != self.n_boot:
                found.append(f"{label}: report n_boot {sig['n_boot']}, expected {self.n_boot}")
            if not math.isfinite(sig["sigma"]):
                found.append(f"{label}: significance is not finite: {sig['sigma']!r}")
            want = gate.bootstrap(pos, mom, self.direction, self.n_boot, (k,))
            mean, std = sig["margin_mean"]["value"], sig["margin_std"]["value"]
            found += gate.compare_boot(label, mean, std, sig["rejected_replicates"], want)
        return found


# ----------------------------------------------------------------------- map-1d


@dataclasses.dataclass(frozen=True)
class Map1D(Workload):
    """The symmetric witness over the CLI's default resolution map (both parties at 2..24 windows).

    Each step is one public ``asymmetry_map`` call for one cell.  Cell
    randomness is keyed by ``(seed, res_a, res_b)``, so the assembled map is
    the one a single call over all resolutions returns.
    """

    name = "map-1d"
    map_seed = 0
    #: The directed witness is the cli-witness workload's; this one maps the symmetric one.
    direction = "symmetric"
    #: The package's minimum, which keeps an op short (see BENCHMARK.json).
    n_boot = 100
    n_windows: int = spdc.DEFAULT_RESOLUTION
    resolutions: tuple[int, ...] = (2, 3, 4, 6, 8, 12, 24)

    @property
    def replicates(self) -> int:
        return len(self.resolutions) ** 2 * self.n_boot

    def setup(self, seed: int, workdir: Path):
        state = spdc.make_synthetic_state(n_windows=self.n_windows)
        return spdc.sample_histograms(state, seed=seed)

    def steps(self, inputs) -> list:
        pos, mom = inputs

        def cell(ra, rb):
            return lambda: coarse.asymmetry_map(
                pos, mom, (ra,), (rb,), direction=self.direction, n_boot=self.n_boot, seed=self.map_seed
            )

        return [cell(ra, rb) for ra in self.resolutions for rb in self.resolutions]

    def assemble(self, outs: list):
        return dataclasses.replace(
            outs[0],
            resolutions_a=self.resolutions,
            resolutions_b=self.resolutions,
            cells=tuple(c for sweep in outs for c in sweep.cells),
        )

    def digests(self, sweep) -> dict[str, str]:
        buf = StringIO()
        ep_io.write_map_csv(sweep, buf)
        return {"map.csv": sha256(buf.getvalue())}

    def check(self, inputs, sweep) -> list[str]:
        pos, mom = (_block(h) for h in inputs)
        found = []
        if sweep.direction.value != self.direction or sweep.n_boot != self.n_boot:
            found.append(f"map made for {sweep.direction.value}/{sweep.n_boot}, expected {self.direction}/{self.n_boot}")
        want_cells = [(ra, rb) for ra in self.resolutions for rb in self.resolutions]
        got_cells = [(c.resolution_a, c.resolution_b) for c in sweep.cells]
        if got_cells != want_cells:
            return found + [f"map cells {got_cells}, expected {want_cells}"]
        for cell in sweep.cells:
            ra, rb = cell.resolution_a, cell.resolution_b
            label = f"cell ({ra},{rb})"
            p = gate.coarsen(pos, self.n_windows // ra, self.n_windows // rb)
            m = gate.coarsen(mom, self.n_windows // ra, self.n_windows // rb)
            found += gate.compare(f"{label} margin", cell.result.margin, gate.margin_bits([p], [m], self.direction))
            if not math.isfinite(cell.report.significance):
                found.append(f"{label} significance is not finite")
            want = gate.bootstrap([p], [m], self.direction, self.n_boot, (self.map_seed, ra, rb))
            r = cell.report
            found += gate.compare_boot(label, r.margin_mean, r.margin_std, r.rejected_replicates, want)
        return found


WORKLOADS = {w.name: w for w in (CliWitness(), Map1D())}
