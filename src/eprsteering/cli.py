"""Command-line interface.

Subcommands::

    eprsteer witness   evaluate one witness, with bootstrap significance
    eprsteer map       margins over a grid of per-party resolutions (CSV)
    eprsteer curve     margins across symmetric coarse-grainings (CSV)
    eprsteer synth     write synthetic counts + grid files to a directory
    eprsteer selftest  run the built-in consistency battery

Exit codes: 0 success (and, for selftest, all checks passing), 1 usage
errors, 2 malformed data, 3 violated numerical contracts.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import Sequence

from . import __version__
from .bootstrap import witness_significance
from .coarse import asymmetry_map, resolution_curve
from .errors import DataError, NumericalError, UsageError
from .grids import Histogram
from .io import (
    RunConfig,
    SyntheticConfig,
    config_hash,
    dump_json,
    load_histogram,
    save_histogram,
    sidecar_path,
    witness_report,
    write_curve_csv,
    write_map_csv,
)
from .spdc import (
    DoubleGaussianParams,
    make_synthetic_state,
    sample_histograms,
)
from .witness import Direction

_DIRECTIONS = {"ba": Direction.B_GIVEN_A, "ab": Direction.A_GIVEN_B, "sym": Direction.SYMMETRIC}
_BASES = {"2": 2.0, "e": math.e, "10": 10.0}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the usage contract here is 1."""

    def error(self, message: str):
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _whole_number(text: str) -> int:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}")
    return int(value)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--direction",
        choices=sorted(_DIRECTIONS),
        default="ba",
        help="witness direction: ba = steering of B by A, ab = the reverse, "
        "sym = symmetric mutual-information witness (default ba)",
    )
    p.add_argument("--base", choices=sorted(_BASES), default="2", help="log base (default 2)")
    p.add_argument("--boot", type=int, default=1000, help="bootstrap replicates (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed (default 0)")
    p.add_argument("--output", default="-", help="output path, '-' for stdout (default)")


def _add_model(p: argparse.ArgumentParser, purpose: str) -> None:
    model = p.add_argument_group(purpose)
    model.add_argument("--sigma-plus", type=float, default=None, help="sum-mode width")
    model.add_argument("--sigma-minus", type=float, default=None, help="difference-mode width")
    model.add_argument("--extent-x", type=float, default=None, help="position viewing extent")
    model.add_argument("--extent-k", type=float, default=None, help="momentum viewing extent")
    model.add_argument("--n-windows", type=int, default=None, help="windows per axis")
    model.add_argument("--total", type=_whole_number, default=None, help="events per observable")
    model.add_argument("--clip-tol", type=float, default=None, help="allowed clipped tail mass")


def _add_inputs(p: argparse.ArgumentParser) -> None:
    src = p.add_argument_group("event source (counts files, or --synthetic)")
    src.add_argument(
        "--position",
        nargs="+",
        default=[],
        metavar="CSV",
        help="position counts CSV (two files = two independent transverse axes)",
    )
    src.add_argument("--momentum", nargs="+", default=[], metavar="CSV", help="momentum counts CSV")
    src.add_argument(
        "--position-grid",
        nargs="+",
        default=[],
        metavar="JSON",
        help="grid sidecar(s); defaults to <counts>.grid.json",
    )
    src.add_argument("--momentum-grid", nargs="+", default=[], metavar="JSON")
    src.add_argument("--synthetic", action="store_true", help="sample the built-in model state")
    _add_model(p, "synthetic state (with --synthetic)")


def _model_flags(args: argparse.Namespace) -> dict:
    """The model flags given on the command line, keyed by ``SyntheticConfig`` field."""
    given = {f.name: getattr(args, f.name) for f in fields(SyntheticConfig)}
    return {name: value for name, value in given.items() if value is not None}


def _run_config(args: argparse.Namespace, *, direction: Direction) -> RunConfig:
    flags = _model_flags(args)
    if flags and not args.synthetic:
        flag = next(iter(flags)).replace("_", "-")
        raise UsageError(f"--{flag} only makes sense with --synthetic")
    synthetic = SyntheticConfig(**flags) if args.synthetic else None
    return RunConfig(
        direction=direction,
        base=_BASES[args.base],
        n_boot=args.boot,
        seed=args.seed,
        position_counts=tuple(args.position),
        position_grids=tuple(getattr(args, "position_grid")),
        momentum_counts=tuple(args.momentum),
        momentum_grids=tuple(getattr(args, "momentum_grid")),
        synthetic=synthetic,
    )


def _load_blocks(counts: Sequence[str], grids: Sequence[str]) -> list[Histogram]:
    paths = list(counts)
    grid_paths: list[str | None] = list(grids) if grids else [None] * len(paths)
    return [load_histogram(c, g) for c, g in zip(paths, grid_paths)]


def _sample_synthetic(syn: SyntheticConfig, seed: int) -> tuple[Histogram, Histogram, dict[str, float]]:
    """Sampled position and momentum histograms of the model state, and its clipped mass."""
    state = make_synthetic_state(
        DoubleGaussianParams(syn.sigma_plus, syn.sigma_minus),
        n_windows=syn.n_windows,
        extent_x=syn.extent_x,
        extent_k=syn.extent_k,
        clip_tol=syn.clip_tol,
    )
    pos, mom = sample_histograms(state, total=syn.total, seed=seed)
    return pos, mom, {"position": state.clipped_position, "momentum": state.clipped_momentum}


def _gather(config: RunConfig) -> tuple[list[Histogram], list[Histogram], dict[str, float] | None]:
    """Histogram blocks for both observables, and the clipped mass of a synthetic state."""
    if config.synthetic is not None:
        pos, mom, clipped = _sample_synthetic(config.synthetic, config.seed)
        return [pos], [mom], clipped
    pos = _load_blocks(config.position_counts, config.position_grids)
    mom = _load_blocks(config.momentum_counts, config.momentum_grids)
    return pos, mom, None


def _cmd_witness(args: argparse.Namespace) -> int:
    config = _run_config(args, direction=_DIRECTIONS[args.direction])
    pos, mom, clipped = _gather(config)
    boot = witness_significance(
        pos, mom, direction=config.direction, n_boot=config.n_boot, seed=config.seed, base=config.base
    )
    doc = witness_report(
        boot,
        config,
        grids={"position": [h.grid for h in pos], "momentum": [h.grid for h in mom]},
        clipped=clipped,
    )
    dump_json(doc, args.output)
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    config = _run_config(args, direction=_DIRECTIONS[args.direction])
    pos, mom, _ = _gather(config)
    if len(pos) != 1 or len(mom) != 1:
        raise UsageError("resolution maps need exactly one counts file per observable")
    sweep = asymmetry_map(
        pos[0],
        mom[0],
        args.res_a,
        args.res_b,
        direction=config.direction,
        n_boot=config.n_boot,
        seed=config.seed,
        base=config.base,
    )
    write_map_csv(sweep, args.output, extra_meta={"config_hash": config_hash(config)})
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    config = _run_config(args, direction=_DIRECTIONS[args.direction])
    if config.direction is Direction.SYMMETRIC:
        raise UsageError("curves are for the directed witness; pick ba or ab")
    pos, mom, _ = _gather(config)
    if len(pos) != 1 or len(mom) != 1:
        raise UsageError("resolution curves need exactly one counts file per observable")
    points = resolution_curve(
        pos[0],
        mom[0],
        resolutions=args.resolutions,
        direction=config.direction,
        base=config.base,
    )
    write_curve_csv(points, args.output, extra_meta={"config_hash": config_hash(config)})
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    syn = SyntheticConfig(**_model_flags(args))
    config = RunConfig(
        direction=Direction.B_GIVEN_A, base=2.0, n_boot=100, seed=args.seed, synthetic=syn
    )
    pos, mom, clipped = _sample_synthetic(syn, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_histogram(pos, out / "position.csv")
    save_histogram(mom, out / "momentum.csv")
    manifest = {
        "format": "eprsteering-synth-v1",
        "seed": args.seed,
        "synthetic": config.to_dict()["synthetic"],
        "config_hash": config_hash(config),
        "clipped_fraction": clipped,
        "totals": {"position": pos.total, "momentum": mom.total},
        "files": {
            "position": "position.csv",
            "position_grid": sidecar_path("position.csv").name,
            "momentum": "momentum.csv",
            "momentum_grid": sidecar_path("momentum.csv").name,
        },
    }
    dump_json(manifest, out / "manifest.json")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_all

    results = run_all(seed=args.seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    if failed:
        raise NumericalError(f"{failed} selftest check(s) failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eprsteer", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_wit = sub.add_parser("witness", help="evaluate one steering witness", parents=[])
    _add_inputs(p_wit)
    _add_common(p_wit)
    p_wit.set_defaults(func=_cmd_witness)

    p_map = sub.add_parser("map", help="asymmetric resolution sweep as CSV")
    _add_inputs(p_map)
    _add_common(p_map)
    p_map.add_argument("--res-a", type=_int_list, default=[2, 3, 4, 6, 8, 12, 24], help="party-A window counts (comma-separated)")
    p_map.add_argument("--res-b", type=_int_list, default=[2, 3, 4, 6, 8, 12, 24], help="party-B window counts")
    p_map.set_defaults(func=_cmd_map)

    p_curve = sub.add_parser("curve", help="symmetric resolution curve as CSV")
    _add_inputs(p_curve)
    _add_common(p_curve)
    p_curve.add_argument("--resolutions", type=_int_list, default=None, help="window counts (default: every divisor of the base grid)")
    p_curve.set_defaults(func=_cmd_curve)

    p_synth = sub.add_parser("synth", help="write synthetic counts and grid files")
    _add_model(p_synth, "synthetic state")
    p_synth.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p_synth.add_argument("--out-dir", required=True, help="directory for the generated files")
    p_synth.set_defaults(func=_cmd_synth)

    p_self = sub.add_parser("selftest", help="run the built-in consistency battery")
    p_self.add_argument("--seed", type=int, default=0, help="seed for the randomized checks")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
