import io as stdio
import json
import math

import numpy as np
import pytest

from eprsteering import (
    AxisGrid,
    DimensionMismatchError,
    GridSpec,
    Histogram,
    NegativeCountError,
    Observable,
    ParseError,
    RunConfig,
    SyntheticConfig,
    UsageError,
    asymmetry_map,
    config_hash,
    evaluate,
    load_histogram,
    make_synthetic_state,
    read_counts_csv,
    read_grid_json,
    sample_histograms,
    save_histogram,
    sidecar_path,
    units_name,
    witness_report,
    witness_significance,
    write_counts_csv,
    write_curve_csv,
    write_grid_json,
    write_map_csv,
)
from eprsteering.cli import main
from eprsteering.coarse import resolution_curve


def small_histogram(n: int = 4) -> Histogram:
    ax = AxisGrid.centered(n, 2.0)
    grid = GridSpec(Observable.POSITION, (ax,), (ax,))
    rng = np.random.default_rng(0)
    return Histogram(rng.integers(0, 50, size=(n, n)), grid)


# ------------------------------------------------------------- file formats


def test_counts_csv_round_trip(tmp_path):
    hist = small_histogram()
    path = tmp_path / "counts.csv"
    write_counts_csv(hist, path)
    back = read_counts_csv(path)
    np.testing.assert_array_equal(back.counts, hist.counts.counts)


def test_counts_csv_round_trip_holds_large_values(tmp_path):
    ax = AxisGrid(2, 1.0)
    grid = GridSpec(Observable.POSITION, (ax,), (ax,))
    big = np.array([[2**62, 0], [1, 2**53 + 1]], dtype=np.uint64)
    path = tmp_path / "big.csv"
    write_counts_csv(Histogram(big, grid), path)
    np.testing.assert_array_equal(read_counts_csv(path).counts, big)


def test_counts_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("# header\n\n1,2\n# mid comment\n3,4\n\n")
    np.testing.assert_array_equal(read_counts_csv(path).counts, [[1, 2], [3, 4]])


def test_counts_csv_bad_token_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,x\n")
    with pytest.raises(ParseError) as err:
        read_counts_csv(path)
    assert "bad.csv:2" in str(err.value)


def test_counts_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ParseError):
        read_counts_csv(path)


def test_counts_csv_negative_count_rejected(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("1,2\n-3,4\n")
    with pytest.raises(NegativeCountError) as err:
        read_counts_csv(path)
    assert "neg.csv:2" in str(err.value)


def test_counts_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing here\n")
    with pytest.raises(ParseError):
        read_counts_csv(path)


def test_grid_json_round_trip(tmp_path):
    ax_a = AxisGrid(6, 0.25, origin=-0.75)
    ax_b = AxisGrid(3, 0.5, origin=-0.75)
    grid = GridSpec(Observable.MOMENTUM, (ax_a,), (ax_b,))
    path = tmp_path / "grid.json"
    write_grid_json(grid, path)
    back = read_grid_json(path)
    assert back == grid


def test_grid_json_checks_redundant_extent(tmp_path):
    path = tmp_path / "grid.json"
    write_grid_json(
        GridSpec(Observable.POSITION, (AxisGrid(4, 0.5),), (AxisGrid(4, 0.5),)), path
    )
    doc = json.loads(path.read_text())
    doc["axes_a"][0]["extent"] = 3.0  # inconsistent with 4 * 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="extent"):
        read_grid_json(path)


def test_grid_json_rejects_malformed_documents(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        read_grid_json(path)
    path.write_text(json.dumps({"format": "eprsteering-grid-v1"}))
    with pytest.raises(ParseError):
        read_grid_json(path)


def test_save_load_histogram_uses_sidecar(tmp_path):
    hist = small_histogram()
    counts_path = tmp_path / "run.csv"
    save_histogram(hist, counts_path)
    assert sidecar_path(counts_path).name == "run.grid.json"
    assert sidecar_path(counts_path).exists()
    back = load_histogram(counts_path)
    np.testing.assert_array_equal(back.counts.counts, hist.counts.counts)
    assert back.grid == hist.grid


# ---------------------------------------------------------------- run config


def test_run_config_requires_exactly_one_source():
    with pytest.raises(UsageError):
        RunConfig()
    with pytest.raises(UsageError):
        RunConfig(position_counts=("p.csv",), momentum_counts=("m.csv",),
                  synthetic=SyntheticConfig())


def test_run_config_file_count_mismatch():
    with pytest.raises(DimensionMismatchError):
        RunConfig(position_counts=("a.csv", "b.csv"), momentum_counts=("m.csv",))
    with pytest.raises(UsageError):
        RunConfig(
            position_counts=("a.csv",),
            momentum_counts=("m.csv",),
            position_grids=("g1.json", "g2.json"),
        )


def test_run_config_takes_the_bootstrap_replicate_minimum():
    assert RunConfig(synthetic=SyntheticConfig(), n_boot=100).n_boot == 100
    with pytest.raises(UsageError, match="n_boot must be >= 100"):
        RunConfig(synthetic=SyntheticConfig(), n_boot=99)


def test_config_hash_stable_and_sensitive():
    a = RunConfig(synthetic=SyntheticConfig(), seed=3)
    b = RunConfig(synthetic=SyntheticConfig(), seed=3)
    c = RunConfig(synthetic=SyntheticConfig(), seed=4)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 12
    # dict input with shuffled key order hashes identically
    d = a.to_dict()
    shuffled = dict(reversed(list(d.items())))
    assert config_hash(d) == config_hash(shuffled)


def test_units_name():
    assert units_name(2.0) == "bit"
    assert units_name(math.e) == "nat"
    assert units_name(10.0) == "hartley"
    assert "4" in units_name(4.0)


# ------------------------------------------------------------ report schema


def test_witness_report_document(tmp_path):
    state = make_synthetic_state(n_windows=8)
    pos, mom = sample_histograms(state, total=100_000, seed=2)
    result = evaluate(pos.normalize(), mom.normalize())
    boot = witness_significance(pos, mom, n_boot=100, seed=2)
    config = RunConfig(synthetic=SyntheticConfig(n_windows=8, total=100_000), seed=2,
                       n_boot=100)
    doc = witness_report(
        boot,
        config,
        grids={"position": [pos.grid], "momentum": [mom.grid]},
        clipped={"position": state.clipped_position, "momentum": state.clipped_momentum},
    )
    assert doc["format"] == "eprsteering-witness-v1"
    assert doc["direction"] == "B_given_A"
    assert doc["lhs"]["units"] == "bit"
    assert doc["margin"]["value"] == pytest.approx(result.margin)
    assert doc["violated"] == result.violated
    sig = doc["significance"]
    assert sig["sigma"] == boot.significance
    assert sig["n_boot"] == 100
    assert doc["config_hash"] == config_hash(config)
    assert doc["clipped_fraction"]["position"] == state.clipped_position
    # document must be JSON-serializable as-is
    json.dumps(doc)


def test_map_csv_layout():
    state = make_synthetic_state(n_windows=8)
    pos, mom = sample_histograms(state, total=100_000, seed=6)
    sweep = asymmetry_map(pos, mom, [2, 8], [8], n_boot=100, seed=1)
    buf = stdio.StringIO()
    write_map_csv(sweep, buf, extra_meta={"config_hash": "abc"})
    lines = buf.getvalue().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines if l and not l.startswith("#")]
    assert any("eprsteering map v1" in l for l in meta)
    assert any("config_hash" in l for l in meta)
    header, *data = rows
    assert header.split(",")[:4] == ["resolution_a", "resolution_b", "lhs", "bound"]
    assert len(data) == 2
    first = data[0].split(",")
    assert first[0] == "2" and first[1] == "8"


def test_curve_csv_layout():
    state = make_synthetic_state(n_windows=8)
    points = resolution_curve(state.position, state.momentum, resolutions=[2, 4, 8])
    buf = stdio.StringIO()
    write_curve_csv(points, buf, extra_meta={})
    rows = [l for l in buf.getvalue().splitlines() if l and not l.startswith("#")]
    assert rows[0] == "resolution,inv_window_product,lhs,bound,margin"
    assert len(rows) == 4
    # repr round-trip keeps full precision
    assert float(rows[1].split(",")[4]) == points[0].margin


# ------------------------------------------------------------------- CLI


def run_cli(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(
        [
            "synth",
            "--out-dir",
            str(out),
            "--n-windows",
            "8",
            "--total",
            "100000",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return out


def test_synth_writes_expected_files(synth_dir):
    names = {p.name for p in synth_dir.iterdir()}
    assert names == {
        "position.csv",
        "position.grid.json",
        "momentum.csv",
        "momentum.grid.json",
        "manifest.json",
    }
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["format"] == "eprsteering-synth-v1"
    assert manifest["seed"] == 3
    assert manifest["synthetic"]["n_windows"] == 8
    pos = load_histogram(synth_dir / "position.csv")
    assert pos.total == manifest["totals"]["position"]


def test_witness_from_files_matches_synthetic_mode(synth_dir, tmp_path):
    out_files = tmp_path / "from_files.json"
    out_synth = tmp_path / "from_synth.json"
    code = run_cli(
        "witness",
        "--position", str(synth_dir / "position.csv"),
        "--momentum", str(synth_dir / "momentum.csv"),
        "--boot", "100",
        "--seed", "3",
        "--output", str(out_files),
    )
    assert code == 0
    code = run_cli(
        "witness",
        "--synthetic",
        "--n-windows", "8",
        "--total", "100000",
        "--boot", "100",
        "--seed", "3",
        "--output", str(out_synth),
    )
    assert code == 0
    a = json.loads(out_files.read_text())
    b = json.loads(out_synth.read_text())
    # identical counts and bootstrap keys give bit-identical numbers
    for key in ("lhs", "bound", "margin"):
        assert a[key]["value"] == b[key]["value"]
    assert a["significance"]["sigma"] == b["significance"]["sigma"]
    # provenance differs: one lists files, the other the generating model
    assert a["config_hash"] != b["config_hash"]


def test_witness_direction_and_base_flags(synth_dir, tmp_path):
    out = tmp_path / "sym.json"
    code = run_cli(
        "witness",
        "--position", str(synth_dir / "position.csv"),
        "--momentum", str(synth_dir / "momentum.csv"),
        "--direction", "sym",
        "--base", "e",
        "--boot", "100",
        "--output", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["direction"] == "symmetric"
    assert doc["lhs"]["units"] == "nat"


def test_map_runs_are_byte_identical(synth_dir, tmp_path):
    first = tmp_path / "map1.csv"
    second = tmp_path / "map2.csv"
    argv = [
        "map",
        "--position", str(synth_dir / "position.csv"),
        "--momentum", str(synth_dir / "momentum.csv"),
        "--res-a", "2,8",
        "--res-b", "8",
        "--boot", "100",
        "--seed", "5",
    ]
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_curve_command_writes_rows(synth_dir, tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli(
        "curve",
        "--position", str(synth_dir / "position.csv"),
        "--momentum", str(synth_dir / "momentum.csv"),
        "--resolutions", "2,4,8",
        "--output", str(out),
    )
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert len(rows) == 4  # header plus one row per resolution


def test_selftest_command_passes(capsys):
    assert run_cli("selftest") == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


# ------------------------------------------------------------- exit codes


def test_usage_errors_exit_one(synth_dir, capsys):
    assert run_cli("witness") == 1  # no event source
    assert run_cli("witness", "--synthetic", "--boot", "10") == 1
    assert run_cli("witness", "--no-such-flag") == 1
    assert (
        run_cli(
            "curve",
            "--position", str(synth_dir / "position.csv"),
            "--momentum", str(synth_dir / "momentum.csv"),
            "--direction", "sym",
        )
        == 1
    )
    assert run_cli("witness", "--sigma-plus", "1e-4") == 1  # model flag without --synthetic
    capsys.readouterr()


def _never(*args, **kwargs):
    raise AssertionError("reached before the --boot check")


def test_too_few_replicates_exit_one_before_any_work(synth_dir, monkeypatch, capsys):
    monkeypatch.setattr("eprsteering.cli.make_synthetic_state", _never)
    monkeypatch.setattr("eprsteering.coarse.downsample", _never)
    files = ["--position", str(synth_dir / "position.csv"), "--momentum", str(synth_dir / "momentum.csv")]
    for argv in (
        ["witness", "--synthetic"],
        ["witness", *files],
        ["map", *files],
        ["map", "--synthetic"],
        ["curve", *files],
    ):
        assert run_cli(*argv, "--boot", "50") == 1
        assert "n_boot must be >= 100" in capsys.readouterr().err


def test_data_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert run_cli("witness", "--position", str(missing), "--momentum", str(missing)) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,x\n")
    grid = tmp_path / "bad.grid.json"
    write_grid_json(
        GridSpec(Observable.POSITION, (AxisGrid(2, 1.0),), (AxisGrid(2, 1.0),)), grid
    )
    code = run_cli("witness", "--position", str(bad), "--momentum", str(bad))
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.csv:2" in err


def test_numerical_errors_exit_three(capsys):
    code = run_cli("witness", "--synthetic", "--clip-tol", "1e-4", "--boot", "100")
    assert code == 3
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "eprsteer" in capsys.readouterr().out
