import hashlib
import io as stdio
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from eprsteering import bootstrap, cli, selftest
from eprsteering import io as ep_io
from eprsteering.bootstrap import _draw, _philox_keys, replicate_rng
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


def test_counts_csv_refuses_a_four_index_histogram(tmp_path):
    ax = AxisGrid(2, 1.0)
    hist = Histogram(np.ones((2, 2, 2, 2), dtype=np.int64), GridSpec(Observable.POSITION, (ax, ax), (ax, ax)))
    with pytest.raises(UsageError, match=r"^counts CSV holds one transverse axis \(a 2-D matrix\), got rank 4$"):
        write_counts_csv(hist, tmp_path / "c.csv")
    assert not (tmp_path / "c.csv").exists()


def test_counts_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("# header\n\n1,2\n# mid comment\n3,4\n\n")
    np.testing.assert_array_equal(read_counts_csv(path).counts, [[1, 2], [3, 4]])


def test_counts_csv_bad_token_reports_line(tmp_path):
    # int() would read the last three as 10, 12 and 12
    path = tmp_path / "bad.csv"
    for token in ("x", "1_0", "١٢", "１２"):
        path.write_text(f"1,2\n3,{token}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="not an integer count") as err:
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


@pytest.mark.parametrize(
    "row, error, message",
    [
        ("3,1_0", ParseError, "not an integer count: '1_0'"),
        ("3,１２", ParseError, "not an integer count: '１２'"),
        ("3,١٢", ParseError, "not an integer count: '١٢'"),
        ("3,-3", NegativeCountError, "negative count -3"),
        ("-1,-3", NegativeCountError, "negative count -1"),
        ("-3,x", NegativeCountError, "negative count -3"),
        ("x,-3", ParseError, "not an integer count: 'x'"),
        ("3,", ParseError, "not an integer count: ''"),
        ("3,3.0", ParseError, "not an integer count: '3.0'"),
        ("3,1e3", ParseError, "not an integer count: '1e3'"),
        ("3,4,5", ParseError, "row has 3 columns, expected 2 (as on line 2)"),
    ],
)
def test_counts_csv_refuses_a_row_with_its_error_and_line(row, error, message, tmp_path):
    # the first bad token in a row is the one reported, as a token-by-token read finds it
    path = tmp_path / "bad.csv"
    path.write_text(f"# comment\n1,2\n{row}\n", encoding="utf-8")
    with pytest.raises(error) as err:
        read_counts_csv(path)
    assert type(err.value) is error
    assert str(err.value) == f"{path}:3: {message}"


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ("1,2,3\n1_0,2\n", ParseError, "3: row has 3 columns, expected 2 (as on line 2)"),
        ("1_0,2\n1,2,3\n", ParseError, "3: not an integer count: '1_0'"),
        ("1,2\n3,-4\n5,x\n", NegativeCountError, "4: negative count -4"),
    ],
)
def test_counts_csv_reports_the_first_fault_in_file_order(rows, error, message, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"# comment\n1,2\n{rows}", encoding="utf-8")
    with pytest.raises(error) as err:
        read_counts_csv(path)
    assert type(err.value) is error
    assert str(err.value) == f"{path}:{message}"


def test_counts_csv_comments_may_hold_any_text(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("# run_id=α_1\n1,2\n# ١٢\n3,4\n", encoding="utf-8")
    np.testing.assert_array_equal(read_counts_csv(path).counts, [[1, 2], [3, 4]])


@pytest.mark.parametrize("token, value", [(" 7 ", 7), ("+5", 5), ("\t8", 8), ("-0", 0), ("007", 7)])
def test_counts_csv_accepts_what_int_reads_from_ascii(token, value, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(f"1,2\n3,{token}\n")
    np.testing.assert_array_equal(read_counts_csv(path).counts, [[1, 2], [3, value]])


def test_counts_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing here\n")
    with pytest.raises(ParseError):
        read_counts_csv(path)


@pytest.mark.parametrize(
    "token, outcome",
    [
        ("9999999999999999999", 9999999999999999999),
        ("10000000000000000000", 10000000000000000000),
        # read, then refused as a total: its float sum rounds to 2**64
        ("18446744073709551615", "total count exceeds the unsigned 64-bit range"),
        ("18446744073709551616", "count exceeds the unsigned 64-bit range"),
        ("000000000000000000000018", 18),
    ],
)
def test_counts_csv_reads_19_and_20_digit_tokens_as_int_does(token, outcome, tmp_path):
    # np.fromstring saturates 2**64 to 2**64 - 1, so it reads at most 19 digits
    path = tmp_path / "wide.csv"
    path.write_text(f"{token},0\n")
    if isinstance(outcome, int):
        assert read_counts_csv(path).counts.tolist() == [[outcome, 0]]
    else:
        with pytest.raises(ParseError) as err:
            read_counts_csv(path)
        assert str(err.value) == f"{path}: {outcome}"


#: Tokens a row may hold in place of a plain count: 19- and 20-digit counts
#: around 10**19 and 2**64, tokens that int() reads but the format refuses or
#: that only the checked loop reads, and tokens that neither reads.
ODD_TOKENS = [str(n) for n in (10**18 - 1, 10**18, 10**19 - 1, 10**19, 2**64 - 1, 2**64, 2**64 + 1)] + [
    "", "007", "+5", "-3", "-0", " 7", "7 ", "\t8", "1 2", "1_0", "١٢", "１２", "3.0", "1e3", "0x1", "x",
]


def read_outcome(path):
    """``read_counts_csv(path)``'s counts, or the type and message of what it raised."""
    try:
        counts = read_counts_csv(path).counts
    except Exception as exc:
        return type(exc), str(exc)
    return counts.dtype, counts.shape, counts.tobytes()


def assert_fast_parse_reads_what_the_checked_loop_reads(path):
    # the one np.fromstring call must return the checked loop's array, or
    # the checked loop must run and raise its own error; a numpy warning
    # from a partial parse is an error here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = read_outcome(path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ep_io, "_PLAIN_ROWS", re.compile(r"(?!)"))  # matches nothing: the checked loop reads every file
            checked = read_outcome(path)
    assert fast == checked


@pytest.mark.parametrize("token", ODD_TOKENS)
def test_counts_csv_fast_parse_reads_a_lone_odd_token_as_the_checked_loop(token, tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text(f"1,2\n3,{token}\n", encoding="utf-8")
    assert_fast_parse_reads_what_the_checked_loop_reads(path)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_counts_csv_fast_parse_reads_what_the_checked_loop_reads(tmp_path_factory, data):
    width = data.draw(st.integers(1, 4))
    lines = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            lines.append(data.draw(st.sampled_from(["", "# comment", " "])))
        columns = data.draw(st.sampled_from([width] * 4 + [width + 1, max(1, width - 1)]))
        tokens = data.draw(st.lists(st.integers(0, 10**6).map(str), min_size=columns, max_size=columns))
        # mostly plain rows, so a lone odd token is one the guard must catch
        for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
            tokens[data.draw(st.integers(0, columns - 1))] = data.draw(st.sampled_from(ODD_TOKENS))
        lines.append(",".join(tokens))
    path = tmp_path_factory.getbasetemp() / "fast-parse.csv"
    path.write_text(data.draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n", encoding="utf-8")
    assert_fast_parse_reads_what_the_checked_loop_reads(path)


def test_counts_and_grid_files_read_past_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts a file with the mark
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf# eprsteering counts v1\r\n1,2\r\n3,4\r\n")
    np.testing.assert_array_equal(read_counts_csv(path).counts, [[1, 2], [3, 4]])
    grid = tmp_path / "bom.grid.json"
    write_grid_json(small_histogram().grid, grid)
    plain = read_grid_json(grid)
    grid.write_bytes(b"\xef\xbb\xbf" + grid.read_bytes().replace(b"\n", b"\r\n"))
    assert read_grid_json(grid) == plain


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


def test_run_config_refuses_files_for_one_observable():
    with pytest.raises(UsageError, match="^counts files are needed for both observables$"):
        RunConfig(position_counts=("p.csv",))


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


def test_map_csv_writes_the_checked_base():
    # the sweep kept the caller's base, so the header read base=2 or
    # base=np.float64(2.0) while every cell's point had base 2.0
    state = make_synthetic_state(n_windows=8)
    pos, mom = sample_histograms(state, total=100_000, seed=6)
    texts = set()
    for base in (2.0, 2, np.float64(2.0)):
        buf = stdio.StringIO()
        write_map_csv(asymmetry_map(pos, mom, [2, 8], [8], n_boot=100, seed=1, base=base), buf)
        texts.add(buf.getvalue())
    assert len(texts) == 1
    assert "\n# base=2.0\n" in texts.pop()


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


def test_map_rejects_repeated_resolutions(synth_dir, tmp_path, capsys):
    out = tmp_path / "map.csv"
    code = run_cli(
        "map",
        "--position", str(synth_dir / "position.csv"),
        "--momentum", str(synth_dir / "momentum.csv"),
        "--res-a", "2,2",
        "--boot", "100",
        "--output", str(out),
    )
    assert code == 1
    assert "once" in capsys.readouterr().err
    assert not out.exists()


def test_map_defaults_to_every_divisor_of_the_base_grid(tmp_path):
    out = tmp_path / "map.csv"
    code = run_cli(
        "map", "--synthetic", "--n-windows", "12", "--total", "100000", "--boot", "100",
        "--output", str(out),
    )
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
    divisors = [2, 3, 4, 6, 12]
    assert [tuple(int(v) for v in row.split(",")[:2]) for row in rows] == [
        (ra, rb) for ra in divisors for rb in divisors
    ]


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


def test_witness_writes_to_stdout_with_output_dash(synth_dir, tmp_path, capsys):
    files = ["--position", str(synth_dir / "position.csv"), "--momentum", str(synth_dir / "momentum.csv")]
    out = tmp_path / "witness.json"
    assert run_cli("witness", *files, "--boot", "100", "--output", str(out)) == 0
    assert run_cli("witness", *files, "--boot", "100", "--output", "-") == 0
    assert capsys.readouterr().out == out.read_text()


def test_witness_with_grid_flags_hashes_the_grid_files(synth_dir, monkeypatch, capsys):
    monkeypatch.chdir(synth_dir)
    flags = ["--position-grid", "position.grid.json", "--momentum-grid", "momentum.grid.json"]
    assert run_cli("witness", "--position", "position.csv", "--momentum", "momentum.csv", *flags, "--boot", "100") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["position_grids"] == ["position.grid.json"]
    assert doc["config"]["momentum_grids"] == ["momentum.grid.json"]
    assert doc["config_hash"] == "6861ea43cf8f"


@pytest.mark.parametrize(
    "value, message", [("x", "expected comma-separated integers, got 'x'"), (",", "expected at least one integer")]
)
def test_a_resolution_list_that_is_no_integers_exits_one(value, message, capsys):
    assert run_cli("map", "--synthetic", "--res-a", value) == 1
    assert capsys.readouterr().err == f"usage error: argument --res-a: {message}\n"


@pytest.mark.parametrize("command, sweep", [("map", "resolution maps"), ("curve", "resolution curves")])
def test_sweeps_with_two_counts_files_per_observable_exit_one(synth_dir, command, sweep, monkeypatch, capsys):
    # the run config alone shows the request is wrong, so no file is read
    monkeypatch.setattr("eprsteering.cli.load_histogram", _never)
    pos, mom = str(synth_dir / "position.csv"), str(synth_dir / "momentum.csv")
    assert run_cli(command, "--position", pos, pos, "--momentum", mom, mom) == 1
    assert capsys.readouterr().err == f"usage error: {sweep} need exactly one counts file per observable\n"


@pytest.mark.parametrize("command", [["witness", "--boot", "100"], ["map", "--boot", "100"], ["curve"]], ids=["witness", "map", "curve"])
@pytest.mark.parametrize("flag, other", [("position", "momentum"), ("momentum", "position")])
@pytest.mark.parametrize("by_flag", [False, True], ids=["sidecar", "grid-flag"])
def test_counts_on_the_other_observables_grid_exit_two_naming_the_grid_file(synth_dir, tmp_path, command, flag, other, by_flag, capsys):
    # the other observable's grid file, as the counts file's sidecar or under
    # its grid flag, is malformed input for that flag
    for name in ("position.csv", "momentum.csv", "position.grid.json", "momentum.grid.json"):
        (tmp_path / name).write_bytes((synth_dir / name).read_bytes())
    files = ["--position", str(tmp_path / "position.csv"), "--momentum", str(tmp_path / "momentum.csv")]
    grid = tmp_path / f"{other}.grid.json"
    if by_flag:
        files += [f"--{flag}-grid", str(grid)]
    else:
        (tmp_path / f"{flag}.grid.json").write_bytes(grid.read_bytes())
        grid = tmp_path / f"{flag}.grid.json"
    assert run_cli(*command, *files, "--output", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"data error: {grid}: --{flag} needs a {flag} grid, got a {other} grid\n"
    assert not (tmp_path / "out").exists()


def test_a_grid_sidecar_that_is_a_json_array_exits_two(synth_dir, tmp_path, capsys):
    (tmp_path / "position.csv").write_bytes((synth_dir / "position.csv").read_bytes())
    sidecar = tmp_path / "position.grid.json"
    sidecar.write_text("[1, 2]")
    argv = ["--position", str(tmp_path / "position.csv"), "--momentum", str(synth_dir / "momentum.csv")]
    assert run_cli("witness", *argv, "--boot", "100") == 2
    assert capsys.readouterr().err == f"data error: {sidecar}: grid document must be a JSON object\n"


def test_main_builds_its_parser_once_per_process():
    cli.build_parser.cache_clear()
    assert run_cli("witness") == 1
    assert run_cli("selftest", "--seed", "-1") == 1
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser.cache_info().hits == 1


def test_selftest_command_passes(capsys):
    assert run_cli("selftest") == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert out.endswith("10/10 checks passed\n")


def _flipped_keys(seed, index, attempt):
    keys = _philox_keys(seed, index, attempt)
    keys[-1, 1] ^= np.uint64(1 << 63)
    return keys


def _stale_draw(lam, philox_keys, rows, out):
    # sets each key on the live state, so the counter and buffer carry over
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    for r, philox_key in zip(rows, philox_keys):
        state = bitgen.state
        state["state"]["key"] = philox_key
        bitgen.state = state
        out[r] = rng.poisson(lam)


def _reversed_scalar_draw(lam, philox_keys, rows, out):
    # a small layout's scalar calls read the stream last mean first
    if lam.size > bootstrap._SCALAR_DRAW_COLUMNS:
        _draw(lam, philox_keys, rows, out)
    else:
        _draw(lam[::-1].copy(), philox_keys, rows, out)
        out[rows] = out[rows, ::-1]


class _ZeroMeanReader(np.random.Generator):
    """A generator whose Poisson draw reads the stream once per zero mean."""

    def poisson(self, lam=1.0, size=None):
        out = super().poisson(lam, size)
        self.random(int(np.count_nonzero(np.asarray(lam) == 0)))
        return out


@pytest.mark.parametrize(
    "name, fault, check",
    [
        ("_philox_keys", _flipped_keys, "philox-key-hash"),
        ("_draw", _stale_draw, "philox-key-reset"),
        ("_draw", _reversed_scalar_draw, "poisson-scalar-draws"),
        ("replicate_rng", lambda *key: _ZeroMeanReader(replicate_rng(*key).bit_generator), "poisson-zero-means"),
    ],
)
@pytest.mark.parametrize("seed", ["0", "9"])
def test_selftest_fails_the_check_of_a_broken_stream_fact(name, fault, check, seed, monkeypatch, capsys):
    monkeypatch.setattr(selftest, name, fault)
    assert run_cli("selftest", "--seed", seed) == 3
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith(f"[FAIL] {check}: AssertionError")


def test_selftest_rejects_a_negative_seed(capsys):
    assert run_cli("selftest", "--seed", "-1") == 1
    assert capsys.readouterr().err == "usage error: seed must be >= 0, got -1\n"


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
    raise AssertionError("reached before the run was refused")


def test_too_few_replicates_exit_one_before_any_work(synth_dir, monkeypatch, capsys):
    monkeypatch.setattr("eprsteering.cli.make_synthetic_state", _never)
    monkeypatch.setattr("eprsteering.coarse._kernel", _never)
    files = ["--position", str(synth_dir / "position.csv"), "--momentum", str(synth_dir / "momentum.csv")]
    for argv in (
        ["witness", "--synthetic"],
        ["witness", *files],
        ["map", *files],
        ["map", "--synthetic"],
    ):
        assert run_cli(*argv, "--boot", "50") == 1
        assert "n_boot must be >= 100" in capsys.readouterr().err


@pytest.mark.parametrize("boot", ["9223372036854775807", "9223372036854775808"])
def test_more_replicates_than_two_to_the_32_exit_one_before_any_work(synth_dir, boot, monkeypatch, capsys):
    # numpy refused these sizes itself, with a traceback, when it allocated the margins
    monkeypatch.setattr("eprsteering.cli.make_synthetic_state", _never)
    monkeypatch.setattr("eprsteering.cli.load_histogram", _never)
    files = ["--position", str(synth_dir / "position.csv"), "--momentum", str(synth_dir / "momentum.csv")]
    for argv in (["witness", "--synthetic"], ["witness", *files], ["map", *files], ["map", "--synthetic"]):
        assert run_cli(*argv, "--boot", boot) == 1
        assert capsys.readouterr().err == f"usage error: n_boot must be <= 4294967296, got {boot}\n"


@pytest.mark.parametrize("total", ["2e19", "1e20", "5e20"])
def test_a_total_past_the_poisson_limit_exits_one_before_any_draw(total, tmp_path, monkeypatch, capsys):
    # 2e19 and 1e20 used to exit 2 on the drawn counts' 64-bit total, 5e20 exit 1
    # on a cell mean, and neither message named the flag
    monkeypatch.setattr("eprsteering.spdc._keyed_rng", _never)
    small = ["--n-windows", "8", "--total", total]
    for argv in (["witness", "--synthetic", *small, "--boot", "100"], ["synth", *small, "--out-dir", str(tmp_path)]):
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == (
            "usage error: total must be <= 9.22337e+18, the largest Poisson mean that can be drawn, "
            f"got {float(total):.6g}\n"
        )
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--synthetic", "--boot", "100"],
        ["map", "--synthetic", "--boot", "100"],
        ["curve", "--synthetic"],
        ["synth"],
    ],
)
def test_a_total_past_the_poisson_limit_exits_one_before_the_state_is_built(argv, tmp_path, monkeypatch, capsys):
    # a 600-window state takes seconds to build, and the refusal used to wait for it
    monkeypatch.setattr("eprsteering.cli.make_synthetic_state", _never)
    out = ["--out-dir", str(tmp_path)] if argv[0] == "synth" else ["--output", str(tmp_path / "out")]
    assert run_cli(*argv, "--n-windows", "600", "--total", "2e19", *out) == 1
    assert capsys.readouterr().err == (
        "usage error: total must be <= 9.22337e+18, the largest Poisson mean that can be drawn, got 2e+19\n"
    )
    assert not any(tmp_path.iterdir())


def test_synthetic_config_and_sampling_share_one_total_rule():
    with pytest.raises(UsageError) as config_err:
        SyntheticConfig(total=20_000_000_000_000_000_000)
    with pytest.raises(UsageError) as sample_err:
        sample_histograms(make_synthetic_state(n_windows=4), total=2e19)
    assert str(config_err.value) == str(sample_err.value)
    assert "total must be <= 9.22337e+18" in str(config_err.value)


@pytest.mark.parametrize("command", ["witness", "map", "curve"])
@pytest.mark.parametrize("flag", ["--position-grid", "--momentum-grid"])
def test_grid_files_beside_a_synthetic_state_exit_one_before_any_work(command, flag, monkeypatch, capsys):
    # the grid files were ignored and the run exited 0 on the model's own grids
    monkeypatch.setattr("eprsteering.cli.make_synthetic_state", _never)
    assert run_cli(command, "--synthetic", flag, "grid.json") == 1
    assert capsys.readouterr().err == "usage error: grid files describe counts files; a synthetic state takes none\n"


@pytest.mark.parametrize("boot", ["5", "100", "200"])
def test_curve_refuses_boot_before_any_work(synth_dir, boot, monkeypatch, capsys):
    # a curve is not bootstrapped: any --boot is refused, not hashed
    monkeypatch.setattr("eprsteering.cli.make_synthetic_state", _never)
    monkeypatch.setattr("eprsteering.coarse._kernel", _never)
    files = ["--position", str(synth_dir / "position.csv"), "--momentum", str(synth_dir / "momentum.csv")]
    for source in (files, ["--synthetic"]):
        assert run_cli("curve", *source, "--boot", boot) == 1
        assert "--boot" in capsys.readouterr().err


def test_curve_config_hash_keeps_the_default_replicate_count(tmp_path):
    # the hash a curve run had while --boot was accepted (and defaulted to 1000)
    out = tmp_path / "curve.csv"
    flags = ["--n-windows", "8", "--total", "100000"]
    assert run_cli("curve", "--synthetic", *flags, "--resolutions", "2,4", "--output", str(out)) == 0
    config = RunConfig(synthetic=SyntheticConfig(n_windows=8, total=100_000))
    assert config.n_boot == 1000
    assert out.read_text().splitlines()[1] == f"# config_hash={config_hash(config)}"
    assert config_hash(config) == "9aca41ee1ed1"


@pytest.mark.parametrize("seed", ["0", "5"])
def test_curve_refuses_seed_without_synthetic(synth_dir, seed, monkeypatch, capsys):
    # on counts files a curve draws nothing, so a seed would only move config_hash
    monkeypatch.setattr("eprsteering.coarse._kernel", _never)
    files = ["--position", str(synth_dir / "position.csv"), "--momentum", str(synth_dir / "momentum.csv")]
    assert run_cli("curve", *files, "--seed", seed) == 1
    assert capsys.readouterr().err == "usage error: --seed only makes sense with --synthetic\n"


def test_curve_on_files_keeps_its_rows_and_config_hash(synth_dir, tmp_path, monkeypatch):
    # the bytes a curve run on these files wrote while --seed was accepted and defaulted to 0
    monkeypatch.chdir(synth_dir)
    out = tmp_path / "curve.csv"
    assert run_cli("curve", "--position", "position.csv", "--momentum", "momentum.csv", "--output", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "# config_hash=d70a70224767"
    config = RunConfig(position_counts=("position.csv",), momentum_counts=("momentum.csv",))
    assert lines[1] == f"# config_hash={config_hash(config)}"
    rows = "".join(line + "\n" for line in lines if not line.startswith("#"))
    assert hashlib.sha256(rows.encode()).hexdigest() == "71e66078d9a5f5d1d3b4754801aeb46dcacf22d231fca583fd78603b2559023a"
    with_seed = tmp_path / "seeded.csv"
    assert run_cli("curve", "--synthetic", "--n-windows", "8", "--total", "100000", "--seed", "3", "--output", str(with_seed)) == 0
    assert [l for l in with_seed.read_text().splitlines() if not l.startswith("#")] == rows.splitlines()


@pytest.fixture(scope="module")
def default_synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("default-synth")
    assert main(["synth", "--out-dir", str(out)]) == 0
    return out


SYNTH_DIGESTS = {
    "default": {
        "position.csv": "19c59717d78bd708d0061660a38c81a71ad6339ca92c98d52f2b9f34dd908e92",
        "position.grid.json": "39b3fa0257244900d02115fa821a3de73638977efe5af3bcc9c03a02655e529e",
        "momentum.csv": "dbf81a1790ef1b72c01fe23f5673e500b939eb03a56f44c307dacc7f70345a4f",
        "momentum.grid.json": "39a4f136ab9b2115eb58a1c80e5646ba0a7637b38ac9bb9b53d6039dc48cf87e",
        "manifest.json": "222070d6a2ea31b057cd13ab4779db2735f3a291637c848f1a7319790814f807",
    },
    "small": {
        "position.csv": "feab7f291261ada571a0d164035aa773420d2a975be146fac07fcb3e9f67b1ec",
        "position.grid.json": "608bd7bcad4891ab48dfee831d813069549c081e4c299682adb6e0a86ce8e12e",
        "momentum.csv": "629abf786378ba5707696e83f706954207c58f8e768049c818e5b44ae45953d7",
        "momentum.grid.json": "3972cd9be2c97b91fa5ba7ff30e9efb282c829dde1b81faac18b1e4ffd4af7b4",
        "manifest.json": "4275fe405b724f4439e79fe1794ed8d0b726801c48e35a34ac8158bdb9897874",
    },
}


@pytest.mark.parametrize("run", ["default", "small"])
def test_synth_keeps_the_bytes_of_every_file_it_writes(default_synth_dir, tmp_path, run):
    # the writers and the sampling streams; a stream-contract bump changes these on purpose
    out = default_synth_dir
    if run == "small":
        out = tmp_path / "small"
        flags = ["--n-windows", "6", "--total", "5000", "--seed", "7", "--clip-tol", "0.02"]
        assert run_cli("synth", *flags, "--out-dir", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(SYNTH_DIGESTS[run])
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SYNTH_DIGESTS[run]}
    assert digests == SYNTH_DIGESTS[run]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["witness", "--direction", "ba", "--boot", "100"], "31a4b2357a68c87dde00be35daad085575bf8bf143d3c662e86b3c819c65c38a"),
        (["witness", "--direction", "ab", "--boot", "100"], "c2d886971d165aad9db0b2c9313bdaeb682e7920a61c4bad45f9af42627bc1a9"),
        (["witness", "--direction", "sym", "--boot", "100"], "135a5f871c38db2f250493dd580932b08907efd4008918a6c3205585c064bcb9"),
        (["map", "--boot", "100"], "8b6178675613b169e92bcd10b450f8522b9b99b317fcfe5ae2e0b44417ef285f"),
        (["map", "--direction", "ab", "--boot", "100"], "ced7dd14752c42a9db5b42876fb54009e1c22c105a44b979b83ef1a6a57449e0"),
        (["map", "--direction", "sym", "--boot", "100"], "00ce04aa2b67510aa6e7e256018a4b82ac3a0936e6a1739d9decebec293ed2e0"),
        # a chunk holds ~1,643 replicates of these 319 columns: 2,000 span two
        # kernel calls, each led by the observed row
        (["witness", "--direction", "ba", "--boot", "2000"], "5907de93cd5d919ff2f1070371ac135bff8a6eeb9168666c5fe45116cf02d72a"),
        (["witness", "--direction", "sym", "--boot", "2000"], "c8d41f39b1b524f29eb9b57d7ea6fca166f86e6dd6376607722a836b89b69fad"),
    ],
)
def test_reports_on_the_default_synth_files_keep_their_bytes(default_synth_dir, argv, digest, tmp_path, monkeypatch):
    # relative paths keep the directory out of the config hash each report carries
    monkeypatch.chdir(default_synth_dir)
    out = tmp_path / "report"
    files = ["--position", "position.csv", "--momentum", "momentum.csv"]
    assert run_cli(*argv, *files, "--output", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_files_with_a_bom_and_crlf_line_endings_give_the_plain_files_report(default_synth_dir, tmp_path, monkeypatch, capsys):
    marked = tmp_path / "marked"
    marked.mkdir()
    for name in ("position.csv", "position.grid.json", "momentum.csv", "momentum.grid.json"):
        data = (default_synth_dir / name).read_bytes()
        (marked / name).write_bytes(b"\xef\xbb\xbf" + data.replace(b"\n", b"\r\n"))
    reports = []
    for directory in (default_synth_dir, marked):
        # the report records the paths, so both runs pass the same relative ones
        monkeypatch.chdir(directory)
        out = tmp_path / f"{directory.name}.json"
        assert run_cli("witness", "--position", "position.csv", "--momentum", "momentum.csv", "--boot", "100", "--output", str(out)) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    # a file that is not UTF-8 past its mark is still refused by name, at
    # the offset of its bad byte in the file
    (marked / "momentum.csv").write_bytes(b"\xef\xbb\xbf\xff")
    assert run_cli("witness", "--position", "position.csv", "--momentum", "momentum.csv", "--boot", "100") == 2
    assert capsys.readouterr().err == "data error: momentum.csv: not UTF-8 text (invalid start byte at byte 3)\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--boot", "100"],
        ["map", "--boot", "100", "--res-a", "24", "--res-b", "24"],
        ["curve"],
    ],
)
def test_a_draw_without_events_exits_two(argv, capsys):
    # one expected event per observable: seed 5 draws none, which no
    # subcommand can score
    assert run_cli(argv[0], "--synthetic", "--total", "1", "--seed", "5", *argv[1:]) == 2
    expected = "data error: the position draw holds zero events at total=1: a larger total gives it events to score\n"
    assert capsys.readouterr().err == expected


def test_a_counts_file_without_events_exits_two(tmp_path, capsys):
    assert run_cli("synth", "--n-windows", "4", "--total", "10000", "--out-dir", str(tmp_path)) == 0
    counts = tmp_path / "momentum.csv"
    counts.write_text("0,0,0,0\n" * 4)
    capsys.readouterr()
    files = ["--position", str(tmp_path / "position.csv"), "--momentum", str(counts)]
    for argv in (["witness", "--boot", "100"], ["map", "--boot", "100"], ["curve"]):
        assert run_cli(*argv, *files, "--output", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"data error: {counts}: count tensor holds zero events\n"


@pytest.mark.parametrize(
    "argv", [["witness", "--direction", "sym"], ["witness", "--direction", "ba"], ["map"], ["curve"]]
)
def test_a_grid_whose_extent_overflows_exits_two(argv, tmp_path, capsys):
    # every window_width is finite, but n_windows * window_width is not
    assert run_cli("synth", "--n-windows", "4", "--total", "10000", "--out-dir", str(tmp_path)) == 0
    sidecar = tmp_path / "position.grid.json"
    doc = json.loads(sidecar.read_text())
    for axis in doc["axes_a"] + doc["axes_b"]:
        axis["window_width"] = 1e308
    sidecar.write_text(json.dumps(doc))
    capsys.readouterr()
    files = ["--position", str(tmp_path / "position.csv"), "--momentum", str(tmp_path / "momentum.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(*argv, *files, "--output", str(tmp_path / "out")) == 2
    assert not caught
    err = capsys.readouterr().err
    assert str(sidecar) in err
    assert "extent n_windows * window_width = 4 * 1e+308 overflows" in err


@pytest.mark.parametrize("n_windows", ["3", "7", "24"])
def test_an_extent_flag_that_overflows_across_its_windows_exits_three(n_windows, capsys):
    # the flag's extent is finite, but n_windows * (extent / n_windows) rounds
    # past the float range: the message names that product, not the flag
    argv = ["--extent-x", "1.7976931348623157e308", "--n-windows", n_windows, "--boot", "100"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("witness", "--synthetic", *argv) == 3
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith(f"numerical error: extent n_windows * window_width = {n_windows} * ")
    assert err.endswith(" overflows\n")


def test_numerical_errors_exit_three(capsys):
    code = run_cli("witness", "--synthetic", "--clip-tol", "1e-4", "--boot", "100")
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--synthetic", "--n-windows", "1"],
        ["witness", "--synthetic", "--n-windows", "1", "--direction", "sym"],
    ],
    ids=["witness-ba", "witness-sym"],
)
def test_margins_constant_up_to_roundoff_exit_three(argv, tmp_path, capsys):
    # each margin is the bound up to its last bits; at the last bits' spread
    # these runs reported -2.7e15 and -4.1e15 sigma
    assert run_cli(*argv, "--boot", "100", "--output", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: the bootstrap margins are constant up to roundoff")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("direction", ["ba", "ab", "sym"])
def test_a_viewing_area_below_pi_e_exits_three(direction, tmp_path, capsys):
    # L_x * L_k = 4 < pi*e: every margin is at least log2(pi*e/4) = 1.094 bit
    # whatever the data; this separable state once certified at +4.9e15 sigma
    argv = ["witness", "--synthetic", "--sigma-plus", "1", "--sigma-minus", "1", "--extent-x", "2",
            "--extent-k", "2", "--n-windows", "1", "--clip-tol", "0.5", "--direction", direction]
    assert run_cli(*argv, "--boot", "100", "--output", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: party ")
    assert "viewing area L_x*L_k = 4 is at most pi*e = 8.53973" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, where",
    [
        (["curve"], "curve row 3: party B's"),
        (["curve", "--direction", "ab"], "curve row 3: party A's"),
        (["map", "--res-a", "9", "--res-b", "3", "--boot", "100"], "map cell (9, 3): party B's"),
    ],
    ids=["curve-ba", "curve-ab", "map"],
)
def test_a_sweep_row_whose_merged_area_falls_to_pi_e_is_named(argv, where, tmp_path, capsys):
    # 9 windows of these widths pass the viewing-area rule by one ulp of
    # log-area, but 3 windows of 3 * w round to an area of exactly pi*e
    counts = np.random.default_rng(2).poisson(50, (9, 9))
    files = []
    for observable, width in ((Observable.POSITION, 1.4306491748563095), (Observable.MOMENTUM, 0.07369299155710916)):
        name, grid = observable.value, GridSpec(observable, (AxisGrid(9, width),), (AxisGrid(9, width),))
        write_counts_csv(Histogram(counts, grid), tmp_path / f"{name}.csv")
        write_grid_json(grid, tmp_path / f"{name}.grid.json")
        files += [f"--{name}", str(tmp_path / f"{name}.csv")]
    out = tmp_path / "out.csv"
    assert run_cli(*argv, *files, "--output", str(out)) == 3
    assert capsys.readouterr().err.startswith(f"numerical error: {where} viewing area L_x*L_k = 8.53973 is at most pi*e")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "--res-a", "1", "--res-b", "12", "--boot", "100", "--direction", "sym"],
        ["map", "--res-a", "12", "--res-b", "2,1", "--boot", "100"],
        ["curve", "--resolutions", "12,1"],
    ],
    ids=["map-sym", "map-ba", "curve"],
)
def test_a_resolution_of_one_exits_one_before_any_cell(argv, tmp_path, monkeypatch, capsys):
    # a party at one window tests no steering; the map-sym run once bootstrapped
    # its other cells, then exited 3 at the constant ones and wrote no CSV
    monkeypatch.setattr("eprsteering.coarse._kernel", _never)
    out = tmp_path / "out"
    flags = ["--synthetic", "--n-windows", "12", "--total", "100000", "--output", str(out)]
    assert run_cli(argv[0], *flags, *argv[1:]) == 1
    assert capsys.readouterr().err == "usage error: resolution must be >= 2, got 1\n"
    assert not out.exists()


@pytest.mark.parametrize("extent", ["300", "1e300"])
def test_windows_too_wide_for_the_quadrature_exit_three(extent, capsys):
    assert run_cli("witness", "--synthetic", "--extent-x", extent, "--boot", "100") == 3
    err = capsys.readouterr().err
    assert err == (
        "numerical error: the windows are too wide for the quadrature to resolve the state; "
        "narrow the extent or add windows\n"
    )


@pytest.mark.parametrize("flag", ["--sigma-plus", "--sigma-minus"])
@pytest.mark.parametrize("width", ["1e200", "1e-200"])
def test_a_width_whose_square_leaves_the_float_range_exits_one(flag, width, tmp_path, capsys):
    for argv in (["witness", "--synthetic", "--boot", "100"], ["synth", "--out-dir", str(tmp_path)]):
        assert run_cli(*argv, flag, width) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {flag[2:].replace('-', '_')} is out of range")
        assert err.count("\n") == 1


@pytest.mark.parametrize("widths", [["--sigma-plus", "1e80"], ["--sigma-plus", "1e-154", "--sigma-minus", "1e154"]])
def test_a_mode_ratio_beyond_the_float_range_exits_three(widths, capsys):
    # each width is in range, but the squared covariance of the pair is not
    assert run_cli("witness", "--synthetic", *widths, "--boot", "100") == 3
    assert capsys.readouterr().err == "numerical error: degenerate covariance: conditional variance is not positive\n"


@pytest.mark.parametrize("clip_tol", ["1", "5"])
def test_a_clip_tolerance_of_one_or_more_exits_one(clip_tol, capsys):
    argv = ["witness", "--synthetic", "--extent-x", "1e-300", "--clip-tol", clip_tol, "--boot", "100"]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"usage error: clip_tol must be < 1, got {float(clip_tol)!r}\n"


@pytest.mark.parametrize(
    "exc, detail",
    [
        (MemoryError("Unable to allocate 1.16 TiB for an array"), " (Unable to allocate 1.16 TiB for an array)"),
        (MemoryError(), ""),
    ],
)
def test_a_run_that_does_not_fit_in_memory_exits_three(exc, detail, monkeypatch, capsys):
    # stands in for the allocation, which may or may not fail at once depending on the host
    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr("eprsteering.spdc._exact_gaussian_cells", out_of_memory)
    assert run_cli("witness", "--synthetic", "--n-windows", "100000", "--boot", "100") == 3
    assert capsys.readouterr().err == f"numerical error: the run does not fit in memory{detail}\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "eprsteer" in capsys.readouterr().out
