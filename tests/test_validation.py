"""One rule per concept: seeds, the normalization tolerance, and file-borne faults.

The file tests run ``eprsteer witness`` on counts and grid files with one
fault each (edited by hand below, mutated at random by hypothesis) and expect
exit code 2, a message that names the faulty file, and no escaping exception.
"""

import contextlib
import io as stdio
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eprsteering import (
    AxisGrid,
    DoubleGaussianParams,
    GridSpec,
    JointDistribution,
    NonDivisibleFactorError,
    NonpositiveExtentError,
    NonpositiveWindowError,
    NotNormalizedError,
    Observable,
    RunConfig,
    SteeringError,
    SyntheticConfig,
    UsageError,
    asymmetry_map,
    conditional_entropy,
    entropy,
    evaluate,
    make_synthetic_state,
    min_resolution,
    per_dim_bound,
    resolution_curve,
    sample_histograms,
    save_histogram,
    viewing_grid,
    witness_significance,
)
from eprsteering.bootstrap import MAX_REPLICATES
from eprsteering.cli import main
from eprsteering.grids import NORMALIZATION_TOL

# ------------------------------------------------------------------ seeds


@pytest.fixture(scope="module")
def small_state():
    state = make_synthetic_state(n_windows=4)
    return state, sample_histograms(state, total=10_000, seed=0)


SEED_ENTRY_POINTS = {
    "witness_significance": lambda s, seed: witness_significance(*s[1], n_boot=100, seed=seed),
    "sample_histograms": lambda s, seed: sample_histograms(s[0], total=1_000, seed=seed),
    "RunConfig": lambda s, seed: RunConfig(synthetic=SyntheticConfig(), seed=seed),
    "asymmetry_map": lambda s, seed: asymmetry_map(*s[1], [2], [2], n_boot=100, seed=seed),
}


@pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
@pytest.mark.parametrize(
    "seed", [2.7, [2.7], [True, 3], np.array([1.9]), "5", True, -1, []], ids=repr
)
def test_bad_seeds_are_refused_not_truncated(small_state, entry, seed):
    with pytest.raises(UsageError):
        SEED_ENTRY_POINTS[entry](small_state, seed)


# ------------------------------------------------------- argument values

_DIRECTION_MESSAGE = "direction must be one of 'B_given_A', 'A_given_B', 'symmetric', got 'sideways'"
_OBSERVABLE_MESSAGE = "observable must be one of 'position', 'momentum', got 'spin'"
_AXIS = AxisGrid(2, 1.0)

BAD_ARGUMENTS = {
    "evaluate direction": (lambda s: evaluate(*s[1], direction="sideways"), _DIRECTION_MESSAGE),
    "witness_significance direction": (
        lambda s: witness_significance(*s[1], direction="sideways", n_boot=100),
        _DIRECTION_MESSAGE,
    ),
    "asymmetry_map direction": (
        lambda s: asymmetry_map(*s[1], [2], [2], direction="sideways", n_boot=100),
        _DIRECTION_MESSAGE,
    ),
    "resolution_curve direction": (lambda s: resolution_curve(*s[1], direction="sideways"), _DIRECTION_MESSAGE),
    "RunConfig direction": (
        lambda s: RunConfig(synthetic=SyntheticConfig(), direction="sideways"),
        _DIRECTION_MESSAGE,
    ),
    "GridSpec observable": (lambda s: GridSpec("spin", (_AXIS,), (_AXIS,)), _OBSERVABLE_MESSAGE),
    "viewing_grid observable": (lambda s: viewing_grid("spin"), _OBSERVABLE_MESSAGE),
    "evaluate base text": (lambda s: evaluate(*s[1], base="two"), "log base must be a real number, got str"),
    "evaluate base None": (lambda s: evaluate(*s[1], base=None), "log base must be a real number, got NoneType"),
    "AxisGrid origin": (lambda s: AxisGrid(2, 1.0, "x"), "origin must be a real number, got str"),
    "witness_significance n_boot": (
        lambda s: witness_significance(*s[1], n_boot=2**32 + 1),
        "n_boot must be <= 4294967296, got 4294967297",
    ),
    "RunConfig n_boot": (
        lambda s: RunConfig(synthetic=SyntheticConfig(), n_boot=2**63),
        "n_boot must be <= 4294967296, got 9223372036854775808",
    ),
}


@pytest.mark.parametrize("entry", sorted(BAD_ARGUMENTS))
def test_bad_argument_values_raise_usage_errors(small_state, entry):
    # every one of these raised a ValueError or TypeError, or was accepted
    call, message = BAD_ARGUMENTS[entry]
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        call(small_state)


_TOO_LARGE = "must be <= 1.79769e+308, the largest float, got 1e+400"
_TOTAL_TOO_LARGE = "total must be <= 9.22337e+18, the largest Poisson mean that can be drawn, got 1e+400"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda s: SyntheticConfig(total=10**400), UsageError, _TOTAL_TOO_LARGE),
        (lambda s: sample_histograms(s[0], total=10**400), UsageError, _TOTAL_TOO_LARGE),
        (lambda s: AxisGrid(2, 10**400), NonpositiveWindowError, f"window_width {_TOO_LARGE}"),
        (lambda s: DoubleGaussianParams(10**400, 1.0), UsageError, f"sigma_plus {_TOO_LARGE}"),
        (
            lambda s: AxisGrid(10**400, 1.0),
            NonpositiveExtentError,
            "extent n_windows * window_width = 1e+400 * 1.0 overflows",
        ),
        (lambda s: AxisGrid(2, 1.0, 10**400), UsageError, "origin must be a finite float, got 1e+400"),
        (
            lambda s: asymmetry_map(*s[1], [10**400], [2], n_boot=100),
            NonDivisibleFactorError,
            "resolution must divide 4, got 1e+400",
        ),
        (lambda s: SyntheticConfig(clip_tol=10**300), UsageError, "clip_tol must be < 1, got 1e+300"),
    ],
    ids=[
        "SyntheticConfig",
        "sample_histograms",
        "AxisGrid",
        "DoubleGaussianParams",
        "n_windows",
        "origin",
        "resolution",
        "clip_tol",
    ],
)
def test_a_huge_integer_is_refused_without_echoing_its_digits(small_state, call, error, message):
    # past the float range it used to read as a non-finite value and echo
    # all 401 digits, or (as a window count) escape as an OverflowError;
    # within it, other refusals echoed every digit
    with pytest.raises(SteeringError) as err:
        call(small_state)
    assert type(err.value) is error
    assert str(err.value) == message


NOT_A_NUMBER = {
    "per_dim_bound": ("width_x", lambda s, v: per_dim_bound(v, 1.0)),
    "AxisGrid window_width": ("window_width", lambda s, v: AxisGrid(2, v)),
    "AxisGrid origin": ("origin", lambda s, v: AxisGrid(2, 1.0, v)),
    "AxisGrid.centered": ("extent", lambda s, v: AxisGrid.centered(2, v)),
    "min_resolution": ("extent_x", lambda s, v: min_resolution(v, 10.0)),
    "DoubleGaussianParams": ("sigma_plus", lambda s, v: DoubleGaussianParams(v, 1.0)),
    "evaluate": ("log base", lambda s, v: evaluate(*s[1], base=v)),
    "sample_histograms": ("total", lambda s, v: sample_histograms(s[0], total=v)),
}


@pytest.mark.parametrize("entry", sorted(NOT_A_NUMBER))
@pytest.mark.parametrize("value, kind", [("1", "str"), (b"1", "bytes"), (True, "bool")], ids=repr)
def test_text_and_bools_are_no_real_number(small_state, entry, value, kind):
    # float() reads "1", b"1" and True, which used to pass as the number 1
    name, call = NOT_A_NUMBER[entry]
    with pytest.raises(UsageError, match=f"^{name} must be a real number, got {kind}$"):
        call(small_state, value)


def test_the_replicate_ceiling_is_two_to_the_32():
    # every replicate index then fits in one 32-bit SeedSequence word
    assert RunConfig(synthetic=SyntheticConfig(), n_boot=MAX_REPLICATES).n_boot == MAX_REPLICATES == 2**32


# -------------------------------------------------------------- tolerance


@pytest.mark.parametrize(
    "offset, valid", [(0.5 * NORMALIZATION_TOL, True), (2 * NORMALIZATION_TOL, False)]
)
def test_one_normalization_tolerance_across_entry_points(offset, valid):
    probs = np.full((2, 2), 0.25)
    probs[0, 0] += offset
    assert abs(probs.sum() - 1.0 - offset) < 0.1 * NORMALIZATION_TOL
    ax = AxisGrid(2, 1.0)
    grid = GridSpec(Observable.POSITION, (ax,), (ax,))
    checks = {
        "entropy": lambda: entropy(probs),
        "conditional_entropy": lambda: conditional_entropy(probs),
        "JointDistribution": lambda: JointDistribution(probs, grid),
    }
    verdicts = {}
    for name, check in checks.items():
        try:
            check()
            verdicts[name] = True
        except NotNormalizedError:
            verdicts[name] = False
    assert verdicts == dict.fromkeys(verdicts, valid)


# ------------------------------------------------------------ file faults


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Text of a valid 4x4 position/momentum counts-and-grid set, keyed by file name."""
    root = tmp_path_factory.mktemp("valid")
    state = make_synthetic_state(n_windows=4)
    pos, mom = sample_histograms(state, total=10_000, seed=0)
    save_histogram(pos, root / "position.csv")
    save_histogram(mom, root / "momentum.csv")
    return {p.name: p.read_bytes() for p in root.iterdir()}


def run_witness(root: Path, files: dict[str, bytes], faulty: str) -> None:
    """Write ``files`` to ``root``, run the witness, and check the fault in ``faulty`` is reported."""
    for name, data in files.items():
        (root / name).write_bytes(data)
    err = stdio.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
        code = main(
            ["witness", "--position", str(root / "position.csv"),
             "--momentum", str(root / "momentum.csv"), "--boot", "100"]
        )
    assert code == 2, err.getvalue()
    assert str(root / faulty) in err.getvalue()


def edited_grid(files, name, edit):
    doc = json.loads(files[name])
    edit(doc)
    return {**files, name: json.dumps(doc).encode()}


def _set_axis(key, value):
    return lambda doc: doc["axes_a"][0].__setitem__(key, value)


GRID_EDITS = {
    "axes_a is a number": lambda doc: doc.__setitem__("axes_a", 5),
    "window_width is null": _set_axis("window_width", None),
    "axis entry is a string": lambda doc: doc["axes_b"].__setitem__(0, "x"),
    "n_windows is fractional": _set_axis("n_windows", 2.5),
    "extent disagrees": _set_axis("extent", 3.0),
    "window_width is negative": _set_axis("window_width", -1),
    "n_windows is huge": _set_axis("n_windows", 10**400),
    "origin is huge": _set_axis("origin", 10**400),
}


@pytest.mark.parametrize("edit", sorted(GRID_EDITS))
def test_grid_file_faults_exit_two_naming_the_file(valid_files, tmp_path, edit):
    name = "momentum.grid.json"
    run_witness(tmp_path, edited_grid(valid_files, name, GRID_EDITS[edit]), name)


@pytest.mark.parametrize(
    "name, content",
    [
        ("position.csv", b"\xff\xfe1,2\n"),
        ("position.csv", b"1,2\n3,4\n"),
        ("position.csv", b"18446744073709551615,1,0,0\n" + b"0,0,0,0\n" * 3),
        ("momentum.csv", b"0,0,0,0\n" * 4),
        ("momentum.csv", b"9300000000000000000,1,0,0\n" + b"0,0,0,0\n" * 3),
        ("momentum.grid.json", b"\xff{}"),
        ("momentum.grid.json", b"[" * 100_000 + b"]" * 100_000),
    ],
    ids=[
        "counts-not-utf8",
        "shape-mismatch",
        "total-overflows",
        "zero-events",
        "cell-above-poisson-limit",
        "grid-not-utf8",
        "deep-nesting",
    ],
)
def test_file_faults_exit_two_naming_the_file(valid_files, tmp_path, name, content):
    run_witness(tmp_path, {**valid_files, name: content}, name)


@pytest.mark.parametrize("total", ["inf", "nan", "2.5", "ten"])
def test_event_total_must_be_a_whole_number(total):
    with contextlib.redirect_stderr(stdio.StringIO()):
        assert main(["witness", "--synthetic", "--total", total, "--boot", "100"]) == 1


# Fuzzing: each mutation below is a fault by construction, so every example
# must end in exit 2 with the file named.

FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
GRID_FILES = ["position.grid.json", "momentum.grid.json"]
COUNT_FILES = ["position.csv", "momentum.csv"]

#: Value locations the grid reader checks, with the JSON type each must have.
GRID_PATHS = {("observable",): str, ("axes_a",): list, ("axes_b",): list}
for _axes in ("axes_a", "axes_b"):
    GRID_PATHS.update(
        {(_axes, 0, "n_windows"): int, (_axes, 0, "window_width"): float, (_axes, 0, "origin"): float}
    )
#: Keys a grid document cannot do without (``origin`` defaults to 0).
REQUIRED = [p for p in GRID_PATHS if p[-1] != "origin"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def wrong_type(kind, value) -> bool:
    if isinstance(value, bool):
        return True
    if kind is float:
        return not isinstance(value, (int, float))
    return not isinstance(value, kind)


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@given(data=st.data())
@FUZZ
def test_fuzzed_grid_files_exit_two(valid_files, tmp_path, data):
    name = data.draw(st.sampled_from(GRID_FILES))
    doc = json.loads(valid_files[name])
    mutation = data.draw(st.sampled_from(["swap type", "drop key", "nest"]))
    if mutation == "drop key":
        path = data.draw(st.sampled_from(REQUIRED))
        del _parent(doc, path)[path[-1]]
    else:
        path = data.draw(st.sampled_from(sorted(GRID_PATHS, key=str)))
        parent, key = _parent(doc, path), path[-1]
        if mutation == "swap type":
            parent[key] = data.draw(json_values.filter(lambda v: wrong_type(GRID_PATHS[path], v)))
        else:
            parent[key] = data.draw(st.sampled_from([[parent[key]], {"value": parent[key]}]))
    run_witness(tmp_path, {**valid_files, name: json.dumps(doc).encode()}, name)


@given(data=st.data())
@FUZZ
def test_fuzzed_counts_files_exit_two(valid_files, tmp_path, data):
    name = data.draw(st.sampled_from(COUNT_FILES))
    lines = valid_files[name].decode().splitlines()
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    mutation = data.draw(st.sampled_from(["random bytes", "ragged row", "huge integer"]))
    if mutation == "random bytes":
        content = data.draw(st.binary(min_size=1, max_size=64))
    else:
        i = data.draw(st.sampled_from(rows))
        cells = lines[i].split(",")
        if mutation == "ragged row":
            cells = cells[:-1] if data.draw(st.booleans()) else cells + ["1"]
        else:
            j = data.draw(st.integers(0, len(cells) - 1))
            cells[j] = str(data.draw(st.integers(min_value=2**64, max_value=10**4000)))
        lines[i] = ",".join(cells)
        content = "\n".join(lines).encode()
    run_witness(tmp_path, {**valid_files, name: content}, name)
