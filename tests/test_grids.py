import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsteering import (
    AxisGrid,
    CountTensor,
    DataError,
    DimensionMismatchError,
    GridSpec,
    Histogram,
    JointDistribution,
    NegativeCountError,
    NegativeProbabilityError,
    NonpositiveExtentError,
    NonpositiveWindowError,
    NotNormalizedError,
    NumericalError,
    Observable,
    ShapeMismatchError,
    UsageError,
    ZeroTotalError,
    conditional_entropy,
    entropy,
)


def square_grid(n: int, width: float, observable=Observable.POSITION) -> GridSpec:
    axis = AxisGrid.centered(n, n * width)
    return GridSpec(observable, (axis,), (axis,))


# ---------------------------------------------------------------- AxisGrid


def test_axis_grid_edges():
    ax = AxisGrid(n_windows=4, window_width=0.5, origin=-1.0)
    assert ax.extent == pytest.approx(2.0)
    np.testing.assert_allclose(ax.edges(), [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_axis_grid_centered_symmetric():
    ax = AxisGrid.centered(24, 1.04e-3)
    edges = ax.edges()
    assert edges[0] == pytest.approx(-5.2e-4)
    assert edges[-1] == pytest.approx(5.2e-4)
    assert ax.window_width == pytest.approx(1.04e-3 / 24)


@pytest.mark.parametrize("n", [0, -3])
def test_axis_grid_rejects_bad_window_count(n):
    with pytest.raises(UsageError):
        AxisGrid(n_windows=n, window_width=1.0)


@pytest.mark.parametrize("width", [0.0, -1.0, float("nan"), float("inf")])
def test_axis_grid_rejects_bad_width(width):
    with pytest.raises(NonpositiveWindowError):
        AxisGrid(n_windows=2, window_width=width)


@pytest.mark.parametrize(
    "width, kind", [((1.0, 2.0), "tuple"), ([0.5], "list"), (None, "NoneType"), ("wide", "str")]
)
def test_axis_grid_names_a_width_of_the_wrong_type(width, kind):
    # a value that is no number is a usage fault, not a bad magnitude
    with pytest.raises(UsageError, match=f"^window_width must be a real number, got {kind}$"):
        AxisGrid(n_windows=2, window_width=width)


def test_axis_grid_rejects_nonfinite_origin():
    with pytest.raises(UsageError):
        AxisGrid(n_windows=2, window_width=1.0, origin=float("inf"))


def test_centered_rejects_nonpositive_extent():
    with pytest.raises(NonpositiveExtentError):
        AxisGrid.centered(8, 0.0)


def test_axis_grid_rejects_an_extent_that_overflows():
    # each window is finite, but n_windows * window_width is not
    with pytest.raises(NonpositiveExtentError, match=r"^extent n_windows \* window_width = 4 \* 1e\+308 overflows$"):
        AxisGrid(n_windows=4, window_width=1e308)


def test_axis_grid_refuses_a_width_past_the_float_range():
    # a finite integer is too large, not infinite, and its digits are not echoed
    # (past 4300 of them, Python refuses to print it)
    for exponent in (400, 5000):
        message = f"^window_width must be <= 1.79769e[+]308, the largest float, got 1e[+]{exponent}$"
        with pytest.raises(NonpositiveWindowError, match=message):
            AxisGrid(n_windows=2, window_width=10**exponent)


# ---------------------------------------------------------------- GridSpec


@pytest.mark.parametrize(
    "axes_a, message",
    [((), "party A needs at least one axis"), (((2, 1.0),), "party A axes must be AxisGrid, got tuple")],
)
def test_grid_spec_refuses_missing_or_foreign_axes(axes_a, message):
    with pytest.raises(UsageError, match=f"^{message}$"):
        GridSpec(Observable.POSITION, axes_a, (AxisGrid(2, 1.0),))


def test_grid_spec_accessors():
    ax_a = AxisGrid(4, 0.25, origin=0.0)
    ax_b = AxisGrid(8, 0.5, origin=-2.0)
    spec = GridSpec(Observable.MOMENTUM, (ax_a,), (ax_b,))
    assert spec.n_dims == 1
    assert spec.shape == (4, 8)
    assert spec.widths("A") == (0.25,)
    assert spec.widths("B") == (0.5,)
    assert spec.extents("B") == (4.0,)
    assert spec.axes("A") == (ax_a,)


def test_grid_spec_coerces_observable_string():
    ax = AxisGrid(2, 1.0)
    spec = GridSpec("position", (ax,), (ax,))
    assert spec.observable is Observable.POSITION


def test_grid_spec_rejects_party_dim_mismatch():
    ax = AxisGrid(2, 1.0)
    with pytest.raises(DimensionMismatchError):
        GridSpec(Observable.POSITION, (ax, ax), (ax,))


def test_grid_spec_rejects_three_dims():
    ax = AxisGrid(2, 1.0)
    with pytest.raises(UsageError):
        GridSpec(Observable.POSITION, (ax,) * 3, (ax,) * 3)


def test_grid_spec_two_dims_shape_order():
    ax1 = AxisGrid(2, 1.0)
    ax2 = AxisGrid(3, 1.0)
    spec = GridSpec(Observable.POSITION, (ax1, ax2), (ax1, ax2))
    # party A axes lead, then party B axes
    assert spec.shape == (2, 3, 2, 3)


# ---------------------------------------------------------------- counts


def test_count_tensor_accepts_integers_and_is_readonly():
    t = CountTensor(np.array([[1, 2], [3, 4]]))
    assert t.counts.dtype == np.uint64
    assert t.total == 10
    with pytest.raises(ValueError):
        t.counts[0, 0] = 5


def test_count_tensor_rejects_negative():
    with pytest.raises(NegativeCountError):
        CountTensor(np.array([[1, -2]]))


def test_count_tensor_rejects_float_dtype():
    with pytest.raises(DataError):
        CountTensor(np.array([[1.0, 2.0]]))


def test_normalize_counts_zero_total():
    grid = square_grid(2, 1.0)
    with pytest.raises(ZeroTotalError):
        Histogram(CountTensor(np.zeros((2, 2), dtype=np.int64)), grid).normalize()


def test_normalize_counts_shape_mismatch():
    grid = square_grid(3, 1.0)
    with pytest.raises(ShapeMismatchError):
        Histogram(CountTensor(np.ones((2, 2), dtype=np.int64)), grid).normalize()


def test_histogram_normalize_matches_manual():
    grid = square_grid(2, 1.0)
    hist = Histogram(np.array([[1, 2], [3, 4]]), grid)
    dist = hist.normalize()
    np.testing.assert_array_equal(dist.probs, np.array([[1, 2], [3, 4]]) / 10)
    assert hist.total == 10


@given(scale=st.integers(min_value=1, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_count_scaling_leaves_probabilities_bit_identical(scale):
    grid = square_grid(3, 1.0)
    base = np.array([[5, 0, 2], [1, 7, 3], [0, 4, 9]], dtype=np.int64)
    p1 = Histogram(base, grid).normalize().probs
    p2 = Histogram(base * scale, grid).normalize().probs
    np.testing.assert_array_equal(p1, p2)


# ---------------------------------------------------------------- joint distribution


def test_joint_distribution_validates_sum():
    grid = square_grid(2, 1.0)
    with pytest.raises(NotNormalizedError):
        JointDistribution(np.full((2, 2), 0.3), grid)


def test_joint_distribution_rejects_negative_entries():
    grid = square_grid(2, 1.0)
    probs = np.array([[0.6, 0.5], [-0.1, 0.0]])
    with pytest.raises(NegativeProbabilityError):
        JointDistribution(probs, grid)


def test_joint_distribution_rejects_nan():
    grid = square_grid(2, 1.0)
    probs = np.array([[0.5, 0.5], [float("nan"), 0.0]])
    with pytest.raises(NumericalError):
        JointDistribution(probs, grid)


def test_joint_distribution_shape_mismatch():
    grid = square_grid(2, 1.0)
    with pytest.raises(ShapeMismatchError):
        JointDistribution(np.full((3, 3), 1 / 9), grid)


# ---------------------------------------------------------------- marginals


def test_marginal_sums_over_other_party():
    # H(B|A) = H(A,B) - H(A) with A's marginal the row sums; H(A|B) takes the column sums
    grid = square_grid(2, 1.0)
    probs = np.array([[0.1, 0.2], [0.3, 0.4]])
    dist = JointDistribution(probs, grid)
    joint = entropy(dist)
    for given, party_probs in (("A", [0.3, 0.7]), ("B", [0.4, 0.6])):
        expected = joint - entropy(np.array(party_probs))
        assert conditional_entropy(dist, given) == pytest.approx(expected, abs=1e-15)


def test_marginal_rejects_unknown_party():
    grid = square_grid(2, 1.0)
    dist = JointDistribution(np.full((2, 2), 0.25), grid)
    with pytest.raises(UsageError):
        conditional_entropy(dist, "C")


@given(
    counts=st.lists(
        st.lists(st.integers(min_value=0, max_value=500), min_size=3, max_size=3),
        min_size=4,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_normalized_counts_form_valid_distribution(counts):
    arr = np.asarray(counts, dtype=np.int64)
    if arr.sum() == 0:
        return
    axis_a = AxisGrid(4, 1.0)
    axis_b = AxisGrid(3, 1.0)
    grid = GridSpec(Observable.POSITION, (axis_a,), (axis_b,))
    dist = Histogram(arr, grid).normalize()
    assert abs(dist.probs.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(
        dist.probs.sum(axis=1), arr.sum(axis=1) / arr.sum(), atol=1e-15
    )
