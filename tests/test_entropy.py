import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eprsteering import (
    AxisGrid,
    GridSpec,
    JointDistribution,
    NegativeProbabilityError,
    NotNormalizedError,
    Observable,
    UsageError,
    conditional_entropy,
    entropy,
    mutual_information,
)
from eprsteering.entropy import _layout, _party_nats

# Joint distribution used across the frozen-value tests:
#   [[1/2, 1/4], [1/8, 1/8]]
FROZEN_JOINT_H = 1.75
FROZEN_COND_B_GIVEN_A = 0.9387218755408672
FROZEN_MUTUAL = 0.015712127384097885


def dist_2x2() -> JointDistribution:
    ax = AxisGrid(2, 1.0)
    grid = GridSpec(Observable.POSITION, (ax,), (ax,))
    return JointDistribution(np.array([[0.5, 0.25], [0.125, 0.125]]), grid)


def normalized(arr: np.ndarray) -> np.ndarray:
    total = arr.sum()
    if total <= 0:
        return np.full_like(arr, 1.0 / arr.size)
    return arr / total


joint_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 9), st.integers(2, 9)),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)


def test_frozen_joint_entropy():
    assert entropy(dist_2x2()) == pytest.approx(FROZEN_JOINT_H, abs=1e-12)


def test_frozen_conditional_entropy():
    value = conditional_entropy(dist_2x2(), given="A")
    assert value == pytest.approx(FROZEN_COND_B_GIVEN_A, abs=1e-12)


def test_frozen_mutual_information():
    value = mutual_information(dist_2x2())
    assert value == pytest.approx(FROZEN_MUTUAL, abs=1e-12)


def test_entropy_value_rebase_round_trip():
    # every measure is a plain float, and bases convert by the log of the base
    for f in (entropy, conditional_entropy, mutual_information):
        in_bits = f(dist_2x2(), base=2.0)
        in_nats = f(dist_2x2(), base=math.e)
        assert type(in_bits) is float and type(in_nats) is float
        assert in_nats == pytest.approx(in_bits * math.log(2.0), rel=1e-14)
        assert in_nats / math.log(2.0) == pytest.approx(in_bits, rel=1e-14)


@pytest.mark.parametrize("base", [1.0, 0.5, 0.0, -2.0, float("nan")])
def test_invalid_base_rejected(base):
    with pytest.raises(UsageError):
        entropy(dist_2x2(), base=base)


def test_deterministic_distribution_has_zero_entropy():
    ax = AxisGrid(2, 1.0)
    grid = GridSpec(Observable.POSITION, (ax,), (ax,))
    probs = np.zeros((2, 2))
    probs[1, 0] = 1.0
    dist = JointDistribution(probs, grid)
    assert entropy(dist) == 0.0
    assert conditional_entropy(dist, given="A") == 0.0
    assert mutual_information(dist) == pytest.approx(0.0, abs=1e-15)


def test_uniform_distribution_attains_log_size():
    ax = AxisGrid(8, 1.0)
    grid = GridSpec(Observable.POSITION, (ax,), (ax,))
    dist = JointDistribution(np.full((8, 8), 1 / 64), grid)
    assert entropy(dist) == pytest.approx(6.0, abs=1e-12)
    assert conditional_entropy(dist, given="B") == pytest.approx(3.0, abs=1e-12)


def test_raw_array_inputs_accepted():
    probs = np.array([[0.5, 0.25], [0.125, 0.125]])
    assert entropy(probs) == pytest.approx(FROZEN_JOINT_H, abs=1e-12)
    assert conditional_entropy(probs, given="A") == pytest.approx(
        FROZEN_COND_B_GIVEN_A, abs=1e-12
    )


def test_raw_array_must_be_normalized():
    with pytest.raises(NotNormalizedError):
        entropy(np.array([[0.5, 0.25], [0.125, 0.0]]))


def test_raw_array_rejects_negative():
    with pytest.raises(NegativeProbabilityError):
        entropy(np.array([[0.75, 0.5], [-0.25, 0.0]]))


def test_conditional_requires_two_axes_for_raw_arrays():
    with pytest.raises(UsageError):
        conditional_entropy(np.full((2, 2, 2), 1 / 8), given="A")
    with pytest.raises(UsageError):
        mutual_information(np.full(4, 0.25))


def test_unknown_party_label_rejected():
    with pytest.raises(UsageError):
        conditional_entropy(dist_2x2(), given="X")


# ------------------------------------------------------------- properties


@given(joint_arrays)
@settings(max_examples=80, deadline=None)
def test_chain_rule_both_directions(arr):
    p = normalized(arr)
    h_joint = entropy(p, base=2.0)
    h_a = entropy(p.sum(axis=1), base=2.0)
    h_b = entropy(p.sum(axis=0), base=2.0)
    assert conditional_entropy(p, given="A") == pytest.approx(
        h_joint - h_a, abs=1e-12
    )
    assert conditional_entropy(p, given="B") == pytest.approx(
        h_joint - h_b, abs=1e-12
    )


@given(joint_arrays)
@settings(max_examples=80, deadline=None)
def test_mutual_information_symmetry_and_bounds(arr):
    p = normalized(arr)
    mi = mutual_information(p)
    h_a = entropy(p.sum(axis=1))
    h_b = entropy(p.sum(axis=0))
    assert mi >= -1e-12
    assert mi <= min(h_a, h_b) + 1e-12
    # Bayes symmetry: H(A) - H(A|B) == H(B) - H(B|A)
    asym = h_a - conditional_entropy(p, given="B")
    bsym = h_b - conditional_entropy(p, given="A")
    assert asym == pytest.approx(bsym, abs=1e-12)
    assert mi == pytest.approx(bsym, abs=1e-12)


@given(joint_arrays)
@settings(max_examples=80, deadline=None)
def test_conditioning_cannot_increase_entropy(arr):
    p = normalized(arr)
    h_b = entropy(p.sum(axis=0))
    assert conditional_entropy(p, given="A") <= h_b + 1e-12


@given(joint_arrays)
@settings(max_examples=80, deadline=None)
def test_entropy_never_exceeds_the_uniform_value(arr):
    p = normalized(arr)
    assert entropy(p, base=2.0) <= math.log2(p.size) + 1e-12
    assert conditional_entropy(p, given="A", base=2.0) <= math.log2(p.shape[1]) + 1e-12


def test_product_distribution_has_zero_mutual_information():
    rng = np.random.default_rng(11)
    pa = normalized(rng.random(6))
    pb = normalized(rng.random(5))
    mi = mutual_information(np.outer(pa, pb))
    assert mi == pytest.approx(0.0, abs=1e-12)


def test_large_support_entropy_adds_within_roundoff_of_an_exact_sum():
    # the kernel adds -p log p in column order; on the default state's 24^4
    # full joint (two copies of its position axis) at 2e6 events, that sum
    # must stay at the roundoff of an exactly rounded one
    from eprsteering import make_synthetic_state

    p = make_synthetic_state().position.probs
    joint = np.einsum("ab,cd->acbd", p, p)
    counts = np.random.default_rng(0).poisson(joint * 2e6)
    probs = counts / counts.sum()
    nonzero = probs[probs > 0]
    assert nonzero.size > 10_000
    exact = -math.fsum((nonzero * np.log(nonzero)).tolist())
    assert abs(entropy(probs, base=math.e) - exact) <= 1e-11


def test_layout_scores_only_the_parties_asked_for_with_the_same_bits():
    # a 1-D block and a 2-D block with empty cells, batched with drawn counts
    rng = np.random.default_rng(4)
    one = rng.integers(0, 5, size=(3, 5))
    two = rng.integers(0, 5, size=(2, 3, 2, 4))
    layout = _layout([one, two], [one.sum(), two.sum()])
    # six rows of the batch, one per column
    weights = np.ascontiguousarray(rng.poisson(layout.weights, size=(6, layout.weights.size)).T, dtype=float) + 1.0
    assert weights.flags.c_contiguous
    totals = np.add.reduceat(weights, layout.edges[:-1], axis=0)
    h, h_a, h_b = layout.nats(weights, totals)
    for parties, want in (("A", (h, h_a)), ("B", (h, h_b)), ("AB", (h, h_a, h_b))):
        got = layout.nats(weights, totals, parties)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
    # the party-A entropy of each block is the entropy of its row marginal
    first = weights[: layout.edges[1]]
    rows = np.bincount(layout.bins["A"][: layout.edges[1]], first[:, 0], 3)
    assert h_a[0, 0] == pytest.approx(-np.sum(rows / totals[0, 0] * np.log(rows / totals[0, 0])), rel=1e-12)


def test_one_party_keeps_the_bits_of_both():
    # conditional_entropy reads one marginal; the joint entropy and that
    # party's must be the bits the call for both parties gives
    rng = np.random.default_rng(6)
    ax = AxisGrid(3, 1.0)
    dists = [dist_2x2(), normalized(rng.random((4, 7))), normalized(rng.random((5, 3)) * (rng.random((5, 3)) > 0.4))]
    for _ in range(5):
        probs = rng.random((3, 3, 3, 3)) * (rng.random((3, 3, 3, 3)) > 0.3)
        dists.append(JointDistribution(normalized(probs), GridSpec(Observable.POSITION, (ax, ax), (ax, ax))))
    for dist in dists:
        h, h_a, h_b = _party_nats(dist, "AB")
        assert [x.hex() for x in _party_nats(dist, "A")] == [h.hex(), h_a.hex()]
        assert [x.hex() for x in _party_nats(dist, "B")] == [h.hex(), h_b.hex()]
