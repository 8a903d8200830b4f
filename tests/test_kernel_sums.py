"""The column-major entropy kernel holds the bits of the row-major bincount kernel it replaced.

Every group sum of ``entropy._Layout.nats`` must add its cells in column
order from the first, as ``np.bincount`` did; ``oracles.bincount_nats`` is
that kernel, kept as the reference.  Two numpy traps move bits: one column
of a ``(cells, 1)`` array is summed pairwise by ``np.add.reduce``, and
``np.add.reduceat`` along axis 0 does not add in order.  The layouts here
are wide enough (24 to 96 columns a block) for either to show.
"""

import math

import numpy as np
import pytest

from eprsteering import AxisGrid, GridSpec, Histogram, JointDistribution, Observable, evaluate
from eprsteering.entropy import _layout, _party_nats, entropy
from eprsteering.witness import Direction, _checked_blocks, _kernel

from oracles import bincount_group_nats, bincount_margins, bincount_nats

BATCHES = (1, 2, 3, 101)


def grid(observable, shape):
    axes = tuple(AxisGrid.centered(n, 4.0) for n in shape)
    half = len(shape) // 2
    return GridSpec(observable, axes[:half], axes[half:])


def sparse_counts(rng, shape):
    """Counts with scattered empty cells, party A's first bin and party B's last bin empty."""
    counts = rng.poisson(6.0, shape) * (rng.random(shape) < 0.8)
    half = len(shape) // 2
    counts[(0,) * half] = 0
    counts[(Ellipsis,) + (-1,) * half] = 0
    return counts


SHAPES = {
    "1d": [(8, 12)],
    "2d": [(3, 4, 4, 3)],
    "independent": [(9, 7), (6, 10)],
}


def blocks(layout_name, kind):
    """Position and momentum blocks of a layout: counts as Histograms, or their probabilities."""
    rng = np.random.default_rng(sum(map(ord, layout_name)))
    made = []
    for observable in (Observable.POSITION, Observable.MOMENTUM):
        row = []
        for shape in SHAPES[layout_name]:
            counts = sparse_counts(rng, shape)
            g = grid(observable, shape)
            row.append(Histogram(counts, g) if kind == "counts" else JointDistribution(counts / counts.sum(), g))
        made.append(row)
    return made


def rows(layout, kind, batch, seed=0):
    """Row 0 the layout's own weights, then Poisson redraws; row-major ``(batch, columns)`` and ``(batch, blocks)``."""
    rng = np.random.default_rng(seed)
    weights = np.empty((batch, layout.weights.size))
    weights[0] = layout.weights
    means = layout.weights if kind == "counts" else layout.weights * 50.0
    weights[1:] = rng.poisson(means, size=(batch - 1, means.size))
    starts = list(layout.edges[:-1])
    totals = np.add.reduceat(weights, starts, axis=1)
    assert (totals > 0).all()
    if kind != "counts":
        weights[1:] /= np.repeat(totals[1:], np.diff(layout.edges), axis=1)
        totals = np.ones_like(totals)
    return weights, totals


def column_major(weights, totals):
    return np.ascontiguousarray(weights.T), np.ascontiguousarray(totals.T)


def bits(arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("kind", ["counts", "probabilities"])
@pytest.mark.parametrize("layout_name", list(SHAPES))
def test_nats_hold_the_bincount_bits(layout_name, kind, batch):
    pos, mom = blocks(layout_name, kind)
    layout = _kernel(*_checked_blocks(pos, mom, Direction.SYMMETRIC, 2.0, (Histogram, JointDistribution))).layout
    assert min(np.diff(layout.edges)) >= 24
    weights, totals = rows(layout, kind, batch)
    for parties in ("A", "B", "AB"):
        got = layout.nats(*column_major(weights, totals), parties)
        want = bincount_nats(layout, weights, totals, parties)
        assert all(g.shape == w.T.shape for g, w in zip(got, want))
        assert bits(g.T for g in got) == bits(want)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("kind", ["counts", "probabilities"])
@pytest.mark.parametrize("layout_name", list(SHAPES))
@pytest.mark.parametrize("direction", list(Direction))
def test_margins_hold_the_bincount_bits(direction, layout_name, kind, batch):
    pos, mom = blocks(layout_name, kind)
    kernel = _kernel(*_checked_blocks(pos, mom, direction, 2.0, (Histogram, JointDistribution)))
    weights, totals = rows(kernel.layout, kind, batch)
    got = kernel(*column_major(weights, totals))
    assert bits(got) == bits(bincount_margins(kernel, weights, totals))
    # row 0 holds the blocks themselves: the point of a batch of one
    one = kernel(*column_major(weights[:1], totals[:1]))
    assert bits(x[:1] for x in got) == bits(one)
    point = kernel.point()
    assert point == kernel.point(got) == evaluate(pos, mom, direction=direction)
    assert bits([point.lhs, point.margin]) == bits([one[0][0], one[1][0]])


@pytest.mark.parametrize("kind", ["counts", "probabilities"])
def test_a_batch_of_one_is_row_zero_of_every_batch(kind):
    # a lone column summed pairwise would move these sums in their last bits
    pos, mom = blocks("2d", kind)
    layout = _kernel(*_checked_blocks(pos, mom, Direction.SYMMETRIC, 2.0, (Histogram, JointDistribution))).layout
    weights, totals = rows(layout, kind, 101)
    one = layout.nats(*column_major(weights[:1], totals[:1]))
    for batch in BATCHES[1:]:
        got = layout.nats(*column_major(weights[:batch], totals[:batch]))
        assert bits(g[:, :1] for g in got) == bits(one)


@pytest.mark.parametrize("layout_name", ["1d", "2d"])
def test_party_and_whole_tensor_entropies_hold_the_bincount_bits(layout_name):
    # the public entropies score one distribution, a batch of one
    pos, _ = blocks(layout_name, "probabilities")
    dist = pos[0]
    layout = _layout([dist.probs], [1.0])
    want = bincount_nats(layout, layout.weights[None], layout.totals[None])
    assert bits(_party_nats(dist)) == bits(float(h[0, 0]) for h in want)
    p = dist.probs
    whole = bincount_group_nats(p.reshape(1, -1), np.zeros(p.size, dtype=np.intp), np.ones((1, 1)))
    assert entropy(dist, base=math.e) == float(whole[0, 0]) / math.log(math.e)
