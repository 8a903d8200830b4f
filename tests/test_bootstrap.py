import dataclasses
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from eprsteering import (
    AxisGrid,
    BootstrapReport,
    CountTensor,
    DataError,
    DegenerateBootstrapError,
    Direction,
    GridSpec,
    Histogram,
    JointDistribution,
    Observable,
    UsageError,
    ZeroTotalError,
    downsample,
    evaluate,
    make_synthetic_state,
    poisson_resample,
    SyntheticState,
    default_params,
    replicate_rng,
    sample_histograms,
    witness_significance,
)
from eprsteering import bootstrap, spdc
from eprsteering.bootstrap import MIN_REPLICATES, POISSON_MEAN_MAX, _philox_keys
from eprsteering.witness import _checked_blocks, _kernel, _MarginKernel


@pytest.fixture(scope="module")
def sampled_default():
    state = make_synthetic_state()
    return sample_histograms(state, total=200_000, seed=4)


# Extent 3 on every axis: L_x * L_k = 9 exceeds pi*e, below which a witness
# fires whatever the data (ROADMAP item 15).


def tiny_pair(counts: np.ndarray):
    n = counts.shape[0]
    pos_grid = GridSpec(
        Observable.POSITION, (AxisGrid.centered(n, 3.0),), (AxisGrid.centered(n, 3.0),)
    )
    mom_grid = GridSpec(
        Observable.MOMENTUM, (AxisGrid.centered(n, 3.0),), (AxisGrid.centered(n, 3.0),)
    )
    return Histogram(counts, pos_grid), Histogram(counts, mom_grid)


def per_replicate_margins(pos_blocks, mom_blocks, direction, seed, n_boot):
    """Reference: each replicate drawn block by block and scored alone through evaluate."""
    margins = np.empty(n_boot)
    rejected = 0
    for i in range(n_boot):
        attempt = 0
        while True:
            rng = replicate_rng(seed, i, attempt)
            pos_rep = [poisson_resample(b.counts, rng) for b in pos_blocks]
            mom_rep = [poisson_resample(b.counts, rng) for b in mom_blocks]
            if all(c.total > 0 for c in pos_rep + mom_rep):
                break
            rejected += 1
            attempt += 1
        pos = [Histogram(c, b.grid) for c, b in zip(pos_rep, pos_blocks)]
        mom = [Histogram(c, b.grid) for c, b in zip(mom_rep, mom_blocks)]
        margins[i] = evaluate(pos, mom, direction=direction).margin
    return margins, rejected


def kernel_margins(pos_blocks, mom_blocks, direction, seed, n_boot, chunks=None):
    """The bootstrap's point, margins and rejections; ``chunks``, if given, collects the rows of each kernel call."""
    kernel = _kernel(*_checked_blocks(pos_blocks, mom_blocks, direction, 2.0, (Histogram,)))
    score = _MarginKernel.__call__

    def scored(self, weights, totals, *scratch):
        # a chunk is scored column-major: one column per row of the batch
        assert weights.flags.c_contiguous and weights.shape[1] == totals.shape[1]
        if chunks is not None:
            chunks.append(weights.shape[1])
        return score(self, weights, totals, *scratch)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_MarginKernel, "__call__", scored)
        return bootstrap._replicate_margins(kernel, (seed,), n_boot)


def support_size(blocks):
    """Non-zero cells over all blocks: the columns of one bootstrap row."""
    return sum(np.count_nonzero(b.counts.counts) for b in blocks)


def grid_2d(observable, shape):
    axes = tuple(AxisGrid.centered(n, 3.0) for n in shape)
    return GridSpec(observable, axes[:2], axes[2:])


def full_joint_2d():
    rng = np.random.default_rng(3)
    shape = (3, 2, 3, 2)
    return (
        [Histogram(rng.poisson(4.0, shape), grid_2d(Observable.POSITION, shape))],
        [Histogram(rng.poisson(4.0, shape), grid_2d(Observable.MOMENTUM, shape))],
    )


def independent_axes():
    rng = np.random.default_rng(5)
    blocks = [tiny_pair(rng.poisson(3.0, (4, 4))) for _ in range(2)]
    return [b[0] for b in blocks], [b[1] for b in blocks]


def default_1d(sampled):
    pos, mom = sampled
    return [downsample(pos, 3, 3)], [downsample(mom, 3, 3)]


def one_cell(shape, flat_index, count):
    counts = np.zeros(shape, dtype=np.int64)
    counts.flat[flat_index] = count
    return counts


def zero_rim(counts):
    """``counts`` with its first and last cells (in flat order) emptied."""
    counts = counts.copy()
    counts.flat[0] = counts.flat[-1] = 0
    return counts


# Sparse layouts: the blocks open and close on zero cells, but for one that
# holds a single event in a single cell (its first cell, in the
# independent-axes layout), so about a third of the draws come back empty
# and are redrawn.


def sparse_1d():
    rng = np.random.default_rng(7)
    return [tiny_pair(zero_rim(rng.poisson(1.5, (5, 5))))[0]], [tiny_pair(one_cell((5, 5), 12, 1))[1]]


def sparse_independent_axes():
    rng = np.random.default_rng(8)
    pos = [tiny_pair(zero_rim(rng.poisson(0.8, (4, 4))))[0] for _ in range(2)]
    mom = [tiny_pair(one_cell((4, 4), 0, 1))[1], tiny_pair(zero_rim(rng.poisson(2.0, (4, 4))))[1]]
    return pos, mom


def sparse_full_joint_2d():
    rng = np.random.default_rng(9)
    shape = (3, 2, 3, 2)
    return (
        [Histogram(zero_rim(rng.poisson(1.0, shape)), grid_2d(Observable.POSITION, shape))],
        [Histogram(one_cell(shape, 17, 1), grid_2d(Observable.MOMENTUM, shape))],
    )


INPUTS = ["1d", "2d", "independent", "sparse-1d", "sparse-2d", "sparse-independent"]


def named_inputs(name, sampled):
    """The position and momentum blocks of one of ``INPUTS``."""
    return {
        "1d": lambda: default_1d(sampled),
        "2d": full_joint_2d,
        "independent": independent_axes,
        "sparse-1d": sparse_1d,
        "sparse-2d": sparse_full_joint_2d,
        "sparse-independent": sparse_independent_axes,
    }[name]()


# ------------------------------------------------------------------ streams


def test_replicate_rng_reproducible_and_keyed():
    a = replicate_rng(3, 7).random(4)
    b = replicate_rng(3, 7).random(4)
    np.testing.assert_array_equal(a, b)
    assert (replicate_rng(3, 8).random(4) != a).any()
    assert (replicate_rng(3, 7, attempt=1).random(4) != a).any()
    assert (replicate_rng([3, 1], 7).random(4) != a).any()


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7: SeedSequence splits a seed of 2**32 or more into two 32-bit words, "
    "so a sampling key (seed, observable) can hash as a replicate key (seed, replicate, attempt)",
)
def test_sampling_and_replicate_streams_never_share_a_key():
    # (5 * 2**32 + 7, 0) and (7, 5, 0) are both the words [7, 5, 0]
    state = make_synthetic_state(n_windows=4)
    pos, _ = sample_histograms(state, total=1_000, seed=5 * 2**32 + 7)
    replicate = replicate_rng(7, 5, 0).poisson(state.position.probs * 1_000)
    assert not np.array_equal(pos.counts.counts, replicate)


def test_seed_validation():
    with pytest.raises(UsageError):
        replicate_rng(-1, 0)
    with pytest.raises(UsageError):
        replicate_rng([2, -5], 0)
    with pytest.raises(UsageError):
        replicate_rng("seed", 0)
    with pytest.raises(UsageError):
        replicate_rng([], 0)


@pytest.mark.parametrize(
    "index, attempt, message",
    [
        (1.5, 0, "index must be an integer, got 1.5"),
        (True, 0, "index must be an integer, got True"),
        (-1, 0, "index must be >= 0, got -1"),
        (0, 0.0, "attempt must be an integer, got 0.0"),
        (0, -1, "attempt must be >= 0, got -1"),
    ],
)
def test_replicate_rng_refuses_a_bad_index_or_attempt(index, attempt, message):
    # a fractional index used to be truncated to another replicate's stream
    with pytest.raises(UsageError, match=f"^{message}$"):
        replicate_rng(0, index, attempt)


@pytest.mark.parametrize(
    "args, alias, message",
    [
        ((0, 2**32 + 5, 0), ((0, 5), 1), "index must be <= 4294967295, got 4294967301"),
        ((0, 7, 2**32), ((0, 7), 0, 1), "attempt must be <= 4294967295, got 4294967296"),
    ],
    ids=["index", "attempt"],
)
def test_replicate_rng_refuses_an_index_or_attempt_past_one_word(args, alias, message):
    # SeedSequence splits 2**32 + 5 into the words 5 and 1, so such an index
    # or attempt used to draw the stream of another replicate's key
    split = np.random.SeedSequence(args).generate_state(2, np.uint64)
    np.testing.assert_array_equal(split, replicate_rng(*alias).bit_generator.state["state"]["key"])
    with pytest.raises(UsageError, match=f"^{message}$"):
        replicate_rng(*args)
    replicate_rng(0, 2**32 - 1, 2**32 - 1)  # the largest one-word values still key a stream


@pytest.mark.parametrize(
    "seed", [(0,), (5,), (2**40 + 3,), (2**64 - 1,), (3, 1), (0, 8, 24), (2**33, 7, 2**64 - 1, 0, 9)]
)
@pytest.mark.parametrize("attempt", [0, 1, 999])
def test_philox_keys_match_seed_sequence(seed, attempt):
    # the bootstrap's vectorized hash must give the key replicate_rng's
    # SeedSequence gives, bit for bit, up to the last index MAX_REPLICATES allows
    index = np.array([0, 1, 2**32 - 1], dtype=np.uint64)
    keys = _philox_keys(seed, index, attempt)
    assert keys.dtype == np.uint64
    for i, key in zip(index.tolist(), keys):
        want = np.random.SeedSequence(seed + (i, attempt)).generate_state(2, np.uint64)
        np.testing.assert_array_equal(key, want)
        stream = replicate_rng(seed, i, attempt).bit_generator.state["state"]["key"]
        np.testing.assert_array_equal(key, stream)


@pytest.mark.parametrize(
    "columns", [1, 2, 8, bootstrap._SCALAR_DRAW_COLUMNS, bootstrap._SCALAR_DRAW_COLUMNS + 1, 64]
)
@pytest.mark.parametrize("low, high", [(0.5, 9.5), (10.0, 400.0), (0.5, 40.0)], ids=["below-10", "from-10", "mixed"])
@pytest.mark.parametrize("attempt, rows", [(0, [0, 1, 2, 3]), (3, [1, 3])], ids=["draw", "redraw"])
def test_drawer_matches_replicate_rng_row_by_row(columns, low, high, attempt, rows):
    # up to _SCALAR_DRAW_COLUMNS means _draw makes one scalar call per
    # mean, past it one array call; either way each row it writes is the
    # array draw of its replicate's stream, with numpy's multiplication
    # sampler (means below 10), its rejection sampler (10 and up) or both,
    # and a redraw writes only the rows of its empty replicates
    lam = np.random.default_rng(columns).uniform(low, high, columns)
    lam[0] = low
    key, index = (7, 2**40 + 3), np.array([0, 5, 99, 2**32 - 1])[rows]
    out = np.full((4, columns), -1.0)
    bootstrap._draw(lam, _philox_keys(key, index, attempt).tolist(), rows, out)
    for r, i in zip(rows, index.tolist()):
        np.testing.assert_array_equal(out[r], replicate_rng(key, i, attempt).poisson(lam))
    untouched = np.setdiff1d(np.arange(4), rows)
    assert (out[untouched] == -1.0).all()


@pytest.mark.parametrize("factor", [1, 8], ids=["array-draws", "scalar-draws"])
def test_threads_draw_the_reports_of_serial_calls(sampled_default, factor):
    # each draw call makes its own Philox: two threads at once must give
    # every report that one thread gives, seed by seed
    pos, mom = (downsample(h, factor, factor) for h in sampled_default)
    seeds = range(8)
    serial = [witness_significance(pos, mom, n_boot=200, seed=s) for s in seeds]
    start = threading.Barrier(2)

    def run(s):
        if s < 2:
            start.wait(timeout=60)
        return witness_significance(pos, mom, n_boot=200, seed=s)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a shared generator is caught between rows
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(run, seeds, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def _plain(state: dict) -> dict:
    return {k: _plain(v) if isinstance(v, dict) else np.asarray(v).tolist() for k, v in state.items()}


@pytest.mark.parametrize("seed", [(0,), (7,), (3, 1), (2**40 + 3, 5, 9)])
def test_poisson_reads_no_stream_for_a_zero_mean(seed):
    # the bootstrap draws only the non-zero means: numpy returns 0 for a zero
    # mean without reading the stream, so the draws and the generator's final
    # state equal those of the draw over every mean, in either sampler regime
    lam = np.array([0.0, 0.0, 3.0, 0.0, 0.5, 12.0, 0.0, 40.0, 1e6, 0.0, 7.0, 0.0])
    support = np.flatnonzero(lam)
    dense_rng, sparse_rng = replicate_rng(seed, 4), replicate_rng(seed, 4)
    for _ in range(3):
        dense = dense_rng.poisson(lam)
        sparse = np.zeros_like(dense)
        sparse[support] = sparse_rng.poisson(lam[support])
        np.testing.assert_array_equal(dense, sparse)
    assert _plain(dense_rng.bit_generator.state) == _plain(sparse_rng.bit_generator.state)


def test_poisson_mean_limit_is_numpys():
    rng = replicate_rng(0, 0)
    rng.poisson(POISSON_MEAN_MAX)
    with pytest.raises(ValueError):
        rng.poisson(np.nextafter(POISSON_MEAN_MAX, np.inf))


def test_counts_above_the_poisson_limit_are_refused_before_any_draw(monkeypatch):
    counts = np.array([[9_300_000_000_000_000_000, 1], [1, 1]], dtype=np.uint64)
    pos, mom = tiny_pair(counts)
    # a hand-built state whose one probability is rounded just past 1 takes a
    # cell mean past the limit at the largest total sample_histograms accepts
    past_one = JointDistribution(np.array([[1 + 5e-13, 0.0], [0.0, 0.0]]), pos.grid)
    state = SyntheticState(default_params(), past_one, mom.normalize(), 0.0, 0.0)

    def no_draw(*args):
        raise AssertionError("drew before checking the means")

    monkeypatch.setattr(bootstrap, "_philox_keys", no_draw)
    monkeypatch.setattr(spdc, "_keyed_rng", no_draw)
    with pytest.raises(DataError, match="largest Poisson mean"):
        witness_significance(pos, mom, n_boot=100, seed=0)
    with pytest.raises(DataError, match="largest Poisson mean"):
        poisson_resample(pos.counts, replicate_rng(0, 0))
    with pytest.raises(DataError, match="largest Poisson mean"):
        sample_histograms(state, total=POISSON_MEAN_MAX)


def test_poisson_resample_shape_and_mean():
    counts = CountTensor(np.full((20, 20), 400, dtype=np.int64))
    out = poisson_resample(counts, replicate_rng(0, 0))
    assert out.counts.shape == (20, 20)
    assert out.counts.dtype == np.uint64
    # 400 cells of mean 400: the grand mean lands within a few standard errors
    assert abs(out.counts.mean() - 400) < 5.0
    zero = poisson_resample(CountTensor(np.zeros((3, 3), dtype=np.int64)), replicate_rng(0, 1))
    assert zero.total == 0


# ------------------------------------------------------------ significance


def test_witness_significance_deterministic(sampled_default):
    pos, mom = sampled_default
    first = witness_significance(pos, mom, n_boot=100, seed=7)
    second = witness_significance(pos, mom, n_boot=100, seed=7)
    assert first == second
    assert isinstance(first, BootstrapReport)
    assert first.seed == (7,)
    assert first.n_boot == 100
    shifted = witness_significance(pos, mom, n_boot=100, seed=8)
    assert shifted.significance != first.significance


def test_witness_significance_signs_follow_margins(sampled_default):
    pos, mom = sampled_default
    fine = witness_significance(pos, mom, n_boot=100, seed=1)
    assert fine.margin_mean > 0
    assert fine.significance > 3.0
    coarse = witness_significance(
        downsample(pos, 8, 8), downsample(mom, 8, 8), n_boot=100, seed=1
    )
    assert coarse.margin_mean < 0
    assert coarse.significance < -3.0


def test_witness_significance_base_invariant(sampled_default):
    pos, mom = sampled_default
    r2 = witness_significance(pos, mom, n_boot=100, seed=2, base=2.0)
    re = witness_significance(pos, mom, n_boot=100, seed=2, base=math.e)
    # margins rescale by ln 2 but the sigma count is base-free
    assert re.significance == pytest.approx(r2.significance, rel=1e-9)
    assert re.margin_mean == pytest.approx(r2.margin_mean * math.log(2), rel=1e-9)


def test_witness_significance_rejects_small_n_boot(sampled_default):
    pos, mom = sampled_default
    with pytest.raises(UsageError):
        witness_significance(pos, mom, n_boot=MIN_REPLICATES - 1)
    with pytest.raises(UsageError):
        witness_significance(pos, mom, n_boot=100.0)


def test_witness_significance_requires_histograms(sampled_default):
    pos, _ = sampled_default
    state = make_synthetic_state(n_windows=8)
    with pytest.raises(UsageError):
        witness_significance(state.position, state.momentum, n_boot=100)


def test_margin_std_shrinks_like_sqrt_of_total():
    state = make_synthetic_state(n_windows=8)
    small_pos, small_mom = sample_histograms(state, total=100_000, seed=21)
    large_pos, large_mom = sample_histograms(state, total=400_000, seed=21)
    small = witness_significance(small_pos, small_mom, n_boot=300, seed=5)
    large = witness_significance(large_pos, large_mom, n_boot=300, seed=5)
    ratio = small.margin_std / large.margin_std
    assert 1.6 < ratio < 2.5


def test_sparse_histograms_trigger_redraws():
    counts = np.array([[1, 0], [0, 1]], dtype=np.int64)
    pos, mom = tiny_pair(counts)
    # symmetric: B is a function of A in every replicate, so B|A margins
    # are constant (test_constant_margins_are_degenerate)
    report = witness_significance(pos, mom, direction=Direction.SYMMETRIC, n_boot=100, seed=0)
    # Poisson around two single-count cells comes back all-zero often; those
    # replicates must be redrawn, not silently dropped or crashed on
    assert report.rejected_replicates > 0
    assert math.isfinite(report.significance)


def test_constant_margins_are_degenerate():
    # one window per axis: every entropy is 0 in exact arithmetic, so each
    # margin is the bound and differs from it in the last bits alone, which
    # must not read as a spread (the default state gave -2.7e15 sigma); the
    # same holds for B|A when B is a function of A, as on a diagonal
    counts = np.array([[9]], dtype=np.int64)
    pos, mom = tiny_pair(counts)
    with pytest.raises(DegenerateBootstrapError):
        witness_significance(pos, mom, n_boot=100, seed=0)
    diagonal = tiny_pair(np.array([[1, 0], [0, 1]], dtype=np.int64))
    with pytest.raises(DegenerateBootstrapError, match="constant up to roundoff"):
        witness_significance(*diagonal, n_boot=100, seed=0)
    one_window = sample_histograms(make_synthetic_state(n_windows=1), seed=0)
    for direction in (Direction.B_GIVEN_A, Direction.SYMMETRIC):
        with pytest.raises(DegenerateBootstrapError, match="constant up to roundoff"):
            witness_significance(*one_window, direction=direction, n_boot=100, seed=0)


def test_empty_histograms_exhaust_redraws():
    # a histogram without events, whose every replicate would be empty, is
    # refused where it is built, before any bootstrap can start
    counts = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ZeroTotalError, match="count tensor holds zero events"):
        tiny_pair(counts)


def test_sparse_histograms_can_exhaust_redraws(monkeypatch):
    # zero-event histograms are refused up front, so the redraw limit is
    # reached here by sparse counts with the limit cut to one redraw
    counts = np.array([[1, 0], [0, 1]], dtype=np.int64)
    pos, mom = tiny_pair(counts)
    monkeypatch.setattr(bootstrap, "_MAX_REDRAWS", 2)
    with pytest.raises(DegenerateBootstrapError, match="stayed empty after 2 redraws"):
        witness_significance(pos, mom, n_boot=100, seed=0)


def test_report_matches_replicate_reconstruction(sampled_default):
    # replicate i depends only on (seed, i, attempt), so an outside loop over
    # the same keyed streams must land on the same mean, std, and sigma
    from eprsteering import evaluate

    pos, mom = sampled_default
    report = witness_significance(pos, mom, n_boot=100, seed=11)
    assert report.rejected_replicates == 0
    margins = np.empty(100)
    for i in range(100):
        rng = replicate_rng(11, i)
        pos_rep = Histogram(poisson_resample(pos.counts, rng), pos.grid)
        mom_rep = Histogram(poisson_resample(mom.counts, rng), mom.grid)
        margins[i] = evaluate(pos_rep, mom_rep).margin
    assert report.margin_mean == margins.mean()
    assert report.margin_std == margins.std(ddof=1)
    assert report.significance == margins.mean() / margins.std(ddof=1)


# ------------------------------------------------------------------ kernel


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("inputs", INPUTS)
def test_chunked_kernel_matches_per_replicate_evaluate(
    inputs, direction, sampled_default, monkeypatch
):
    # chunks of 7 rows split 100 replicates unevenly, each led by the
    # observed row; neither the margins nor the point may depend on which
    # rows were scored together.  The bootstrap scores the observed non-zero
    # cells, and the reference each replicate's own: the sparse inputs hold
    # that equal across block edges, zero-cell rims and redraws
    pos, mom = named_inputs(inputs, sampled_default)
    monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 7 * 8 * support_size(pos + mom))
    chunks = []
    point, chunked, rejected = kernel_margins(pos, mom, direction, 13, 100, chunks)
    assert chunks == [1 + 7] * 14 + [1 + 2]
    assert point == evaluate(pos, mom, direction=direction)
    want, want_rejected = per_replicate_margins(pos, mom, direction, 13, 100)
    assert (want_rejected > 0) == inputs.startswith("sparse")
    assert rejected == want_rejected
    np.testing.assert_array_equal(chunked, want)
    monkeypatch.undo()
    _, whole, _ = kernel_margins(pos, mom, direction, 13, 100)
    np.testing.assert_array_equal(whole, want)
    report = witness_significance(pos, mom, direction=direction, n_boot=100, seed=13)
    assert report.point == evaluate(pos, mom, direction=direction)


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("inputs", INPUTS)
def test_counts_score_within_roundoff_of_their_probabilities(inputs, direction, sampled_default):
    # a Histogram is scored as counts with its event total N, its normalize()
    # as probabilities with N = 1: log N - sum(c log c) / N is the same
    # entropy, so the two differ by roundoff alone
    pos, mom = named_inputs(inputs, sampled_default)
    counts = evaluate(pos, mom, direction=direction)
    probs = evaluate([b.normalize() for b in pos], [b.normalize() for b in mom], direction=direction)
    assert abs(counts.margin - probs.margin) <= 1e-12
    assert abs(counts.lhs - probs.lhs) <= 1e-12
    assert dataclasses.replace(counts, lhs=probs.lhs, margin=probs.margin) == probs
    report = witness_significance(pos, mom, direction=direction, n_boot=100, seed=3)
    assert report.point == counts


def test_evaluate_refuses_a_histogram_without_events(sampled_default):
    # the refusal is the type's, so no histogram evaluate is given can be empty
    _, mom = sampled_default
    with pytest.raises(ZeroTotalError, match="count tensor holds zero events"):
        Histogram(np.zeros(mom.counts.shape, dtype=np.int64), mom.grid)


def test_sparse_rejections_in_small_chunks_match_per_replicate_loop(monkeypatch):
    # redraws inside a later chunk must key on the replicate's index in the
    # whole run, not in its chunk
    counts = np.array([[1, 0], [0, 1]], dtype=np.int64)
    pos, mom = tiny_pair(counts)
    monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 7 * 8 * support_size([pos, mom]))
    chunks = []
    _, chunked, rejected = kernel_margins([pos], [mom], Direction.SYMMETRIC, 3, 100, chunks)
    assert chunks == [1 + 7] * 14 + [1 + 2]
    want, want_rejected = per_replicate_margins([pos], [mom], Direction.SYMMETRIC, 3, 100)
    assert want_rejected > 0
    assert rejected == want_rejected
    np.testing.assert_array_equal(chunked, want)


def test_sparse_rejections_match_per_replicate_loop():
    # four columns: the redraws of empty blocks take _draw's scalar path
    counts = np.array([[1, 0], [0, 1]], dtype=np.int64)
    pos, mom = tiny_pair(counts)
    assert support_size([pos, mom]) <= bootstrap._SCALAR_DRAW_COLUMNS
    report = witness_significance(pos, mom, direction=Direction.SYMMETRIC, n_boot=100, seed=0)
    margins, rejected = per_replicate_margins([pos], [mom], Direction.SYMMETRIC, 0, 100)
    assert rejected > 0
    assert report.rejected_replicates == rejected
    assert report.margin_mean == margins.mean()
    assert report.margin_std == margins.std(ddof=1)
