"""A margin kernel only reads the weights and totals of its layout.

The bootstrap hands the kernel a scratch array inside its own chunk buffer;
the layout's ``weights`` and ``totals`` are what every later chunk, the point
estimate and a second call are scored from, so no entry point may write them.
"""

import numpy as np
import pytest

from eprsteering import Histogram, asymmetry_map, evaluate, load_histogram, witness, witness_significance
from eprsteering.cli import main
from eprsteering.entropy import _layout
from eprsteering.witness import Direction, _checked_blocks, _kernel


@pytest.fixture(scope="module")
def default_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("default-synth")
    assert main(["synth", "--out-dir", str(out)]) == 0
    return load_histogram(out / "position.csv"), load_histogram(out / "momentum.csv")


@pytest.fixture
def built_layouts(monkeypatch):
    """Every layout a kernel is built on, read-only, with the bytes of its weights and totals as built."""
    built = []

    def read_only(tensors, totals):
        layout = _layout(tensors, totals)
        built.append((layout, layout.weights.tobytes(), layout.totals.tobytes()))
        layout.weights.setflags(write=False)
        layout.totals.setflags(write=False)
        return layout

    monkeypatch.setattr(witness, "_layout", read_only)
    return built


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("entry", ["point", "evaluate", "witness_significance", "asymmetry_map"])
def test_layout_weights_and_totals_keep_their_bytes(default_files, built_layouts, entry, direction):
    pos, mom = default_files
    kernel = _kernel(*_checked_blocks(pos, mom, direction, 2.0, (Histogram,)))
    calls = {
        "point": kernel.point,
        "evaluate": lambda: evaluate(pos, mom, direction=direction),
        # 2,000 replicates of the default files' 319 columns take two chunks
        "witness_significance": lambda: witness_significance(pos, mom, direction=direction, n_boot=2000, seed=5),
        "asymmetry_map": lambda: asymmetry_map(pos, mom, (6, 24), (24,), direction=direction, n_boot=100, seed=5),
    }
    first = calls[entry]()
    assert calls[entry]() == first
    assert built_layouts
    for layout, weights, totals in built_layouts:
        assert layout.weights.tobytes() == weights
        assert layout.totals.tobytes() == totals


def test_the_kernel_leaves_its_scratch_out_of_the_scores():
    # a scratch array full of garbage scores as one the call allocates
    rng = np.random.default_rng(2)
    counts = [rng.poisson(4.0, (5, 6)), rng.poisson(4.0, (4, 7))]
    layout = _layout(counts, [c.sum() for c in counts])
    weights = np.ascontiguousarray(rng.poisson(layout.weights, (3, layout.weights.size)).T, dtype=float)
    totals = np.add.reduceat(weights, layout.edges[:-1], axis=0)
    want = layout.nats(weights, totals)
    scratch = np.full(weights.size + 5, np.nan)
    got = layout.nats(weights, totals, "AB", scratch)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
