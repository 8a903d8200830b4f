"""Tests of the benchmark's own correctness gate, on small versions of each workload.

The gate must accept the package's real outputs and flag a margin off by
1e-6 bits and an output that differs in one byte, so that it cannot pass
vacuously.

Run from the root of a checkout:  python3 -m pytest bench/test_gate.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402

PERTURBATION = 1e-6


def _gate_findings(wl, inputs, out, reference_digests):
    return wl.check(inputs, out) + gate.compare_digests(reference_digests, wl.digests(out))


def _check_workload(wl, inputs, perturb):
    out = wl.op(inputs)
    digests = wl.digests(out)
    assert _gate_findings(wl, inputs, out, digests) == []
    assert wl.digests(wl.op(inputs)) == digests, "same inputs and seed must give identical outputs"
    bad = perturb(out)
    findings = _gate_findings(wl, inputs, bad, digests)
    assert any("reference" in f for f in findings), findings
    assert any("changed" in f for f in findings), findings


def test_cli_witness_gate(tmp_path):
    wl = workloads.CliWitness(n_windows=8)
    inputs = wl.setup(seed=1, workdir=tmp_path)

    def perturb(out):
        doc = json.loads(out[-1])
        doc["margin"]["value"] += PERTURBATION
        return [*out[:-1], json.dumps(doc, sort_keys=True, indent=2).encode() + b"\n"]

    _check_workload(wl, inputs, perturb)


def test_cli_witness_gate_flags_one_changed_byte(tmp_path):
    wl = workloads.CliWitness(n_windows=8)
    out = wl.op(wl.setup(seed=1, workdir=tmp_path))
    changed = out[0].replace(b'"format"', b'"formaT"', 1)
    assert len(changed) == len(out[0]) and changed != out[0]
    assert gate.compare_digests(wl.digests(out), wl.digests([changed, *out[1:]]))


def test_map_gate(tmp_path):
    wl = workloads.Map1D(n_windows=8, resolutions=(2, 4, 8))
    inputs = wl.setup(seed=2, workdir=tmp_path)

    def perturb(sweep):
        cell = sweep.cells[-1]
        result = dataclasses.replace(cell.result, margin=cell.result.margin + PERTURBATION)
        return dataclasses.replace(sweep, cells=sweep.cells[:-1] + (dataclasses.replace(cell, result=result),))

    _check_workload(wl, inputs, perturb)


@pytest.mark.parametrize("direction", ["B_given_A", "A_given_B", "symmetric"])
def test_reference_margin_matches_package(direction):
    from eprsteering import coarse, spdc, witness

    pos, mom = spdc.sample_histograms(spdc.make_synthetic_state(n_windows=12), seed=4)
    for fa, fb in [(1, 1), (2, 3), (6, 1)]:
        p, m = coarse.downsample(pos, fa, fb), coarse.downsample(mom, fa, fb)
        want = witness.evaluate(p.normalize(), m.normalize(), direction=direction).margin
        got = gate.margin_bits(
            [gate.coarsen(workloads._block(pos), fa, fb)], [gate.coarsen(workloads._block(mom), fa, fb)], direction
        )
        assert gate.compare("margin", want, got) == []


def test_map_steps_assemble_the_one_call_map():
    from eprsteering import coarse

    wl = workloads.Map1D(n_windows=8, resolutions=(2, 4, 8))
    pos, mom = inputs = wl.setup(seed=5, workdir=None)
    whole = coarse.asymmetry_map(
        pos, mom, wl.resolutions, wl.resolutions, direction=wl.direction, n_boot=wl.n_boot, seed=wl.map_seed
    )
    assert wl.digests(wl.op(inputs)) == wl.digests(whole)
