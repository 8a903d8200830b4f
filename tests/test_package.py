"""The package's public surface and its import cost."""

import os
import subprocess
import sys
from pathlib import Path

import eprsteering

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = {
    "AxisGrid",
    "BootstrapReport",
    "CountTensor",
    "CurvePoint",
    "DataError",
    "DegenerateBootstrapError",
    "DimensionMismatchError",
    "Direction",
    "DoubleGaussianParams",
    "EntropyValue",
    "GridSpec",
    "Histogram",
    "JointDistribution",
    "MapCell",
    "NegativeCountError",
    "NegativeProbabilityError",
    "NonDivisibleFactorError",
    "NonpositiveExtentError",
    "NonpositiveWindowError",
    "NotNormalizedError",
    "NumericalError",
    "Observable",
    "PI_E",
    "ParseError",
    "ResolutionSweep",
    "RunConfig",
    "ShapeMismatchError",
    "SteeringError",
    "SyntheticConfig",
    "SyntheticState",
    "TruncationError",
    "UsageError",
    "WitnessResult",
    "ZeroTotalError",
    "__version__",
    "asymmetry_map",
    "block_sum",
    "conditional_entropy",
    "conditional_variance",
    "conditional_witness",
    "config_hash",
    "connection_check",
    "continuous_conditional_entropy",
    "continuous_margin",
    "default_params",
    "discretize",
    "discretize_state",
    "downsample",
    "dump_json",
    "entropy",
    "evaluate",
    "expected_counts",
    "load_histogram",
    "make_synthetic_state",
    "marginal",
    "min_resolution",
    "momentum_covariance",
    "momentum_density",
    "mutual_information",
    "normalize_counts",
    "per_dim_bound",
    "poisson_resample",
    "position_covariance",
    "position_density",
    "read_counts_csv",
    "read_grid_json",
    "replicate_rng",
    "resolution_curve",
    "sample_counts",
    "sample_histograms",
    "save_histogram",
    "sidecar_path",
    "symmetric_witness",
    "units_name",
    "validate_distribution",
    "viewing_grid",
    "windowed_conditional_rhs",
    "witness_report",
    "witness_significance",
    "write_counts_csv",
    "write_curve_csv",
    "write_grid_json",
    "write_map_csv",
}


def test_public_names_are_pinned():
    assert set(eprsteering.__all__) == PUBLIC_NAMES
    assert len(eprsteering.__all__) == len(PUBLIC_NAMES)
    for name in eprsteering.__all__:
        assert hasattr(eprsteering, name), name


def test_cli_import_leaves_scipy_unloaded():
    # only the model state and the continuum oracle in spdc need scipy, and
    # each imports it where it is called
    code = "import sys, eprsteering.cli; print(any(m.startswith('scipy') for m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
