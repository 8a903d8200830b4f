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
    "conditional_entropy",
    "conditional_variance",
    "config_hash",
    "connection_check",
    "continuous_conditional_entropy",
    "continuous_margin",
    "default_params",
    "discretize_state",
    "downsample",
    "dump_json",
    "entropy",
    "evaluate",
    "load_histogram",
    "make_synthetic_state",
    "min_resolution",
    "momentum_covariance",
    "mutual_information",
    "per_dim_bound",
    "poisson_resample",
    "position_covariance",
    "read_counts_csv",
    "read_grid_json",
    "replicate_rng",
    "resolution_curve",
    "sample_histograms",
    "save_histogram",
    "sidecar_path",
    "units_name",
    "viewing_grid",
    "witness_report",
    "witness_significance",
    "write_counts_csv",
    "write_curve_csv",
    "write_grid_json",
    "write_map_csv",
}


def test_public_names_are_pinned():
    assert set(eprsteering.__all__) == PUBLIC_NAMES
    assert len(eprsteering.__all__) == len(PUBLIC_NAMES) == 70
    for name in eprsteering.__all__:
        assert hasattr(eprsteering, name), name


def _run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )


# the package needs numpy alone at run time, and scipy is a test oracle; the
# quadrature rule is stored, so numpy.polynomial stays unloaded too unless
# numpy itself imports it (NumPy 1.x does); importing the CLI also loads no
# random-number, thread or process machinery, which only a run needs
_UNUSED_MODULES = (
    "import sys, numpy\n"
    "before = set(sys.modules)\n"
    "def unused(*more):\n"
    "    names = ('scipy', 'numpy.polynomial', *more)\n"
    "    return sorted(m for m in set(sys.modules) - before if m.startswith(names))\n"
)


def test_cli_import_leaves_scipy_unloaded():
    code = _UNUSED_MODULES + (
        "import eprsteering.cli, eprsteering.selftest\n"
        "print(unused('numpy.random', 'concurrent', 'multiprocessing', 'queue'))"
    )
    assert _run_python(code).stdout.strip() == "[]"


def test_synthetic_state_leaves_scipy_unloaded():
    code = _UNUSED_MODULES + (
        "import eprsteering as ep\n"
        "ep.sample_histograms(ep.make_synthetic_state(), seed=0)\n"
        "print(unused())"
    )
    assert _run_python(code).stdout.strip() == "[]"


def test_synthetic_runs_need_no_scipy(tmp_path):
    # a None entry makes every `import scipy...` raise ImportError
    runs = [
        ["witness", "--synthetic", "--boot", "100", "--output", os.devnull],
        ["synth", "--out-dir", str(tmp_path)],
        ["curve", "--synthetic", "--total", "100000", "--output", os.devnull],
        ["map", "--synthetic", "--n-windows", "6", "--total", "100000", "--boot", "100", "--output", os.devnull],
        ["selftest"],
    ]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from eprsteering import cli\n"
        f"print([cli.main(argv) for argv in {runs!r}])"
    )
    assert _run_python(code).stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0]"
