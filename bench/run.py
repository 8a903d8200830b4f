"""Benchmark of eprsteering: end-to-end metrics, or per-layer metrics from a traced run.

Usage (from the root of a checkout):

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (see BENCHMARK.json for why each is there):

* ``cli-witness``: one op is ten ``eprsteer witness --boot 100 --seed k``
  runs (k = 0..9) on 24x24 counts and grid files written during set-up,
  through ``cli.main`` in this process.  A fresh process per run would spend
  most of its time importing, which ``setup_s`` measures instead.
* ``map-1d``: one op is the symmetric witness's map over the default
  resolutions (2..24 windows on both parties), 100 replicates per cell,
  computed as one in-process ``asymmetry_map`` call per cell.

The seed only makes the inputs (synthetic counts sampled from the package's
model); the program under test gets the inputs and its own default seeds.
Ops run one at a time in a closed loop with one client.  The first op's
output is checked in full against the plain-numpy reference in ``gate.py``;
every later op must reproduce its output digests byte for byte.

An op is a fixed list of steps (one ``cli.main`` call per witness run; one
``asymmetry_map`` call per map cell), each timed on its own.  ``op_min_s`` is the op's time with
every step at the fastest it ran in the run: on a shared host the machine's
speed shifts by 20-40% for seconds to tens of seconds at a time, and this
estimate varies least from run to run.  The median op time and every op
time are in the result file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half of
``--seconds`` on untraced ops and half on traced ops, and prints the
per-layer metrics from the spans plus the tracing overhead.  Everything else
(every op time, output sha256 digests, environment, size of ``src/``, gate
findings) goes to ``bench/out/result-<workload>-s<seed>-t<trace>.json``, and
the spans of a traced run's set-up and first traced op to
``bench/out/spans-<workload>-s<seed>.tsv``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "eprsteering" / "__init__.py").is_file():
    sys.exit(f"bench: no package source at {SRC / 'eprsteering'}; run from the root of a full checkout")

# Import the package first, into an interpreter holding only the modules
# above, so that the traced run's import span matches a fresh process.
sys.path.insert(0, str(SRC))
_modules_before = len(sys.modules)
_import_start = time.perf_counter()
import eprsteering.cli  # noqa: E402,F401

_import_end = time.perf_counter()
_import_modules = len(sys.modules) - _modules_before

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

BENCH = ROOT / "bench"
OUT = BENCH / "out"

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5

#: A hung set-up probe must not outlive the benchmark's own time limit.
PROBE_TIMEOUT_S = 60

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def code_size() -> dict:
    """Line count of each module under ``src/`` and a digest of them all."""
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = {}
    for path in files:
        data = path.read_bytes()
        rel = str(path.relative_to(SRC))
        digest.update(rel.encode() + b"\0" + data + b"\0")
        lines[rel] = data.count(b"\n")
    return {"src_lines": lines, "src_lines_total": sum(lines.values()), "src_sha256": digest.hexdigest()}


def fastest_op(times: list[list[float]]) -> float:
    """An op's wall time with each of its steps at the fastest it ran in the run (0 if none ran)."""
    return sum(min(step) for step in zip(*times))


class Run:
    """One benchmark run of one workload: ops, gate, and tallies."""

    def __init__(self, wl, inputs) -> None:
        self.wl = wl
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.findings: list[str] = []
        self.expected: dict[str, str] | None = None
        self.reference = None

    def attempt(self):
        """Run one op and gate it; returns the wall seconds of each step, or None if it raised."""
        self.attempted += 1
        outs, times = [], []
        try:
            for step in self.wl.steps(self.inputs):
                start = time.perf_counter()
                outs.append(step())
                times.append(time.perf_counter() - start)
            out = self.wl.assemble(outs)
        except Exception:  # a failed op is counted and reported, and the run goes on
            self._fail([f"op {self.attempted}: {traceback.format_exc(limit=2).strip()}"])
            return None
        digests = self.wl.digests(out)
        if self.expected is None:
            self.expected, self.reference = digests, out
        else:
            self._fail([f"op {self.attempted}: {f}" for f in gate.compare_digests(self.expected, digests)])
        return times

    def _fail(self, found: list[str]) -> None:
        if found:
            self.failed += 1
            self.findings += found

    def loop(self, seconds: float, tracer: Tracer | None = None) -> list[list[float]]:
        """Closed loop of ops for ``seconds``; returns the step times of each op that succeeded."""
        times: list[list[float]] = []
        start = time.perf_counter()
        n = 0
        while n == 0 or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.op = n
            steps = self.attempt()
            n += 1
            if steps is not None:
                times.append(steps)
            if tracer is not None:
                tracer.fold(keep=n == 1)
        return times

    def check(self, out) -> None:
        """Full gate on the first op's output: the reference recomputation in gate.py."""
        try:
            found = self.wl.check(self.inputs, out)
        except Exception:  # a malformed output is a failed op, not a crashed benchmark
            found = [f"gate: {traceback.format_exc(limit=2).strip()}"]
        self._fail([f"reference op: {f}" for f in found])


def setup_probes(name: str, seed: int) -> list[float]:
    times = []
    for i in range(SETUP_PROBES):
        workdir = OUT / f"probe-{name}-s{seed}-{i}"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(workdir)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    OUT.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.record("import", _import_start, _import_end, _import_modules)
        tracer.install()
    # A fixed directory: the CLI report names its input files.
    inputs = wl.setup(seed, OUT / f"inputs-{name}-s{seed}")
    if tracer is not None:
        tracer.uninstall()
        tracer.fold(keep=True)

    run = Run(wl, inputs)
    untraced = run.loop(seconds / 2 if trace else seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced: list[list[float]] = []
    if tracer is not None:
        tracer.install()
        try:
            traced = run.loop(seconds / 2, tracer)
        finally:
            tracer.uninstall()
    if run.reference is not None:
        run.check(run.reference)

    doc = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "op_times_s": [sum(op) for op in untraced],
        "op_p50_s": statistics.median(sum(op) for op in untraced) if untraced else None,
        "traced_op_times_s": [sum(op) for op in traced],
        "replicates_per_op": wl.replicates,
        "digests": run.expected,
        "environment": environment(),
        **code_size(),
    }
    op_s = fastest_op(untraced)
    if tracer is None:
        probes = setup_probes(name, seed)
        doc["setup_probe_s"] = probes
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "op_min_s": {"value": op_s, "unit": "s"},
            "replicates_per_s": {"value": wl.replicates / op_s if op_s else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "success_rate": {"value": (run.attempted - run.failed) / run.attempted, "unit": "ratio"},
        }
    else:
        metrics = layer_metrics(tracer, len(traced), fastest_op(traced) / op_s - 1.0 if op_s else 0.0)
        tracer.write(OUT / f"spans-{name}-s{seed}.tsv")
    doc.update(
        correct=run.failed == 0,
        attempted=run.attempted,
        failed=run.failed,
        findings=run.findings[:50],
        metrics=metrics,
    )
    result_path = OUT / f"result-{name}-s{seed}-t{int(trace)}.json"
    result_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"{name}: seed {seed}, {len(untraced)} timed ops, {len(traced)} traced ops")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    for finding in run.findings[:10]:
        print(f"  FAILED {finding}")
    print(f"  result file: {result_path.relative_to(ROOT)}")
    return {k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}


def run_all(args) -> dict:
    """Each workload in its own process, one after another; metrics are keyed ``workload.metric``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=45.0, help="timed seconds per run (default 45)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    os.chdir(ROOT)  # the CLI reads its input files by paths relative to the checkout
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
