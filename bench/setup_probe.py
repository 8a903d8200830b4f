"""One set-up of a workload in a fresh interpreter; prints its duration in seconds.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

The time covers importing eprsteering and building the workload's inputs
from SEED (for cli-witness, writing the counts and grid files to WORKDIR).
"""

import sys
import time
from pathlib import Path


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import eprsteering.cli  # noqa: F401  (the import is part of what is timed)
    import workloads

    workloads.WORKLOADS[name].setup(seed, workdir)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
