"""Benchmark entry point; run from the repository root:

    python3 benchmark/run.py --workload eval_10k --seed 1 --seconds 20 --trace 0

See benchmark/README.md for the workloads, metrics and checks.
"""

import sys

from lpbench.main import main

if __name__ == "__main__":
    sys.exit(main())
