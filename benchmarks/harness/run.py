"""The benchmark driver's entry: one workload, one JSON line.

``python3 benchmarks/harness/run.py --workload NAME --seed N --seconds S
--trace 0|1`` — see BENCHMARK.json.  People use ``python benchmarks/harness
run``, which runs the whole matrix.
"""

import sys

from spine.cli import bench_main

if __name__ == "__main__":
    sys.exit(bench_main(sys.argv[1:]))
