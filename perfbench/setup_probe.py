"""Time one program set-up in a fresh process and print it in seconds,
followed by the median of three calibration_s() samples taken after it.

    python3 perfbench/setup_probe.py <workload> <workdir>

Set-up is importing trihalo (numpy and scipy included) plus the workload's
setup(), which builds its grids and configs through public calls.  run.py
starts this several times with src/ on PYTHONPATH and takes the medians.
"""

import statistics
import sys
from time import perf_counter

t0 = perf_counter()
import trihalo  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(sys.argv[2])
setup_s = perf_counter() - t0
from run import calibration_s  # noqa: E402

print(setup_s, statistics.median(calibration_s() for _ in range(3)))
