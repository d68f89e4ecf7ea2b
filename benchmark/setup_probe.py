"""Time one set-up in this fresh interpreter: import tlmonoid, warm up.

    python3 benchmark/setup_probe.py <workload>

Prints the seconds from before the import to the end of the workload's
warm-up; interpreter start-up is not included.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
import workloads  # noqa: E402  (imports tlmonoid)

workloads.WORKLOADS[sys.argv[1]]().warm_up()
print(time.perf_counter() - t0)
