"""One set-up sample: a fresh process imports rankfair and runs one warm-up
request of each shape in the plan, then prints the seconds that took and
the calibration loop's time (see run.py).

    PYTHONPATH=src python3 bench/probe.py WORKDIR/plan.json
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import rankfair  # noqa: E402,F401
from workload import Caller, calibration_loop_s  # noqa: E402

with open(sys.argv[1]) as fh:
    warmups = json.load(fh)["warmups"]
caller = Caller()
for req in warmups:
    caller.prepare(req)()
setup_s = time.perf_counter() - t0
print(setup_s, sorted(calibration_loop_s() for _ in range(3))[1])
