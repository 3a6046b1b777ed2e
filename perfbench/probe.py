"""Print the seconds a fresh interpreter takes to import ybtrace and set up.

Usage: python3 perfbench/probe.py WORKLOAD.  Prints those seconds, then the
fastest of a few timings of speed.py's reference work made afterwards in
the same process, so that run.py can rescale this probe by the speed of the
CPU it ran on.  run.py starts this several times per run and reports the
median as ``setup_s``.
"""

import sys
import time

start = time.perf_counter()
import os  # noqa: E402

here = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
import workloads  # noqa: E402  (imports ybtrace)

workloads.WORKLOADS[sys.argv[1]]["setup"]()
seconds = time.perf_counter() - start

import speed  # noqa: E402

print(seconds, min(speed.reference_seconds() for _ in range(5)))
