"""Set-up probe: a fresh interpreter imports the program, checks one
untimed warm-up point of a sweep workload and prints ``ready``.

``run.py`` times launch-to-``ready`` several times and reports the
median as ``setup_s``::

    python3 perfbench/probe.py sweep-small 1 .perfbench-work/probe.sqlite
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, store = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    first = workloads.JOBS[name](seed)[0]
    first.points = first.points[:1]
    workloads.warm_up([first], store)
    print("ready", flush=True)
