"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_once.py WORKLOAD SEED

Prints the seconds from before `import nwgame` (and every module it pulls
in) until the workload's inputs are built from the seed.  `run.py` starts
this several times per run and reports the median as `setup_s`.
"""

import time

start = time.perf_counter()

import os  # noqa: E402  (loaded by the interpreter at start-up anyway)
import sys  # noqa: E402

here = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]

import nwgame  # noqa: E402
import nwgame.cli  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(nwgame, int(sys.argv[2]))
print(time.perf_counter() - start)
