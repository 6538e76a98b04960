"""Time one cold set-up of a workload in this fresh interpreter: import
isqp, build the corpus registry and generate the workload's instances.
Prints the seconds taken.  Started by run.py, which pins the BLAS threads
in the environment it passes down.

    python3 perfbench/setup_probe.py hs-corpus
"""

import os
import sys
from time import perf_counter

if __name__ == "__main__":
    started = perf_counter()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    workloads.build(sys.argv[1])
    print(perf_counter() - started)
