"""Set-up probe: in a fresh process, time ``import wogd`` plus loading and
validating one workload's config, and print the seconds taken.

Started by run.py with ``src`` on PYTHONPATH.
"""

import sys
import time

import workloads

if __name__ == "__main__":
    workload = workloads.WORKLOADS[sys.argv[1]]
    start = time.perf_counter()
    import wogd  # noqa: F401

    workloads.load_config(workload)
    print(repr(time.perf_counter() - start))
