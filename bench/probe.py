"""Set-up probe, run as a fresh interpreter by run.py.

Imports the package, builds the workload's first input and makes one
warm-up call, then prints one JSON line and exits.  The parent times
the interval from spawning this process to reading that line.

    python3 bench/probe.py <workload> <seed>
"""

import json
import sys
import time
from pathlib import Path


def main(workload, seed):
    start = time.perf_counter()
    import seqsteer  # noqa: F401  (the import is what is being timed)

    import_ms = (time.perf_counter() - start) * 1e3
    import workloads

    w = workloads.make(workload, Path(__file__).resolve().parent.parent)
    w.warmup(w.pool(seed)[0])
    print(json.dumps({"import_ms": import_ms}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
