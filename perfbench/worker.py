"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

``run.py`` starts one worker per pass, so the ``lru_cache``s of
``spherestab`` and its grid cache start cold, as on each CLI call.  The
worker imports ``spherestab`` from the ``src`` directory of the checkout it
lives in, sets up the workload, runs its items and prints one JSON record
as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def blas_info(np) -> dict:
    """Name and thread count of the OpenBLAS that NumPy loaded, if any."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return {"library": os.path.basename(path), "threads": int(fn())}
    return {"library": "unknown", "threads": None}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import numpy as np
    import scipy
    import spherestab

    if os.path.dirname(os.path.dirname(os.path.abspath(spherestab.__file__))) != SRC:
        print(f"spherestab was imported from {spherestab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracing import Tracer, busy_and_calls, self_times
    from workloads import WORKLOADS, Pass

    p = Pass(Tracer(bool(args.trace)))
    wl = WORKLOADS[args.workload](args.seed, p)
    for item_id, fn in wl.items():
        p.run_item(item_id, fn)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    busy, calls = busy_and_calls(p.tracer.spans)
    record = {
        "first_call": p.first_call,
        "run_s": p.run_s,
        "cpu_s": p.cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "items": p.items,
        "counts": dict(p.counts),
        "inputs_sha256": wl.digest(),
        "busy": busy,
        "calls": calls,
        "self": self_times(p.tracer.spans),
        "spans": p.tracer.spans,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(np),
        },
    }
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
