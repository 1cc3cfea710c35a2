#!/usr/bin/env python3
"""Reproduce the optimality-rate sweeps as CSV files: the flip and stretch
circle families, the short homothety and the conformal ellipsoid family.

    python3 scripts/optimality_rates.py out/
"""

import pathlib
import sys

SWEEPS = (
    ("flip", "0.05:1.0:geometric:8"),
    ("stretch", "0.004:0.04:geometric:8"),
    ("homothety", "0.1:0.5:geometric:6"),
    ("ellipsoid", "0.01:0.3:geometric:6"),
)

if __name__ == "__main__":
    from spherestab.cli import main

    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("out")
    out.mkdir(parents=True, exist_ok=True)
    for family, sigmas in SWEEPS:
        path = out / f"rates_{family}.csv"
        rc = main(["rates", "--family", family, "--sigmas", sigmas, "--out", str(path)])
        if rc != 0:
            raise SystemExit(rc)
        print(f"wrote {path}")
