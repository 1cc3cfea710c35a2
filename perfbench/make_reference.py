"""Write reference_values.json: the stored values the benchmark checks against.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are the reference (the seed of the
benchmark).  It stores

* ``spectrum``: per (n, k) block of the spectrum-cold workload, the
  eigenspace dimensions and the exact (sigma, c, alpha, C, C', C~) rows.
  Where ``eigenspaces`` raises at the degree ceiling, the dimensions are
  counted from the eigenvalues of the symmetrized matrix of A instead
  (within 1e-6 of -k, 1 and k+n-2); on every block where both work, the
  two counts are checked to agree.
* ``ellipsoid_fit_values``: the nearest-Moebius value of the ellipsoid
  family at each sweep point of the moebius-fit workload.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from spherestab.config import Config  # noqa: E402
from spherestab.constants import constants, sigma_value  # noqa: E402
from spherestab.errors import IntegrityError  # noqa: E402
from spherestab.families import stability_sweep  # noqa: E402
from spherestab.operator import a_matrix, eigenspaces  # noqa: E402

from workloads import SPECTRUM_BLOCKS, SWEEP_SIGMAS, _frac  # noqa: E402


def counted_dims(n: int, k: int) -> list[int]:
    M = a_matrix(n, k)
    evals = np.linalg.eigvalsh(0.5 * (M + M.T))
    centers = [-k, 1, k + n - 2]
    dims = [int(np.sum(np.abs(evals - c) < 1e-6)) for c in centers]
    if k == 1:  # H_{n,1,3} is trivial, as in eigenspaces
        dims = [dims[0], dims[1] + dims[2], 0]
    if sum(dims) != M.shape[0]:
        raise SystemExit(f"eigenvalues of A on H_({n},{k}) do not cluster at {centers}")
    return dims


def main() -> None:
    spectrum = {}
    for n, k in SPECTRUM_BLOCKS:
        dims = counted_dims(n, k)
        try:
            seen = [S.dim for S in eigenspaces(n, k)]
        except IntegrityError:
            seen = None
        if seen is not None and seen != dims:
            raise SystemExit(f"({n},{k}): eigenspace dims {seen} != counted {dims}")
        rows = {str(i): [str(sigma_value(n, k, i))] + [_frac(x) for x in constants(n, k, i)]
                for i in (1, 2, 3) if dims[i - 1]}
        spectrum[f"{n},{k}"] = {"dims": dims, "rows": rows}
    fits = {}
    for s in SWEEP_SIGMAS:
        sw = stability_sweep("ellipsoid", [s], theorem="conformal", grid=Config().grid(3))
        fits[repr(s)] = sw.lhs[0]
    # one block per line keeps the file reviewable
    blocks = ",\n".join(f"  {json.dumps(key)}: {json.dumps(v)}" for key, v in spectrum.items())
    with open(os.path.join(HERE, "reference_values.json"), "w") as fh:
        fh.write('{\n "spectrum": {\n' + blocks + '\n },\n')
        fh.write(f' "ellipsoid_fit_values": {json.dumps(fits)}\n}}\n')


if __name__ == "__main__":
    main()
