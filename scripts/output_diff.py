#!/usr/bin/env python3
"""Compare the CLI outputs of two trees, column by column and line by line.

    python3 scripts/output_diff.py                   # HEAD against the staged tree
    python3 scripts/output_diff.py --parent HEAD~1 --change HEAD --seed 7

Both trees are extracted with the extraction step of ``bench_pairs.py``.
Three near-identity poly maps (two at n = 3, one at n = 4) are drawn from
the seed, and after them the orthogonal Q of a fourth map, the n = 4 linear
map Q diag(1.3, 0.7, 0.7, 0.7) Q^t.  Its tangent stretches repeat exactly
at every node, the hard case of the closed-form stretch solve at n = 4.
A fifth file is the sampled copy of the first map, its values and
Jacobians on the default n = 3 grid, so the reader and the deficits of a
sampled map are compared too.  The parent's code writes the five files
once, so both sides read the same files.  Each side then runs

    spectrum --n 3 --kmax 8      spectrum --n 4 --kmax 8      verify
                                 (all three with --seed of the maps)
    deficits --map M             (every map, the sampled copy too)
    fit-moebius --map M          (the n = 3 maps, the sampled copy too)
    rates --family F --sigmas S  (the four sweeps of optimality_rates.py)
    stability --family ellipsoid

and every output is compared with the parent's: per CSV column, per JSON
field and per ``verify`` detail line, the numbers in it are paired in
order, and the largest absolute and relative move is printed.  Text that is
not a number must match exactly; the ``seconds`` timings of ``verify`` are
skipped.  The exit status is 0 when nothing moved and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, extract_pair, resolve  # noqa: E402
from optimality_rates import SWEEPS  # noqa: E402

# a number inside a CSV cell, a JSON string or a verify detail line
NUMBER = re.compile(r"[-+]?(?:nan|inf|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
SKIPPED_KEYS = {"seconds"}    # wall times, different on every run

# (name, n, kmax, t): identity + t w, w a random field of H_n of degree <= kmax
MAPS = (("map_n3_a", 3, 3, 0.2), ("map_n3_b", 3, 4, 0.4), ("map_n4", 4, 3, 0.2))
REPEATED = "map_n4_repeated"    # the linear map with a stretch repeated at every node
SAMPLED = "map_n3_a_sampled"    # the first map sampled on the default n = 3 grid
MAKE_MAPS = """
import json, sys
import numpy as np
from spherestab.forms import tangential_energy
from spherestab.io import map_to_dict, save_json
from spherestab.operator import random_h_field
from spherestab.quadrature import default_sphere_grid
from spherestab.spheremap import identity_map, linear_map, sampled_map
out, seed, specs, repeated, sampled = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3]), sys.argv[4], sys.argv[5]
rng = np.random.default_rng(seed)
for j, (name, n, kmax, t) in enumerate(specs):
    w = random_h_field(n, kmax, rng)
    u = identity_map(n) + w.scale(t / np.sqrt(tangential_energy(w)))
    save_json(map_to_dict(u), f"{out}/{name}.json")
    if j == 0:
        g = default_sphere_grid(n)
        _, U, J = u.sample(g)
        save_json(map_to_dict(sampled_map(g, U, J)), f"{out}/{sampled}.json")
Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
save_json(map_to_dict(linear_map(Q @ np.diag([1.3, 0.7, 0.7, 0.7]) @ Q.T)), f"{out}/{repeated}.json")
"""


@dataclass
class Move:
    """How far the numbers of one column, field or detail line moved."""

    count: int = 0
    moved: int = 0
    max_abs: float = 0.0
    max_rel: float = 0.0
    mismatch: str | None = None    # a difference that is not a move of a number

    def add(self, a: float, b: float) -> None:
        self.count += 1
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        self.moved += 1
        d = abs(a - b)
        if math.isnan(d):
            self.max_abs = self.max_rel = math.inf
            return
        self.max_abs = max(self.max_abs, d)
        self.max_rel = max(self.max_rel, d / max(abs(a), abs(b)))

    def add_text(self, a: str, b: str) -> None:
        """Pair the numbers of two strings; the text around them must agree."""
        if NUMBER.sub("#", a) != NUMBER.sub("#", b):
            self.mismatch = f"{a!r} -> {b!r}"
            return
        for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
            self.add(float(x), float(y))

    @property
    def identical(self) -> bool:
        return self.mismatch is None and self.moved == 0

    def __str__(self) -> str:
        if self.mismatch is not None:
            return f"DIFFERS {self.mismatch}"
        if not self.moved:
            return f"identical ({self.count} numbers)"
        return f"{self.moved}/{self.count} moved, max |d| {self.max_abs:.3e}, max rel {self.max_rel:.3e}"


def compare_csv(a: str, b: str) -> dict[str, Move]:
    """Per column of two CSV texts with a header row: the moves of its cells, row by row."""
    ra, rb = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if not ra or not rb or ra[0] != rb[0]:
        return {"header": Move(mismatch=f"{ra[:1]} -> {rb[:1]}")}
    out = {col: Move() for col in ra[0]}
    if len(ra) != len(rb):
        out["rows"] = Move(mismatch=f"{len(ra) - 1} rows -> {len(rb) - 1} rows")
    for row_a, row_b in zip(ra[1:], rb[1:]):
        for col, x, y in zip(ra[0], row_a, row_b):
            out[col].add_text(x, y)
    return out


def _leaves(obj, path: str = "") -> dict[str, object]:
    """Flatten JSON into {path: leaf}; a list of objects with names is keyed by name."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if k not in SKIPPED_KEYS:
                out.update(_leaves(v, f"{path}.{k}" if path else str(k)))
        return out
    if isinstance(obj, list):
        named = all(isinstance(v, dict) and "name" in v for v in obj) and obj
        keys = [f"[{v['name']}]" if named else f"[{j}]" for j, v in enumerate(obj)]
        out = {}
        for key, v in zip(keys, obj):
            out.update(_leaves({k: x for k, x in v.items() if k != "name"} if named else v, path + key))
        return out
    return {path: obj}


def compare_json(a, b) -> dict[str, Move]:
    """Per leaf of two parsed JSON documents: numbers pair directly, strings by their numbers."""
    la, lb = _leaves(a), _leaves(b)
    out = {}
    for key in dict.fromkeys([*la, *lb]):
        m = out[key] = Move()
        if key not in la or key not in lb:
            m.mismatch = "only in the parent" if key in la else "only in the change"
            continue
        x, y = la[key], lb[key]
        numeric = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)]
        if all(numeric):
            m.add(float(x), float(y))
        elif isinstance(x, str) and isinstance(y, str):
            m.add_text(x, y)
        elif x != y:
            m.mismatch = f"{x!r} -> {y!r}"
    return out


def compare_file(a_path: str, b_path: str) -> dict[str, Move]:
    with open(a_path) as fa, open(b_path) as fb:
        a, b = fa.read(), fb.read()
    if a_path.endswith(".csv"):
        return compare_csv(a, b)
    return compare_json(json.loads(a), json.loads(b))


def _run(checkout: str, args: list[str]) -> int:
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    proc = subprocess.run([sys.executable, "-m", "spherestab.cli", *args], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"spherestab {' '.join(args)} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return proc.returncode


def run_outputs(checkout: str, out: str, maps: str, seed: int) -> dict[str, int]:
    """Write every compared output of one tree into ``out``; returns the exit code per output."""
    os.makedirs(out, exist_ok=True)
    seeded = ["--seed", str(seed)]
    jobs = {f"spectrum_n{n}.csv": ["spectrum", "--n", str(n), "--kmax", "8", *seeded] for n in (3, 4)}
    jobs["verify.json"] = ["verify", *seeded]
    for name, n in [(name, n) for name, n, _, _ in MAPS] + [(REPEATED, 4), (SAMPLED, 3)]:
        path = os.path.join(maps, f"{name}.json")
        jobs[f"deficits_{name}.json"] = ["deficits", "--map", path]
        if n == 3:
            jobs[f"fit_{name}.json"] = ["fit-moebius", "--map", path]
    for family, sigmas in SWEEPS:
        jobs[f"rates_{family}.csv"] = ["rates", "--family", family, "--sigmas", sigmas]
    jobs["stability_ellipsoid.csv"] = ["stability", "--family", "ellipsoid"]
    return {f: _run(checkout, [*cmd, "--out", os.path.join(out, f)])
            for f, cmd in jobs.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="parent tree-ish (default HEAD)")
    ap.add_argument("--change", default="INDEX", help="change tree-ish; INDEX = the staged tree (default)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the maps and of every command (default 1)")
    ap.add_argument("--workdir", default=os.path.join(ROOT, "build", "output-diff"),
                    help="where the checkouts and outputs go (default build/output-diff)")
    args = ap.parse_args(argv)
    dirs = extract_pair(resolve(args.parent), resolve(args.change), os.path.join(args.workdir, "trees"))
    maps = os.path.join(args.workdir, "maps")
    os.makedirs(maps, exist_ok=True)
    subprocess.run([sys.executable, "-c", MAKE_MAPS, maps, str(args.seed), json.dumps(MAPS), REPEATED, SAMPLED],
                   check=True,
                   env={**os.environ, "PYTHONPATH": os.path.join(dirs["parent"], "src")})
    outs = {side: os.path.join(args.workdir, "out", side) for side in dirs}
    codes = {side: run_outputs(dirs[side], outs[side], maps, args.seed) for side in dirs}
    same = True
    for f in codes["parent"]:
        if codes["parent"][f] != codes["change"][f]:
            print(f"{f}: exit status {codes['parent'][f]} -> {codes['change'][f]}")
            same = False
        for key, move in compare_file(os.path.join(outs["parent"], f), os.path.join(outs["change"], f)).items():
            print(f"{f} {key}: {move}")
            same = same and move.identical
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
