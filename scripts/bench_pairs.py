#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written to BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --pr 11 --pairs spectrum-cold:1:10 deficit-batch:1:5
    python3 scripts/bench_pairs.py --pr 11 --commands 'spectrum --n 4 --kmax 12 --out /dev/null'
    python3 scripts/bench_pairs.py --pr 11 --pytest
    python3 scripts/bench_pairs.py --pr 11 --commands 'deficits --map {maps}/map_n4.json'

Both sides are extracted with ``git archive`` into ``<workdir>/parent`` and
``<workdir>/change``: the two paths have equal length, since the peak RSS
of a run depends on it.  The change defaults to the staged tree (``INDEX``,
i.e. ``git write-tree``), the parent to ``HEAD``; any tree-ish works for
either.  Each ``WORKLOAD:SEED:PAIRS`` spec runs ``perfbench/run.py`` once
per side and pair, the side that runs first alternating from pair to pair.
``--traced`` specs run the same way with ``--trace 1``, for the per-layer
metrics.  The file keeps the last line each run printed, unedited, with
the side that ran first in its pair and the run's minor page faults per
item attempted: the ``getrusage(RUSAGE_CHILDREN).ru_minflt`` delta around
``run.py``, which covers every worker it waited for, set-up included.  It
adds medians, the parent's interquartile range and the number of pairs the
change won, per workload, seed and end-to-end metric of the untraced runs,
and for the faults per item.

``--commands`` adds whole-command pairs: each command line is one run of
the ``spherestab`` CLI, ``python -c 'from spherestab.cli import main ...'``
with ``PYTHONPATH=<side>/src``, started fresh from each side's directory,
in ``COMMAND_PAIRS`` pairs with the same alternation.  Each run
records its wall time (start to exit), the peak RSS and the minor page
faults of that child alone (the rusage ``os.wait4`` returns for it, taken
by a bare interpreter that spawns the command), and its exit code; the
summary gives the same medians, parent IQR and pairs won per command, and
the exit codes seen on each side.  ``--pytest`` adds one more such pair,
the tier-1 suite (``python -m pytest`` in each side's directory), under the
command name ``pytest (tier-1)``.

``{maps}`` in a command line stands for ``<workdir>/maps``: when a
command names it, the seeded map files that ``output_diff.py`` compares on
are first drawn there at its default seed 1, with the parent's code, so
``deficits --map {maps}/map_n4.json`` and ``fit-moebius`` commands can be
paired.  The report keeps each command line as given.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")   # equal-length directory names
METRICS = ("run_s", "setup_s", "peak_rss_mb")
FAULTS = "minflt_per_item"     # minor page faults of a run per item attempted
COMMAND_METRICS = ("wall_s", "peak_rss_mb", "minflt")
COMMAND_PAIRS = 10             # the fewest pairs that can back a claim
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
# a whole command as its own process: the CLI's entry point on the given arguments
CLI = "import sys; from spherestab.cli import main; sys.exit(main(sys.argv[1:]))"
# the tier-1 suite as one whole command, by the name it has in the report
PYTEST = "pytest (tier-1)"
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
# Runs argv[1:] and prints its wall time and the rusage os.wait4 returns for it.
# A bare interpreter spawns the command, not this process: Linux carries the
# high-water RSS of the address space a child execs from into its ru_maxrss,
# so a child of this process (NumPy loaded) would read at least this
# process's own peak.
SPAWN = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - start
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "minflt": usage.ru_minflt,
                  "exit_code": proc.returncode}))
"""


# The seeded map files that ``{maps}`` in a command line and ``output_diff.py`` read.
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
MAPS_FIELD = "{maps}"          # stands for the directory of the drawn maps in a --commands line
MAPS_SEED = 1                  # the seed of the maps a command line names, output_diff.py's default


def draw_maps(checkout: str, dest: str, seed: int) -> str:
    """Write the seeded map files into ``dest`` with the code of ``checkout``; returns ``dest``.

    Three near-identity poly maps (two at n = 3, one at n = 4), then the n = 4
    linear map Q diag(1.3, 0.7, 0.7, 0.7) Q^t, whose tangent stretches repeat
    at every node, and the first map sampled on the default n = 3 grid.
    """
    os.makedirs(dest, exist_ok=True)
    subprocess.run([sys.executable, "-c", MAKE_MAPS, dest, str(seed), json.dumps(MAPS), REPEATED, SAMPLED],
                   check=True, env={**os.environ, "PYTHONPATH": os.path.join(checkout, "src")})
    return dest


def _git(*args: str, cwd: str = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def resolve(rev: str, repo: str = ROOT) -> str:
    """Object name of a tree-ish; ``INDEX`` names the staged tree."""
    return _git("write-tree", cwd=repo) if rev == "INDEX" else _git("rev-parse", rev, cwd=repo)


def extract(rev: str, dest: str, repo: str = ROOT) -> None:
    """Write the files of ``rev`` into the empty directory ``dest``."""
    blob = subprocess.run(["git", "archive", "--format=tar", rev], cwd=repo, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def extract_pair(parent: str, change: str, workdir: str, repo: str = ROOT) -> dict[str, str]:
    """Extract both sides into fresh ``workdir/parent`` and ``workdir/change``."""
    dirs = {side: os.path.join(os.path.abspath(workdir), side) for side in SIDES}
    if len({len(d) for d in dirs.values()}) != 1:
        raise RuntimeError(f"checkout paths differ in length: {dirs}")
    for side, rev in zip(SIDES, (parent, change)):
        shutil.rmtree(dirs[side], ignore_errors=True)
        os.makedirs(dirs[side])
        extract(rev, dirs[side], repo)
    return dirs


def run_once(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    """The last line ``perfbench/run.py`` printed, and its minor page faults per item attempted."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, faults / max(result["attempted"], 1)


def run_command(checkout: str, command: str) -> dict:
    """One fresh process of ``command`` from ``checkout``, a CLI command line or ``PYTEST``
    for the tier-1 suite: its wall time, and the peak RSS, minor page faults and exit
    code of that child alone."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    args = TIER1 if command == PYTEST else ("-c", CLI, *shlex.split(command))
    proc = subprocess.run([sys.executable, "-c", SPAWN, sys.executable, *args],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring {command!r} in {checkout} failed: {proc.stderr[-2000:]}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "stderr_tail": proc.stderr[-500:]}


def _compare(pairs: dict, metrics: tuple[str, ...]) -> dict:
    """Medians, parent IQR and pairs won by the change (lower is better) per metric,
    over the pairs {pair: {side: {metric: value}}} that have both sides."""
    both = [p for p in pairs.values() if len(p) == 2]
    out = {}
    for m in metrics:
        par = [p["parent"][m] for p in both]
        chg = [p["change"][m] for p in both]
        q = statistics.quantiles(par, n=4) if len(par) >= 2 else [par[0], par[0], par[0]]
        out[m] = {"parent_median": statistics.median(par), "change_median": statistics.median(chg),
                  "parent_iqr": q[2] - q[0], "change_won": sum(c < p for p, c in zip(par, chg)),
                  "pairs": len(both)}
    return out


def summarize(runs: list[dict]) -> dict:
    """Per workload, seed and metric (and the faults per item): medians, parent IQR and
    pairs won by the change (lower is better)."""
    groups: dict = {}
    for r in runs:
        values = {m: r["result"]["metrics"][m]["value"] for m in METRICS}
        groups.setdefault(f"{r['workload']}:{r['seed']}", {}).setdefault(r["pair"], {})[r["side"]] = \
            {**values, FAULTS: r[FAULTS]}
    return {key: _compare(pairs, (*METRICS, FAULTS)) for key, pairs in groups.items()}


def summarize_commands(runs: list[dict]) -> dict:
    """Per command, the same comparison of wall time, peak RSS and minor faults, and
    the exit codes each side returned."""
    groups: dict = {}
    for r in runs:
        groups.setdefault(r["command"], {}).setdefault(r["pair"], {})[r["side"]] = r
    return {cmd: {**_compare(pairs, COMMAND_METRICS),
                  "exit_codes": {side: sorted({p[side]["exit_code"] for p in pairs.values() if side in p})
                                 for side in SIDES}}
            for cmd, pairs in groups.items()}


def host() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version,
            "blas_threads": BLAS_THREADS}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="suffix of the output file BENCH_<pr>.json")
    ap.add_argument("--parent", default="HEAD", help="parent tree-ish (default HEAD)")
    ap.add_argument("--change", default="INDEX", help="change tree-ish; INDEX = the staged tree (default)")
    ap.add_argument("--pairs", nargs="+", default=[], metavar="WORKLOAD:SEED:PAIRS")
    ap.add_argument("--traced", nargs="*", default=[], metavar="WORKLOAD:SEED:PAIRS",
                    help="pairs run with --trace 1 after the others, for the per-layer metrics")
    ap.add_argument("--commands", nargs="+", default=[], metavar="COMMAND",
                    help=f"whole CLI commands, e.g. 'spectrum --n 4 --kmax 12', {COMMAND_PAIRS} pairs each, "
                         f"run after the others; {MAPS_FIELD} stands for the seeded map files of "
                         f"output_diff.py, drawn at seed {MAPS_SEED}")
    ap.add_argument("--pytest", action="store_true",
                    help=f"also time the tier-1 suite as one whole command, {COMMAND_PAIRS} pairs, run last")
    ap.add_argument("--seconds", type=int, default=40, help="--seconds of each run (default 40)")
    ap.add_argument("--workdir", default=os.path.join(ROOT, "build", "bench"),
                    help="where the two checkouts are extracted (default build/bench)")
    ap.add_argument("--out", help="output file (default BENCH_<pr>.json at the repository root)")
    args = ap.parse_args(argv)
    if not (args.pairs or args.traced or args.commands or args.pytest):
        ap.error("give --pairs, --traced, --commands or --pytest")
    specs = []
    for trace, group in ((0, args.pairs), (1, args.traced)):
        for spec in group:
            workload, seed, count = spec.split(":")
            specs.append((workload, int(seed), int(count), trace))
    revs = {"parent": resolve(args.parent), "change": resolve(args.change)}
    dirs = extract_pair(revs["parent"], revs["change"], args.workdir)
    maps = os.path.join(args.workdir, "maps")
    if any(MAPS_FIELD in c for c in args.commands):
        draw_maps(dirs["parent"], maps, MAPS_SEED)
    out_path = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    report = {
        "description": "Alternating parent/change pairs of perfbench/run.py and of whole CLI commands, "
                       "both sides extracted with "
                       "git archive into directories of equal path length. Each entry's 'result' is the "
                       "last line printed by the run, unedited; 'ran_first' names the side that ran first "
                       "in that pair; 'minflt_per_item' is the run's getrusage(RUSAGE_CHILDREN).ru_minflt "
                       "delta (every pass, set-up included) over its attempted items; 'traced_runs' ran "
                       "with --trace 1. 'summary' covers 'runs' and counts a pair as won when the change's "
                       "value is lower. Each 'command_runs' entry is one fresh CLI process with "
                       f"PYTHONPATH=<side>/src ('{PYTEST}' runs the tier-1 pytest suite): wall_s from start "
                       "to exit, and peak_rss_mb (ru_maxrss) and minflt from the rusage os.wait4 returned "
                       f"for that child; 'command_summary' compares them the same way. {MAPS_FIELD} in a "
                       "command stands for the seeded map files of scripts/output_diff.py, drawn at seed "
                       f"{MAPS_SEED} with the parent's code.",
        "command": f"python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {args.seconds} --trace T",
        "parent": revs["parent"], "change": revs["change"], "host": host(), "runs": [], "traced_runs": [],
        "command_runs": [],
    }
    for workload, seed, count, trace in specs:
        for pair in range(1, count + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                result, faults = run_once(dirs[side], workload, seed, args.seconds, trace)
                report["traced_runs" if trace else "runs"].append(
                    {"side": side, "workload": workload, "seed": seed, "pair": pair,
                     "ran_first": order[0], "trace": trace, FAULTS: faults, "result": result})
                print(f"{workload} seed {seed} pair {pair} {side} trace {trace}: "
                      f"{ {m: round(v['value'], 4) for m, v in result['metrics'].items() if m in METRICS} } "
                      f"{FAULTS} {faults:.0f}", flush=True)
            _write(report, out_path)
    for command in args.commands + [PYTEST] * args.pytest:
        for pair in range(1, COMMAND_PAIRS + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                run = run_command(dirs[side], command.replace(MAPS_FIELD, maps))
                report["command_runs"].append({"side": side, "command": command, "pair": pair,
                                               "ran_first": order[0], **run})
                print(f"{command!r} pair {pair} {side}: wall {run['wall_s']:.3f} s, "
                      f"peak {run['peak_rss_mb']:.1f} MB, minflt {run['minflt']}, exit {run['exit_code']}",
                      flush=True)
            _write(report, out_path)
    return 0


def _write(report: dict, path: str) -> None:
    """Summarize and write the report; rewritten after every pair, so a cut run keeps its data."""
    report["summary"] = summarize(report["runs"]) if report["runs"] else {}
    report["command_summary"] = summarize_commands(report["command_runs"])
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
