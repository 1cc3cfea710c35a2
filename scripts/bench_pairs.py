#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written to BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --pr 11 --pairs spectrum-cold:1:10 deficit-batch:1:5

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
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")   # equal-length directory names
METRICS = ("run_s", "setup_s", "peak_rss_mb")
FAULTS = "minflt_per_item"     # minor page faults of a run per item attempted


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


def summarize(runs: list[dict]) -> dict:
    """Per workload, seed and metric (and the faults per item): medians, parent IQR and
    pairs won by the change (lower is better)."""
    out: dict = {}
    for key in dict.fromkeys(f"{r['workload']}:{r['seed']}" for r in runs):
        pairs: dict = {}
        for r in runs:
            if f"{r['workload']}:{r['seed']}" == key:
                values = {m: r["result"]["metrics"][m]["value"] for m in METRICS}
                pairs.setdefault(r["pair"], {})[r["side"]] = {**values, FAULTS: r[FAULTS]}
        both = [p for p in pairs.values() if len(p) == 2]
        out[key] = {}
        for m in (*METRICS, FAULTS):
            par = [p["parent"][m] for p in both]
            chg = [p["change"][m] for p in both]
            q = statistics.quantiles(par, n=4) if len(par) >= 2 else [par[0], par[0], par[0]]
            out[key][m] = {"parent_median": statistics.median(par), "change_median": statistics.median(chg),
                                "parent_iqr": q[2] - q[0], "change_won": sum(c < p for p, c in zip(par, chg)),
                                "pairs": len(both)}
    return out


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
            "blas_threads": min(2, len(os.sched_getaffinity(0)))}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="suffix of the output file BENCH_<pr>.json")
    ap.add_argument("--parent", default="HEAD", help="parent tree-ish (default HEAD)")
    ap.add_argument("--change", default="INDEX", help="change tree-ish; INDEX = the staged tree (default)")
    ap.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD:SEED:PAIRS")
    ap.add_argument("--traced", nargs="*", default=[], metavar="WORKLOAD:SEED:PAIRS",
                    help="pairs run with --trace 1 after the others, for the per-layer metrics")
    ap.add_argument("--seconds", type=int, default=40, help="--seconds of each run (default 40)")
    ap.add_argument("--workdir", default=os.path.join(ROOT, "build", "bench"),
                    help="where the two checkouts are extracted (default build/bench)")
    ap.add_argument("--out", help="output file (default BENCH_<pr>.json at the repository root)")
    args = ap.parse_args(argv)
    specs = []
    for trace, group in ((0, args.pairs), (1, args.traced)):
        for spec in group:
            workload, seed, count = spec.split(":")
            specs.append((workload, int(seed), int(count), trace))
    revs = {"parent": resolve(args.parent), "change": resolve(args.change)}
    dirs = extract_pair(revs["parent"], revs["change"], args.workdir)
    out_path = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    report = {
        "description": "Alternating parent/change pairs of perfbench/run.py, both sides extracted with "
                       "git archive into directories of equal path length. Each entry's 'result' is the "
                       "last line printed by the run, unedited; 'ran_first' names the side that ran first "
                       "in that pair; 'minflt_per_item' is the run's getrusage(RUSAGE_CHILDREN).ru_minflt "
                       "delta (every pass, set-up included) over its attempted items; 'traced_runs' ran "
                       "with --trace 1. 'summary' covers 'runs' and counts a pair as won when the change's "
                       "value is lower.",
        "command": f"python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {args.seconds} --trace T",
        "parent": revs["parent"], "change": revs["change"], "host": host(), "runs": [], "traced_runs": [],
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
            report["summary"] = summarize(report["runs"]) if report["runs"] else {}
            with open(out_path, "w") as fh:      # rewritten after every pair, so a cut run keeps its data
                json.dump(report, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
