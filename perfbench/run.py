"""spherestab benchmark: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload deficit-batch --seed 1 --seconds 40 --trace 0

Workloads: ``deficit-batch`` (quadrature engine), ``spectrum-cold``
(exact-algebra engine), ``moebius-fit`` (solver engine); see
``PREDICTIONS.md`` for why each exists and what each layer should move.

Load shape: a closed loop in one process at a time.  Each pass of a
workload runs in a fresh interpreter (``worker.py``), so the program's
caches start cold as on a CLI call; passes are started one after another
while the next one still fits in ``--seconds``.  With ``--trace 0`` every
pass is untraced; ``run_s`` sums each item's fastest time over the passes
and the other end-to-end metrics are medians over the passes.
With ``--trace 1`` untraced and traced passes alternate; the per-layer
metrics are medians over the traced passes, the tracing overhead is the
traced run_s minus the untraced one, and the spans are written to
``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An item that raises
or fails its correctness check counts as failed; ``correct`` is false when
any output was checked and found wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PKG = os.path.join(ROOT, "src", "spherestab")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("deficit-batch", "spectrum-cold", "moebius-fit")
# every run must end well inside 180 s, whatever --seconds asks for
RUN_LIMIT_S = 170.0
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# span names reported as <name>.busy_s and <name>.calls
LAYERS = [
    "deficits.deficit_report.n3", "deficits.deficit_report.n4",
    "deficits.signed_volume.n3", "deficits.signed_volume.n4",
    "deficits.dirichlet.n3", "deficits.dirichlet.n4",
    "deficits.perimeter.n3", "deficits.perimeter.n4",
    "deficits.combined_deficit",
    "spheremap.sample",
    "spheremap.tangential_jacobians", "spheremap.principal_stretch_values",
    "spheremap.volume_integrand", "spheremap.area_integrand", "spheremap.dirichlet_integrand",
    "quadrature.build_sphere_grid",
    "homogeneous.gram", "harmonics.vector_space_coeffs", "operator.a_matrix",
    "operator.helmholtz_split", "operator.eigenspaces", "constants.constants", "forms.ratio_check",
    "families.stability_sweep", "moebius.nearest_moebius", "moebius.gauge_fix", "moebius.recenter",
    "moebius.moebius_jacobian", "moebius.psi_functional",
]
# exact counts: metric name -> counter kept by the workload
COUNTS = {
    "operator.blocks": "operator.blocks",
    "operator.block_dim_total": "operator.block_dim_total",
    "operator.integrity_errors": "exceptions.IntegrityError",
    "moebius.recenter.map_evals": "moebius.recenter.map_evals",
    "moebius.nearest_moebius.map_evals": "moebius.nearest_moebius.map_evals",
    "moebius.solver_errors": "exceptions.SolverError",
}
LAYER_METRICS = (
    [(f"{name}.busy_s", "s") for name in LAYERS]
    + [(f"{name}.calls", "count") for name in LAYERS]
    + [(name, "count") for name in COUNTS]
    + [(f"spheremap.tangential_jacobians.n{n}.{m}", u) for n in (3, 4)
       for m, u in (("nodes_per_s", "1/s"), ("bytes_computed", "B"))]
)
# not gated: failed items, host speed, CPU use and the cost of tracing itself.
# error_frac belongs with these, not with the gated end-to-end metrics: it is
# 0 on two workloads, and a gate's bound is a share of the parent's value.
DIAGNOSTICS = [("error_frac", "fraction"), ("process.cpu_s", "s"), ("host.ref_ms", "ms"),
               ("trace.overhead_s", "s")]
PER_LAYER = LAYER_METRICS + DIAGNOSTICS


def host_probe_ms(np) -> list[float]:
    """Five timings of a fixed pure-NumPy loop; they track host speed."""
    out = []
    a0 = np.linspace(0.0, 1.0, 100_000)
    for _ in range(5):
        t0 = time.perf_counter()
        a = a0
        for _ in range(40):
            a = np.sqrt(a * a + 1.0) - 0.5
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def git_sha() -> str:
    try:
        # the ceiling keeps git from reporting a repository that encloses the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def source_sha256() -> str:
    """Digest of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PKG)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(SRC_PKG, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    t_start = time.monotonic()
    # subprocess.run kills and reaps the worker if it overruns the timeout
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    wall = time.monotonic() - t_start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with code {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["first_call"] - t_start
    rec["wall_s"] = wall
    rec["traced"] = traced
    return rec


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def best_run_s(passes: list[dict]) -> float:
    """Sum over items of each item's fastest timed time across the passes.

    Every pass repeats the same items.  The host's speed varies in bursts,
    and the fastest repeat of an item is the steadiest estimate of what the
    program itself costs; on deficit-batch it halved the run-to-run spread
    of the median pass total.
    """
    per_item = zip(*(p["items"] for p in passes))
    return sum(min(it["run_s"] for it in reps) for reps in per_item)


def layer_metrics(rec: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    busy, calls, counts = rec["busy"], rec["calls"], rec["counts"]

    def total(table, name):
        return sum(v for k, v in table.items() if k == name or k.startswith(name + "."))

    out = {}
    for name in LAYERS:
        out[f"{name}.busy_s"] = total(busy, name)
        out[f"{name}.calls"] = total(calls, name)
    for metric, counter in COUNTS.items():
        out[metric] = counts.get(counter, 0)
    for n in (3, 4):
        span = f"spheremap.tangential_jacobians.n{n}"
        nodes = counts.get(f"{span}.nodes", 0)
        ncalls = calls.get(span, 0)
        out[f"{span}.nodes_per_s"] = nodes / busy[span] if ncalls else 0.0
        # J and X read, J P written, 8-byte floats
        out[f"{span}.bytes_computed"] = 8 * (nodes // ncalls) * (2 * n * n + n) if ncalls else 0
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC_PKG, "__init__.py")):
        print(f"error: no spherestab sources at {SRC_PKG}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # the parent only waits on workers and runs the host probe
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np

    t0 = time.monotonic()
    probe_start = host_probe_ms(np)
    passes: list[dict] = []
    min_passes = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        remaining = RUN_LIMIT_S - (time.monotonic() - t0)
        passes.append(run_pass(args.workload, args.seed, traced, timeout=remaining))
        elapsed = time.monotonic() - t0
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > args.seconds:
            break
        if elapsed + typical > RUN_LIMIT_S - 10.0:
            break
    probe_end = host_probe_ms(np)

    digests = {p["inputs_sha256"] for p in passes}
    if len(digests) != 1:
        print("error: passes of one seed generated different inputs", file=sys.stderr)
        return 1
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    items = [it for p in passes for it in p["items"]]
    failed = [it for it in items if it["status"] != "ok"]
    correct = not any(it["status"] == "wrong" for it in items)

    env = passes[0]["env"]
    fingerprint = {
        "workload": args.workload, "seed": args.seed, "git_sha": git_sha(),
        "source_sha256": source_sha256(), "inputs_sha256": digests.pop(),
        "python": env["python"], "numpy": env["numpy"], "scipy": env["scipy"],
        "blas": env["blas"], "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
    }
    print(f"spherestab benchmark: {args.workload}, seed {args.seed}, {len(passes)} passes "
          f"({len(plain)} untraced, {len(traced_passes)} traced) in {time.monotonic() - t0:.1f} s; "
          "closed loop, one worker process at a time")
    print("fingerprint: " + json.dumps(fingerprint))

    def med(key, recs=plain):
        return statistics.median(p[key] for p in recs)

    q1, q2, q3 = quartiles([p["run_s"] for p in plain])
    print(f"  {'run_s':<14} {best_run_s(plain):12.6f} s     sum of per-item best of {len(plain)} passes; "
          f"pass totals: median {q2:.6f}, quartiles {q1:.6f} .. {q3:.6f}")
    for key, unit in END_TO_END[1:]:
        q1, q2, q3 = quartiles([p[key] for p in plain])
        print(f"  {key:<14} {q2:12.6f} {unit:<5} median of {len(plain)} passes, quartiles {q1:.6f} .. {q3:.6f}")
    print(f"  {'error_frac':<14} {len(failed) / len(items):12.6f}       "
          f"{len(failed)} of {len(items)} items raised or failed their check")
    host_ms = statistics.median(probe_start + probe_end)
    print(f"  {'process.cpu_s':<14} {med('cpu_s'):12.6f} s     diagnostic: CPU time of the timed calls")
    print(f"  {'host.ref_ms':<14} {host_ms:12.6f} ms    diagnostic: reference loop, "
          f"start {statistics.median(probe_start):.3f}, end {statistics.median(probe_end):.3f}")
    for it in {it["id"]: it for it in failed}.values():
        print(f"  failed item {it['id']} ({it['status']}): {it['detail']}")

    if args.trace:
        per_pass = [layer_metrics(p) for p in traced_passes]
        # counts stay whole numbers: take a middle value, not a mean of two
        values = {name: (statistics.median_low if unit in ("count", "B") else statistics.median)(
                      [m[name] for m in per_pass]) for name, unit in LAYER_METRICS}
        for name in COUNTS:
            if len({m[name] for m in per_pass}) != 1:
                print(f"  warning: count {name} differs between passes of one seed")
        values["error_frac"] = len(failed) / len(items)
        values["process.cpu_s"] = med("cpu_s")
        values["host.ref_ms"] = host_ms
        values["trace.overhead_s"] = best_run_s(traced_passes) - best_run_s(plain)
        selfs = {}
        for p in traced_passes:
            for name, v in p["self"].items():
                selfs.setdefault(name, []).append(v)
        print("self time per span name (median over traced passes):")
        for name, vs in sorted(selfs.items(), key=lambda kv: -statistics.median(kv[1])):
            print(f"  {name:<44} {statistics.median(vs):12.6f} s")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"fingerprint": fingerprint,
                       "passes": [{"pass": j, "spans": p["spans"]} for j, p in enumerate(passes) if p["traced"]]},
                      fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        units = dict(PER_LAYER)
    else:
        values = {"run_s": best_run_s(plain), "setup_s": med("setup_s"), "peak_rss_mb": med("peak_rss_mb")}
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": correct,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
