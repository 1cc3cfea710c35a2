"""Command-line interface.

Subcommands: verify (full invariant suite, JSON report, exit 0/1),
spectrum (per-(k,i) constant table as CSV), rates / stability (family
sweeps as CSV), fit-moebius and deficits (per-map reports).  Exit codes:
0 pass, 1 invariant failure, 2 usage or input error.  With a fixed seed
the CSV outputs are byte-identical across runs on one platform.  The
``ratio_residual`` column of spectrum is a roundoff residual: its digits
depend on the summation order inside the kernels, not only on the seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .config import Config, load_config

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _parse_sigmas(spec: str) -> list[float]:
    """start:stop:spacing:count, e.g. 0.05:0.8:geometric:8."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError("sigmas must be start:stop:spacing:count")
    start, stop = float(parts[0]), float(parts[1])
    spacing, count = parts[2], int(parts[3])
    if spacing == "geometric":
        return list(np.geomspace(start, stop, count))
    if spacing == "linear":
        return list(np.linspace(start, stop, count))
    raise ValueError("spacing must be 'geometric' or 'linear'")


def _unused_flags(args, names) -> list[str]:
    return [f"--{name}" for name in names if getattr(args, name) is not None]


def _sweep_inputs(args):
    """The parsed --sigmas and the sweep grid, or None after printing why the sweep cannot run.

    Only the sphere families (n = 3) read a grid; the circle families carry their own.
    """
    from .families import family_dimension, sweep_input_error

    n = family_dimension(args.family)
    unused = _unused_flags(args, ("seed", "tol") + (("resolution",) if n == 2 else ()))
    if unused:
        print(f"the {args.family} sweep does not use {', '.join(unused)}", file=sys.stderr)
        return None
    cfg = _load_cfg(args, n)  # a bad --config exits 2 for every family
    try:
        sigmas = _parse_sigmas(args.sigmas)
    except ValueError as exc:
        print(f"bad --sigmas: {exc}", file=sys.stderr)
        return None
    problem = sweep_input_error(args.family, sigmas, getattr(args, "theorem", None))
    if problem:
        print(f"bad sweep: {problem}", file=sys.stderr)
        return None
    if n == 2:
        return sigmas, None
    try:
        return sigmas, cfg.grid(n)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None


def _write_csv(path, header, rows):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    finally:
        if path:
            out.close()


def _load_cfg(args, n: int = 3) -> Config:
    """The config of --config with the --tol, --seed and --resolution
    overrides; --resolution sets the grid of S^{n-1}."""
    try:
        cfg = load_config(args.config) if getattr(args, "config", None) else Config()
        if getattr(args, "tol", None) is not None:
            cfg = cfg.with_tolerance(float(args.tol))
        if getattr(args, "resolution", None) is not None:
            cfg = replace(cfg, resolutions={**cfg.resolutions, n: int(args.resolution)})
        if getattr(args, "seed", None) is not None:
            cfg = replace(cfg, seed=int(args.seed))
        return cfg
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _map_and_grid(args):
    """The map of --map and the grid it is evaluated on (its own grid if it
    is sampled, else the config grid of its dimension), or None after
    printing why there is none."""
    from .io import load_json, map_from_dict

    unused = _unused_flags(args, ("seed", "tol"))
    if unused:
        print(f"{args.command} does not use {', '.join(unused)}", file=sys.stderr)
        return None
    try:
        u = map_from_dict(load_json(args.map))
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot read map: {exc}", file=sys.stderr)
        return None
    if u.is_sampled and args.resolution is not None:
        print("a sampled map carries its own grid; --resolution does not apply", file=sys.stderr)
        return None
    cfg = _load_cfg(args, u.n)
    if u.is_sampled:
        return u, u.grid
    try:
        return u, cfg.grid(u.n)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None


def cmd_verify(args) -> int:
    from .verify import ALL_CHECKS, run_checks

    if args.resolution is not None:
        # its checks run grids of several dimensions; one flag cannot name them all
        print("verify does not use --resolution; set the grid of each dimension "
              "in the resolutions table of --config", file=sys.stderr)
        return 2
    cfg = _load_cfg(args)
    if args.only:
        known = {name for name, _ in ALL_CHECKS}
        unknown = [n for n in args.only if n not in known]
        if unknown:
            print(f"unknown check names: {', '.join(unknown)}", file=sys.stderr)
            return 2
    ok, results = run_checks(cfg, names=args.only or None)
    report = {"passed": bool(ok), "checks": results}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    for r in results:
        mark = "PASS" if r["passed"] else "FAIL"
        print(f"{mark} {r['name']}: {r['detail']}")
    if not ok:
        first = next(r for r in results if not r["passed"])
        print(f"first failure: {first['name']} ({first['detail']})", file=sys.stderr)
        return 1
    return 0


def cmd_spectrum(args) -> int:
    from .constants import constants, sigma_value
    from .errors import IntegrityError
    from .forms import q_n, q_vol, surface_div_sq, tangential_energy
    from .operator import eigenspaces, random_eigenfield

    unused = _unused_flags(args, ("resolution", "tol"))
    if unused:
        print(f"spectrum does not use {', '.join(unused)}", file=sys.stderr)
        return 2
    cfg = _load_cfg(args)
    n, kmax = args.n, args.kmax
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for k in range(1, kmax + 1):
        try:
            spaces = eigenspaces(n, k)
        except IntegrityError as exc:
            # past the degree ceiling (n = 3, k >= 29) the float basis loses the known spectrum
            print(f"spectrum fails at (n, k) = ({n}, {k}): {exc}", file=sys.stderr)
            return 2
        for i in (1, 2, 3):
            S = spaces[i - 1]
            if S.dim == 0:
                continue
            c, a, C, Cp, Ct = constants(n, k, i)
            ef = random_eigenfield(n, k, i, rng)
            e = tangential_energy(ef.map)
            resid = max(
                abs(q_vol(ef.map, ef.map) / e - float(c)),
                abs(surface_div_sq(ef.map) / e - float(a)),
                abs(q_n(ef.map, project=False) / e - float(C)),
            )
            rows.append([k, i, sigma_value(n, k, i), S.dim, c, a, C, Cp,
                         Ct if Ct is not None else "", repr(resid)])
    _write_csv(args.out, ["k", "i", "sigma", "dim", "c_nki", "alpha_nki",
                          "C_nki", "Cprime_nki", "Ctilde_nki", "ratio_residual"], rows)
    return 0


def cmd_sweep(args) -> int:
    """rates and stability: one family sweep as CSV; rates adds the energy and its fitted slope."""
    from .families import stability_sweep

    inputs = _sweep_inputs(args)
    if inputs is None:
        return 2
    sigmas, grid = inputs
    sweep = stability_sweep(args.family, sigmas, theorem=getattr(args, "theorem", None), grid=grid)
    header = ["sigma", "lhs", "delta", "epsilon", "E", "ratio"]
    rows = [[r[h] for h in header] for r in sweep.rows()]
    if args.command == "rates":
        slope = sweep.energy_slope[0] if sweep.energy_slope else float("nan")
        header += ["energy", "slope"]
        rows = [row + [en, slope] for row, en in zip(rows, sweep.energies)]
    _write_csv(args.out, header, rows)
    if args.command == "stability":
        print(f"max ratio {max(sweep.ratios):.4f} over {len(rows)} samples")
    return 0


def cmd_fit_moebius(args) -> int:
    from .deficits import combined_deficit
    from .io import moebius_to_dict
    from .moebius import nearest_moebius

    inputs = _map_and_grid(args)
    if inputs is None:
        return 2
    u, grid = inputs
    try:
        res = nearest_moebius(u, grid)
        E = combined_deficit(u, grid)
    except ValueError as exc:
        print(f"map not fittable: {exc}", file=sys.stderr)
        return 2
    ratio = res.value / E if E > 0 else float("inf")
    out = {
        "phi": moebius_to_dict(res.phi),
        "lambda": res.lam,
        "value": res.value,
        "E": E,
        "ratio": ratio,
        "nfev": res.nfev,
        "converged": res.converged,
        "iterations": res.iterations,
        "grad_norm": res.grad_norm,
    }
    _write_json(args.out, out)
    return 0


def cmd_deficits(args) -> int:
    from dataclasses import asdict

    from .deficits import deficit_report

    inputs = _map_and_grid(args)
    if inputs is None:
        return 2
    u, grid = inputs
    try:
        rep = asdict(deficit_report(u, grid))
    except ValueError as exc:
        print(f"cannot evaluate deficits: {exc}", file=sys.stderr)
        return 2
    _write_json(args.out, rep)
    return 0


def _write_json(path, obj):
    text = json.dumps(obj, indent=1)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    print(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spherestab",
                                description="sphere-map stability toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, n_flag=True):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--tol", type=float, help="override all tolerances")
        sp.add_argument("--seed", type=int, help="random seed")
        sp.add_argument("--resolution", type=int, help="grid resolution override")
        sp.add_argument("--out", help="output file (default stdout)")

    sp = sub.add_parser("verify", help="run the invariant suite")
    common(sp)
    sp.add_argument("--only", nargs="*", help="subset of check names")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("spectrum", help="constant table for the A-eigenspaces")
    common(sp)
    sp.add_argument("--n", type=int, default=3, choices=(2, 3, 4))
    sp.add_argument("--kmax", type=int, default=8)
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("rates", help="optimality-rate sweep for one family")
    common(sp)
    sp.add_argument("--family", required=True,
                    choices=("flip", "stretch", "ellipsoid", "homothety"))
    sp.add_argument("--sigmas", default="0.05:0.8:geometric:8",
                    help="start:stop:spacing:count")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("stability", help="stability-ratio sweep")
    common(sp)
    sp.add_argument("--family", required=True,
                    choices=("flip", "stretch", "ellipsoid", "homothety"))
    sp.add_argument("--theorem", choices=("isometric", "conformal"))
    sp.add_argument("--sigmas", default="0.05:0.5:geometric:6")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("fit-moebius", help="nearest-Moebius fit for a map file")
    common(sp)
    sp.add_argument("--map", required=True, help="map JSON file")
    sp.set_defaults(fn=cmd_fit_moebius)

    sp = sub.add_parser("deficits", help="full deficit report for a map file")
    common(sp)
    sp.add_argument("--map", required=True, help="map JSON file")
    sp.set_defaults(fn=cmd_deficits)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
