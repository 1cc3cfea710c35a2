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
import os
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .config import Config, load_config
from .quadrature import SphereGrid

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
    if count < 1:
        raise ValueError(f"count must be at least 1, not {count}")
    if spacing == "geometric":
        return list(np.geomspace(start, stop, count))
    if spacing == "linear":
        return list(np.linspace(start, stop, count))
    raise ValueError("spacing must be 'geometric' or 'linear'")


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


def _load_cfg(args, n: int | None = None) -> tuple[Config, SphereGrid | None]:
    """The config of --config with the overrides of the flags the command
    registers, and its grid of S^{n-1} (None without n); --resolution sets
    that grid."""
    try:
        cfg = load_config(args.config) if args.config else Config()
        if getattr(args, "tol", None) is not None:
            cfg = cfg.with_tolerance(args.tol)
        if getattr(args, "seed", None) is not None:
            cfg = replace(cfg, seed=args.seed)
        if getattr(args, "resolution", None) is not None:
            cfg = replace(cfg, resolutions={**cfg.resolutions, n: args.resolution})
        return cfg, None if n is None else cfg.grid(n)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"config error: {exc}") from None


def _check_out(path: str) -> None:
    """Exit 2 with one line unless path can be opened for writing; leaves no
    file that was not there."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise SystemExit(f"cannot write {path}: {exc.strerror or exc}") from None
    if not existed:
        os.remove(path)


def _map_and_grid(args):
    """The map of --map and the grid it is evaluated on: its own grid if it
    is sampled, else the config grid of its dimension."""
    from .io import load_json, map_from_dict

    try:
        u = map_from_dict(load_json(args.map))
    except KeyError as exc:
        raise SystemExit(f"cannot read map: missing key {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
        raise SystemExit(f"cannot read map: {exc}") from None
    if u.is_sampled and args.resolution is not None:
        raise SystemExit("a sampled map carries its own grid; --resolution does not apply")
    _, grid = _load_cfg(args, None if u.is_sampled else u.n)
    return u, u.grid if u.is_sampled else grid


def cmd_verify(args) -> int:
    from .verify import ALL_CHECKS, run_checks

    cfg, _ = _load_cfg(args)
    if args.only:
        known = {name for name, _ in ALL_CHECKS}
        unknown = [n for n in args.only if n not in known]
        if unknown:
            raise SystemExit(f"unknown check names: {', '.join(unknown)}")
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

    cfg, _ = _load_cfg(args)
    n, kmax = args.n, args.kmax
    if kmax < 1:
        raise SystemExit(f"--kmax must be at least 1, not {kmax}")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for k in range(1, kmax + 1):
        try:
            spaces = eigenspaces(n, k)
        except IntegrityError as exc:
            # past the degree ceiling (n = 3, k >= 29) a constructed eigenspace fails its residual check
            raise SystemExit(f"spectrum fails at (n, k) = ({n}, {k}): {exc}") from None
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
    """rates and stability: one family sweep as CSV; rates adds the energy and its fitted slope.

    Only the sphere families (n = 3) read a grid; the circle families carry their own.
    """
    from .families import family_dimension, stability_sweep, sweep_input_error

    n = family_dimension(args.family)
    if n == 2 and args.resolution is not None:
        raise SystemExit(f"the {args.family} sweep does not use --resolution")
    _, grid = _load_cfg(args, None if n == 2 else n)   # a bad --config exits 2 for every family
    try:
        sigmas = _parse_sigmas(args.sigmas)
    except ValueError as exc:
        raise SystemExit(f"bad --sigmas: {exc}") from None
    theorem = getattr(args, "theorem", None)
    problem = sweep_input_error(args.family, sigmas, theorem)
    if problem:
        raise SystemExit(f"bad sweep: {problem}")
    sweep = stability_sweep(args.family, sigmas, theorem=theorem, grid=grid)
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

    u, grid = _map_and_grid(args)
    try:
        res = nearest_moebius(u, grid)
        E = combined_deficit(u, grid)
    except ValueError as exc:
        raise SystemExit(f"map not fittable: {exc}") from None
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

    u, grid = _map_and_grid(args)
    try:
        rep = asdict(deficit_report(u, grid))
    except ValueError as exc:
        raise SystemExit(f"cannot evaluate deficits: {exc}") from None
    _write_json(args.out, rep)
    return 0


def _write_json(path, obj):
    text = json.dumps(obj, indent=1)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    print(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line, not the usage, and exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="spherestab", description="sphere-map stability toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, config="JSON config file"):
        """A subcommand with --config and --out; each adds the flags it reads."""
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", help=config)
        sp.add_argument("--out", help="output file (default stdout)")
        sp.set_defaults(fn=fn)
        return sp

    families = ("flip", "stretch", "ellipsoid", "homothety")
    sweep_resolution = "grid resolution of S^2 for the sphere families (ellipsoid, homothety)"
    map_resolution = "grid resolution of the map's sphere (not for sampled maps)"

    sp = command("verify", cmd_verify, "run the invariant suite",
                 config="JSON config file; its resolutions table sets the grid of each dimension")
    sp.add_argument("--tol", type=float, help="override all tolerances")
    sp.add_argument("--seed", type=int, help="random seed")
    sp.add_argument("--only", nargs="*", help="subset of check names")

    sp = command("spectrum", cmd_spectrum, "constant table for the A-eigenspaces")
    sp.add_argument("--seed", type=int, help="random seed of the eigenfield draws")
    sp.add_argument("--n", type=int, default=3, choices=(2, 3, 4, 5))
    sp.add_argument("--kmax", type=int, default=8)

    sp = command("rates", cmd_sweep, "optimality-rate sweep for one family")
    sp.add_argument("--resolution", type=int, help=sweep_resolution)
    sp.add_argument("--family", required=True, choices=families)
    sp.add_argument("--sigmas", default="0.05:0.8:geometric:8", help="start:stop:spacing:count")

    sp = command("stability", cmd_sweep, "stability-ratio sweep")
    sp.add_argument("--resolution", type=int, help=sweep_resolution)
    sp.add_argument("--family", required=True, choices=families)
    sp.add_argument("--theorem", choices=("isometric", "conformal"))
    sp.add_argument("--sigmas", default="0.05:0.5:geometric:6")

    for name, fn, summary in (("fit-moebius", cmd_fit_moebius, "nearest-Moebius fit for a map file"),
                              ("deficits", cmd_deficits, "full deficit report for a map file")):
        sp = command(name, fn, summary)
        sp.add_argument("--resolution", type=int, help=map_resolution)
        sp.add_argument("--map", required=True, help="map JSON file")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out:   # before the work: an unwritable --out fails fast
            _check_out(args.out)
        return args.fn(args)
    except SystemExit as exc:   # usage and input errors; a string code is the one-line reason
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
