"""JSON (de)serialization of the map files that the command line reads and
writes: maps (poly- or sample-backed, with their grids and polynomials),
and the Moebius parameters that ``fit-moebius`` reports.  Callable-backed
maps are in-memory objects and do not serialize.

The reader refuses, with a ValueError that names the fault, what no
deficit can be taken of: a sampled map without ``jacobians``, any number
that is not finite (values, Jacobians, nodes, weights, coefficients), and
a grid that is not a quadrature rule on the sphere: its domain must be
``"sphere"``, every node must have norm 1 to within ``NODE_TOL`` and every
weight be nonnegative, with the weights summing to 1 to within
``WEIGHT_SUM_TOL``."""

from __future__ import annotations

import json
import math

import numpy as np

from .config import _integer
from .moebius import MoebiusMap
from .polynomials import Poly
from .quadrature import SphereGrid
from .spheremap import SphereMap, poly_map, sampled_map

__all__ = [
    "grid_to_dict", "grid_from_dict",
    "poly_to_dict", "poly_from_dict",
    "map_to_dict", "map_from_dict",
    "moebius_to_dict",
    "save_json", "load_json",
]


# |norm - 1| of a grid node, the nodes of a built grid being unit vectors to
# roundoff; and |sum - 1| of the weights, normalized to sum to 1
NODE_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-10


def grid_to_dict(g: SphereGrid) -> dict:
    return {
        "n": g.n,
        "nodes": g.nodes.tolist(),
        "weights": g.weights.tolist(),
        "exactness": g.exactness,
        "domain": "sphere",
    }


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    """a, whose every entry must be finite."""
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        at = tuple(int(i) for i in bad[0])
        raise ValueError(f"{what} must be finite, not {a[at]} at {list(at)}")
    return a


def grid_from_dict(d: dict) -> SphereGrid:
    """The sphere grid of a JSON object, checked as the module docstring states."""
    n, exactness = _integer(d["n"], "grid: n"), _integer(d["exactness"], "grid: exactness")
    if d.get("domain", "sphere") != "sphere":
        raise ValueError(f"grid: domain must be 'sphere', not {d['domain']!r}")
    nodes, weights = (_finite(np.asarray(d[key], dtype=float), f"grid: {key}") for key in ("nodes", "weights"))
    if nodes.ndim != 2 or nodes.shape[1] != n or weights.shape != nodes.shape[:1]:
        raise ValueError(f"grid: nodes must be a nodes x {n} array with one weight per node, "
                         f"not of shapes {nodes.shape} and {weights.shape}")
    norms = np.linalg.norm(nodes, axis=1)
    off = np.flatnonzero(np.abs(norms - 1.0) > NODE_TOL)
    if len(off):
        raise ValueError(f"grid: node {off[0]} has norm {norms[off[0]]}, not 1 to within {NODE_TOL:g}")
    negative = np.flatnonzero(weights < 0.0)
    if len(negative):
        raise ValueError(f"grid: weight {negative[0]} is {weights[negative[0]]}, not nonnegative")
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"grid: weights sum to {total!r}, not 1 to within {WEIGHT_SUM_TOL:g}")
    return SphereGrid(n, nodes, weights, exactness)


def poly_to_dict(p: Poly) -> dict:
    return {"n": p.n, "terms": [{"exponents": list(e), "coeff": c} for e, c in sorted(p.coeffs.items())]}


def poly_from_dict(d: dict) -> Poly:
    return Poly(_integer(d["n"], "n"), {tuple(t["exponents"]): float(t["coeff"]) for t in d["terms"]})


def map_to_dict(u: SphereMap) -> dict:
    if u.is_poly:
        return {
            "n": u.n, "m": u.m, "backing": "poly",
            "components": [poly_to_dict(c) for c in u.components],
        }
    if u.is_sampled:
        b = u.backing
        return {
            "n": u.n, "m": u.m, "backing": "sampled",
            "grid": grid_to_dict(b.grid),
            "values": b.values.tolist(),
            "jacobians": b.jacobians.tolist(),
        }
    raise TypeError("callable-backed maps do not serialize")


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _expect(x, kind: type, what: str):
    """x, which must be a JSON object (kind dict) or array (kind list)."""
    if not isinstance(x, kind):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, not {_JSON_TYPES.get(type(x), type(x).__name__)}")
    return x


def _component_from_dict(n: int, i: int, c: dict) -> Poly:
    """Component i of a poly map in n variables; its n and exponents must agree."""
    _expect(c, dict, f"component {i}")
    if _integer(c.get("n", n), f"component {i}: n") != n:
        raise ValueError(f"component {i} has n = {c['n']}, but the map has n = {n}")
    for t in _expect(c["terms"], list, f"component {i}: terms"):
        e = _expect(_expect(t, dict, f"component {i}: a term")["exponents"], list, f"component {i}: exponents")
        if len(e) != n or not all(isinstance(p, int) and p >= 0 for p in e):
            raise ValueError(f"component {i}: exponent {e} is not {n} nonnegative integers")
        if not math.isfinite(float(t["coeff"])):
            raise ValueError(f"component {i}: coefficient of {e} must be finite, not {float(t['coeff'])}")
    return poly_from_dict({**c, "n": n})


def map_from_dict(d: dict) -> SphereMap:
    """The map of a JSON object; ValueError or KeyError (a missing key) names what is wrong."""
    _expect(d, dict, "a map")
    if d["backing"] == "poly":
        n, comps = _integer(d["n"], "n"), _expect(d["components"], list, "components")
        if "m" in d and _integer(d["m"], "m") != len(comps):
            raise ValueError(f"poly map has {len(comps)} components, but m = {d['m']}")
        return poly_map(n, [_component_from_dict(n, i, c) for i, c in enumerate(comps)])
    if d["backing"] == "sampled":
        grid = grid_from_dict(_expect(d["grid"], dict, "grid"))
        values = _finite(np.asarray(d["values"], dtype=float), "values")
        if values.ndim != 2:
            raise ValueError(f"values must be a nodes x m array, not of shape {values.shape}")
        if len(values) != grid.size:
            raise ValueError(f"values must have one row per grid node ({grid.size}), not {len(values)}")
        # n and m restate the grid's dimension and the width of values
        for key, have, source in (("n", grid.n, "the grid has n"), ("m", values.shape[1], "values have width")):
            if key in d and _integer(d[key], key) != have:
                raise ValueError(f"sampled map has {key} = {d[key]}, but {source} {have}")
        u = sampled_map(grid, values, d.get("jacobians"))    # refuses a map without Jacobians
        _finite(u.backing.jacobians, "jacobians")
        return u
    raise ValueError(f"unknown backing {d['backing']!r}")


def moebius_to_dict(phi: MoebiusMap) -> dict:
    return {"n": phi.n, "O": phi.O.tolist(), "xi": phi.xi.tolist(), "lambda": phi.lam}


def save_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
