"""Run configuration: grid resolutions, tolerances, seed."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .quadrature import DEFAULT_RESOLUTIONS, SphereGrid, sphere_grid

__all__ = ["Config", "load_config"]


@dataclass(frozen=True)
class Config:
    resolutions: dict[int, int] = field(default_factory=lambda: dict(DEFAULT_RESOLUTIONS))
    tol_exact: float = 1e-10
    tol_quad: float = 1e-6
    tol_solver: float = 1e-8
    seed: int = 2024

    def __post_init__(self):
        for t in (self.tol_exact, self.tol_quad, self.tol_solver):
            if not t > 0:
                raise ValueError("tolerances must be positive")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, not {self.seed!r}")

    def grid(self, n: int) -> SphereGrid:
        if n not in self.resolutions:
            raise ValueError(f"no grid resolution configured for n = {n}")
        return sphere_grid(n, self.resolutions[n])

    def with_tolerance(self, tol: float) -> "Config":
        return replace(self, tol_exact=tol, tol_quad=tol, tol_solver=tol)


_KEYS = ("resolutions", "tol_exact", "tol_quad", "tol_solver", "seed")


def _dimension(key: str) -> int:
    """A resolutions key, which must spell a nonnegative integer: "3", not "3.0" or " 3"."""
    if not (key.isascii() and key.isdigit()):
        raise ValueError(f"resolutions keys must be integer dimensions, not {key!r}")
    return int(key)


def _integer(x, what: str) -> int:
    """x, which must be a JSON integer: a float or a boolean is refused, not truncated."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, not {x!r}")
    return x


def load_config(path: str) -> Config:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys {', '.join(unknown)}; known keys are {', '.join(_KEYS)}")
    kw = {}
    if "resolutions" in raw:
        if not isinstance(raw["resolutions"], dict):
            raise ValueError("resolutions must be an object keyed by dimension")
        # a partial table overrides the defaults entry by entry
        kw["resolutions"] = {**Config().resolutions, **{_dimension(k): _integer(v, f"resolution for n = {k}")
                                                         for k, v in raw["resolutions"].items()}}
    for name in ("tol_exact", "tol_quad", "tol_solver"):
        if name in raw:
            kw[name] = float(raw[name])
    if "seed" in raw:
        kw["seed"] = raw["seed"]   # not coerced: Config refuses what is not a nonnegative integer
    return Config(**kw)
