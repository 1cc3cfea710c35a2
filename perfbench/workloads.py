"""The three benchmark workloads: seeded inputs, timed calls, checks.

Each workload generates its inputs from the seed, then runs a list of
items (one map, one (n, k) block or one fit) in a closed loop: the next
call starts only after the previous one returns.  Only calls into the
public API of ``spherestab`` are timed; the correctness checks that follow
each item are not.  With tracing on, every call gets a span, and probe
calls (``spheremap`` kernels, ``SphereMap.sample``, ``moebius_jacobian``)
time single layers on the item's own arrays.

Why these workloads, and which layer metric should move which end-to-end
metric on which of them, is written down in ``PREDICTIONS.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from collections import defaultdict

import numpy as np

from spherestab.config import Config
from spherestab.constants import constants, sigma_value
from spherestab.deficits import combined_deficit, deficit_report, dirichlet, perimeter, signed_volume
from spherestab.families import stability_sweep
from spherestab.forms import q_n, q_vol, surface_div_sq, tangential_energy
from spherestab.harmonics import vector_space_coeffs
from spherestab.homogeneous import gram
from spherestab.moebius import (
    MoebiusMap,
    as_sphere_map,
    compose_with_map,
    gauge_fix,
    moebius_apply,
    moebius_jacobian,
    nearest_moebius,
    psi_functional,
    random_moebius,
    recenter,
)
from spherestab.operator import a_matrix, eigenspaces, helmholtz_split, random_eigenfield, random_h_field
from spherestab.spheremap import (
    area_integrand,
    callable_map,
    dirichlet_integrand,
    identity_map,
    principal_stretch_values,
    tangential_jacobians,
    volume_integrand,
)

import reference

HERE = os.path.dirname(os.path.abspath(__file__))

# deficit-batch: 8 n = 3 maps per n = 4 map, plus callable-backed Moebius maps
DEFICIT_SCHEDULE = ([3] * 8 + [4]) * 2
DEFICIT_MOEBIUS = 8
# spectrum-cold: n = 3 runs past the degree ceiling (k >= 12 raises at the
# seed); n = 4 stops at k = 6 because k = 7 alone would take most of a pass
SPECTRUM_BLOCKS = [(3, k) for k in range(1, 15)] + [(4, k) for k in range(1, 7)]
# moebius-fit: a fixed sweep point (its fit value is a stored reference)
SWEEP_SIGMAS = (0.1,)
GAUGE_FITS = 4
RECENTER_FITS = 8

REL_TOL = 1e-9        # deficits against the reference
SLACK_TOL = -1e-9     # Wente chain slack
MOEBIUS_E_TOL = 1e-6
RATIO_TOL = 1e-8
GAUGE_TOL = 1e-7
RECENTER_TOL = 1e-8
FIT_VALUE_TOL = 1e-6
FIT_LAMBDA_TOL = 1e-4


class ProgramError(Exception):
    """An exception raised inside a call into spherestab."""


class Pass:
    """Timing, spans and counters of one pass of one workload."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.tracing = tracer.enabled
        self.run_s = 0.0
        self.cpu_s = 0.0
        self.first_call: float | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.items: list[dict] = []

    @contextlib.contextmanager
    def _program(self, name):
        try:
            with self.tracer.span(name):
                yield
        except Exception as exc:
            self.counts[f"exceptions.{type(exc).__name__}"] += 1
            raise ProgramError(f"{name}: {type(exc).__name__}: {exc}") from exc

    @contextlib.contextmanager
    def timed(self, name):
        """A top-level call: counted in run_s and process CPU time."""
        if self.first_call is None:
            self.first_call = time.monotonic()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with self._program(name):
                yield
        finally:
            self.run_s += time.perf_counter() - t0
            self.cpu_s += time.process_time() - c0

    def call(self, name):
        """An untimed call into the program: set-up, checks and probes."""
        return self._program(name)

    def run_item(self, item_id: str, fn) -> None:
        self.tracer.item = item_id
        before = self.run_s
        try:
            with self.tracer.span("bench.item"):
                problems = fn()
            status = "wrong" if problems else "ok"
            detail = "; ".join(problems)
        except ProgramError as exc:
            status, detail = "error", str(exc)
        self.tracer.item = None
        self.items.append({"id": item_id, "status": status, "detail": detail,
                           "run_s": self.run_s - before})


def _close(a: float, b: float, rtol: float = REL_TOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-6)


def _poly_terms(u) -> list[list[tuple[tuple[int, ...], float]]]:
    return [sorted(c.coeffs.items()) for c in u.components]


def _digest(obj) -> str:
    """sha256 of a JSON rendering in which floats are written exactly."""
    def enc(x):
        if isinstance(x, float):
            return float(x).hex()
        if isinstance(x, np.ndarray):
            return [enc(float(v)) for v in x.ravel()]
        if isinstance(x, (list, tuple)):
            return [enc(v) for v in x]
        return x
    return hashlib.sha256(json.dumps(enc(obj)).encode()).hexdigest()


def _moebius_params(phi: MoebiusMap):
    return [phi.O, phi.xi, float(phi.lam)]


def _grid(p: Pass, n: int):
    # the Config grid cache is cold in a fresh process, so this call builds
    with p.call("quadrature.build_sphere_grid"):
        return Config().grid(n)


def _operator_layers(ctx, n: int, k: int, counts=None):
    """The exact-algebra layers of one (n, k) block in dependency order,
    so each call does its own work and finds its inputs cached."""
    with ctx("homogeneous.gram"):
        gram(n, k)
    with ctx("harmonics.vector_space_coeffs"):
        vector_space_coeffs(n, k)
    with ctx("operator.a_matrix"):
        A = a_matrix(n, k)
    if counts is not None:
        counts["operator.blocks"] += 1
        counts["operator.block_dim_total"] += A.shape[0]
    with ctx("operator.helmholtz_split"):
        helmholtz_split(n, k)
    with ctx("operator.eigenspaces"):
        return eigenspaces(n, k)


def _kernel_probes(p: Pass, u, g) -> None:
    """Time map sampling and the pointwise kernels on one map's arrays."""
    n = u.n
    with p.call("spheremap.sample"):
        X, U, J = u.sample(g)
    p.counts[f"spheremap.tangential_jacobians.n{n}.nodes"] += X.shape[0]
    with p.call(f"spheremap.tangential_jacobians.n{n}"):
        tangential_jacobians(J, X)
    with p.call(f"spheremap.principal_stretch_values.n{n}"):
        principal_stretch_values(J, X)
    with p.call(f"spheremap.volume_integrand.n{n}"):
        volume_integrand(U, J, X)
    with p.call(f"spheremap.area_integrand.n{n}"):
        area_integrand(J, X)
    with p.call(f"spheremap.dirichlet_integrand.n{n}"):
        dirichlet_integrand(J, X)


def _near_identity(p: Pass, n: int, kmax: int, rng, scale=None):
    """id + t w, w random in truncated H_n with unit tangential energy;
    t is drawn from [0.05, 0.4] unless given."""
    with p.call("operator.random_h_field"):
        w = random_h_field(n, kmax, rng)
        e = tangential_energy(w)
    t = rng.uniform(0.05, 0.4) if scale is None else scale
    return identity_map(n) + w.scale(t / np.sqrt(e))


def _counting_map(p: Pass, counter: str, value, jac):
    """A callable-backed map that counts how often the program evaluates it."""
    def v(P):
        p.counts[counter] += 1
        return value(P)

    def dv(P):
        p.counts[counter] += 1
        return jac(P)

    return callable_map(3, 3, v, dv)


# ---------------------------------------------------------------------------

class DeficitBatch:
    """Quadrature engine: deficits of near-identity maps and Moebius maps."""

    def __init__(self, seed: int, p: Pass):
        self.p = p
        self.grids = {n: _grid(p, n) for n in (3, 4)}
        for n in (3, 4):
            for k in range(1, 4):
                _operator_layers(p.call, n, k)
        rng = np.random.default_rng(seed)
        self.maps = [_near_identity(p, n, 3, rng) for n in DEFICIT_SCHEDULE]
        self.moebius = [random_moebius(rng, lam_range=(0.5, 2.0)) for _ in range(DEFICIT_MOEBIUS)]

    def digest(self) -> str:
        return _digest([[_poly_terms(u) for u in self.maps], [_moebius_params(m) for m in self.moebius]])

    def items(self):
        for j, u in enumerate(self.maps):
            yield f"map{j}.n{u.n}", lambda u=u: self._poly_item(u)
        for j, phi in enumerate(self.moebius):
            yield f"moebius{j}", lambda phi=phi: self._moebius_item(phi)

    def _poly_item(self, u):
        p, n = self.p, u.n
        g = self.grids[n]
        with p.timed(f"deficits.deficit_report.n{n}"):
            rep = deficit_report(u, g)
        with p.timed(f"deficits.dirichlet.n{n}"):
            D = dirichlet(u, g)
        with p.timed(f"deficits.perimeter.n{n}"):
            P = perimeter(u, g)
        with p.timed(f"deficits.signed_volume.n{n}"):
            V = signed_volume(u, g)
        if p.tracing:
            _kernel_probes(p, u, g)
        ref = reference.deficits(_poly_terms(u), g.nodes, g.weights)
        pairs = [
            ("dirichlet", D, "D"), ("perimeter", P, "P"), ("signed_volume", V, "V"),
            ("report.dirichlet", rep.dirichlet, "D"), ("report.perimeter", rep.perimeter, "P"),
            ("report.volume", rep.volume, "V"), ("report.delta", rep.delta, "delta"),
            ("report.delta_isom", rep.delta_isom, "delta_isom"),
            ("report.stretch_gap_norm", rep.stretch_gap_norm, "sgap"),
            ("report.epsilon", rep.epsilon, "epsilon"), ("report.combined", rep.combined, "E"),
        ]
        problems = [f"{label} = {v!r}, reference {ref[key]!r}"
                    for label, v, key in pairs if v is None or not _close(v, ref[key])]
        q = n / (n - 1)
        for label, slack in (("D^p - P^p", D**q - P**q), ("P^p - |V|", P**q - abs(V))):
            if not slack >= SLACK_TOL:
                problems.append(f"Wente slack {label} = {slack:.3e}")
        return problems

    def _moebius_item(self, phi):
        p = self.p
        with p.timed("deficits.combined_deficit"):
            E = combined_deficit(as_sphere_map(phi), self.grids[3])
        return [] if E <= MOEBIUS_E_TOL else [f"Moebius E = {E:.3e}"]


# ---------------------------------------------------------------------------

def load_reference() -> dict:
    with open(os.path.join(HERE, "reference_values.json")) as fh:
        return json.load(fh)


def _frac(x) -> str | None:
    return None if x is None else f"{x.numerator}/{x.denominator}"


class SpectrumCold:
    """Exact-algebra engine: the work of ``spherestab spectrum`` from cold."""

    def __init__(self, seed: int, p: Pass):
        self.p = p
        self.seed = seed
        self.table = load_reference()["spectrum"]

    def digest(self) -> str:
        states = [np.random.default_rng([self.seed, n, k]).bit_generator.state["state"]
                  for n, k in SPECTRUM_BLOCKS]
        return _digest([SPECTRUM_BLOCKS, [[s["state"], s["inc"]] for s in states]])

    def items(self):
        for n, k in SPECTRUM_BLOCKS:
            yield f"n{n}.k{k}", lambda n=n, k=k: self._block(n, k)

    def _block(self, n: int, k: int):
        p = self.p
        rng = np.random.default_rng([self.seed, n, k])
        spaces = _operator_layers(p.timed, n, k, p.counts)
        want = self.table[f"{n},{k}"]
        problems = []
        for i, S in enumerate(spaces, start=1):
            if S.dim != want["dims"][i - 1]:
                problems.append(f"dim of ({n},{k},{i}) is {S.dim}, table {want['dims'][i - 1]}")
            if S.dim == 0:
                continue
            with p.timed("constants.constants"):
                consts = constants(n, k, i)
                sigma = sigma_value(n, k, i)
            c, a, C = consts[:3]
            row = [str(sigma)] + [_frac(x) for x in consts]
            if row != want["rows"][str(i)]:
                problems.append(f"constants of ({n},{k},{i}) are {row}, table {want['rows'][str(i)]}")
            with p.timed("forms.ratio_check"):
                ef = random_eigenfield(n, k, i, rng)
                e = tangential_energy(ef.map)
                resid = max(abs(q_vol(ef.map, ef.map) / e - float(c)),
                            abs(surface_div_sq(ef.map) / e - float(a)),
                            abs(q_n(ef.map, project=False) / e - float(C)))
            if not resid <= RATIO_TOL:
                problems.append(f"ratio residual of ({n},{k},{i}) is {resid:.3e}")
        return problems


# ---------------------------------------------------------------------------

class MoebiusFit:
    """Solver engine: the ellipsoid sweep, gauge fixing, recentering, fits."""

    def __init__(self, seed: int, p: Pass):
        self.p = p
        self.g = _grid(p, 3)
        for k in range(1, 5):
            _operator_layers(p.call, 3, k)
        self.sweep_values = load_reference()["ellipsoid_fit_values"]
        rng = np.random.default_rng(seed)
        self.gauge_maps = [_near_identity(p, 3, 4, rng, 0.05) for _ in range(GAUGE_FITS)]
        self.recenter_targets = [random_moebius(rng, lam_range=(0.5, 2.0), rotate=True)
                                 for _ in range(RECENTER_FITS)]
        xi = rng.normal(size=3)
        self.fit_target = MoebiusMap(3, np.eye(3), xi / np.linalg.norm(xi), 2.0)

    def digest(self) -> str:
        return _digest([list(SWEEP_SIGMAS), [_poly_terms(u) for u in self.gauge_maps],
                        [_moebius_params(m) for m in self.recenter_targets],
                        _moebius_params(self.fit_target)])

    def items(self):
        for s in SWEEP_SIGMAS:
            yield f"sweep{s}", lambda s=s: self._sweep(s)
        for j, u in enumerate(self.gauge_maps):
            yield f"gauge{j}", lambda u=u: self._gauge(u)
        for j, tgt in enumerate(self.recenter_targets):
            yield f"recenter{j}", lambda tgt=tgt: self._recenter(tgt)
        yield "fit3phi", self._scaled_fit

    def _jacobian_probe(self, phi):
        if self.p.tracing:
            with self.p.call("moebius.moebius_jacobian"):
                moebius_jacobian(phi, self.g.nodes)

    def _sweep(self, sigma: float):
        with self.p.timed("families.stability_sweep"):
            sw = stability_sweep("ellipsoid", [sigma], theorem="conformal", grid=self.g)
        value, seed_value = sw.lhs[0], self.sweep_values[repr(sigma)]
        # the fit value is an achieved upper bound: it may improve, not worsen
        if not value <= seed_value * (1.0 + REL_TOL):
            return [f"ellipsoid fit value at sigma={sigma} is {value!r} > seed value {seed_value!r}"]
        return []

    def _gauge(self, u):
        p, g = self.p, self.g
        with p.timed("moebius.gauge_fix"):
            phi = gauge_fix(u, g, tol=GAUGE_TOL)
        if p.tracing:
            _kernel_probes(p, u, g)
            self._jacobian_probe(phi)
        with p.call("moebius.psi_functional"):
            r = float(np.linalg.norm(psi_functional(compose_with_map(u, phi), g)))
        return [] if r <= GAUGE_TOL else [f"gauge residual {r:.3e}"]

    def _recenter(self, tgt):
        p, g = self.p, self.g
        u = _counting_map(p, "moebius.recenter.map_evals",
                          lambda P: moebius_apply(tgt, P), lambda P: moebius_jacobian(tgt, P))
        with p.timed("moebius.recenter"):
            phi = recenter(u, g)
        self._jacobian_probe(phi)
        # restates the solver's stopping test (it raises SolverError short of
        # it), recomputed from the returned phi rather than taken on trust
        r = float(np.linalg.norm(g.weights @ moebius_apply(tgt, moebius_apply(phi, g.nodes))))
        return [] if r <= RECENTER_TOL else [f"recenter residual {r:.3e}"]

    def _scaled_fit(self):
        p, tgt = self.p, self.fit_target
        u3 = _counting_map(p, "moebius.nearest_moebius.map_evals",
                           lambda P: 3.0 * moebius_apply(tgt, P), lambda P: 3.0 * moebius_jacobian(tgt, P))
        with p.timed("moebius.nearest_moebius"):
            res = nearest_moebius(u3, self.g)
        self._jacobian_probe(res.phi)
        problems = []
        if not res.value <= FIT_VALUE_TOL:
            problems.append(f"fit value on 3*phi is {res.value:.3e}")
        if not abs(res.lam - 3.0) <= FIT_LAMBDA_TOL:
            problems.append(f"fit scale on 3*phi is {res.lam!r}")
        return problems


WORKLOADS = {"deficit-batch": DeficitBatch, "spectrum-cold": SpectrumCold, "moebius-fit": MoebiusFit}
