"""Serialization round trips and the command-line surface."""

import json

import numpy as np
import pytest

from spherestab.cli import main
from spherestab.config import Config, load_config
from spherestab.io import (
    grid_from_dict,
    grid_to_dict,
    map_from_dict,
    map_to_dict,
    moebius_to_dict,
    save_json,
)
from spherestab.moebius import MoebiusMap, moebius_apply, random_moebius
from spherestab.quadrature import build_sphere_grid
from spherestab.spheremap import identity_map, linear_map, sampled_map


def test_grid_round_trip():
    g = build_sphere_grid(3, 8)
    g2 = grid_from_dict(grid_to_dict(g))
    assert g2.n == 3 and g2.exactness == g.exactness
    assert np.allclose(g2.nodes, g.nodes) and np.allclose(g2.weights, g.weights)


def test_poly_map_round_trip(sphere_points):
    u = linear_map(np.diag([1.0, 2.0, 3.0]))
    u2 = map_from_dict(map_to_dict(u))
    assert np.max(np.abs(u.eval(sphere_points) - u2.eval(sphere_points))) < 1e-15


def test_sampled_map_round_trip():
    g = build_sphere_grid(3, 6)
    u = identity_map(3)
    us = sampled_map(g, u.eval(g.nodes), u.at(g.nodes)[1]())
    d = map_to_dict(us)
    u2 = map_from_dict(d)
    assert u2.is_sampled
    X, U, J = u2.sample(u2.grid)
    assert np.allclose(U, g.nodes) and np.allclose(J, np.broadcast_to(np.eye(3), J.shape))


def test_moebius_dict_restates_the_map(rng, sphere_points):
    phi = random_moebius(rng)
    d = json.loads(json.dumps(moebius_to_dict(phi)))
    phi2 = MoebiusMap(d["n"], np.array(d["O"]), np.array(d["xi"]), d["lambda"])
    assert np.max(np.abs(moebius_apply(phi, sphere_points) - moebius_apply(phi2, sphere_points))) < 1e-14


def test_callable_map_refuses_serialization(rng):
    from spherestab.moebius import as_sphere_map

    with pytest.raises(TypeError):
        map_to_dict(as_sphere_map(random_moebius(rng)))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_spectrum_table(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n", "3", "--kmax", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:4] == ["k", "i", "sigma", "dim"]
    rows = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
    assert rows[("3", "3")][6] == "1/4"     # C_{3,3,3}
    assert rows[("1", "2")][6] == "0/1"     # kernel row
    # residual column stays tiny
    assert all(float(l.split(",")[-1]) < 1e-9 for l in lines[1:])


def test_cli_spectrum_n4(tmp_path):
    out = tmp_path / "spec4.csv"
    assert main(["spectrum", "--n", "4", "--kmax", "2", "--out", str(out)]) == 0
    rows = {tuple(l.split(",")[:2]): l.split(",") for l in out.read_text().splitlines()[1:]}
    assert rows[("2", "3")][6] == "0/1"     # C_{4,2,3} = 0


def test_cli_spectrum_n5(tmp_path):
    from spherestab.constants import constants

    out = tmp_path / "spec5.csv"
    assert main(["spectrum", "--n", "5", "--kmax", "6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rows = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
    assert len(rows) == 3 * 6 - 1            # H_{5,1,3} is trivial
    assert rows[("6", "3")][6] == str(constants(5, 6, 3)[2])
    assert all(float(l.split(",")[-1]) < 1e-9 for l in lines[1:])


def test_cli_rates_flip(tmp_path):
    out = tmp_path / "rates.csv"
    assert main(["rates", "--family", "flip", "--sigmas", "0.05:0.8:geometric:6",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[0] == "sigma"
    slope = float(lines[1].split(",")[-1])
    assert abs(slope - 3.0) < 0.05


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["rates", "--family", "stretch", "--sigmas", "0.004:0.04:geometric:5",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_spectrum_past_degree_ceiling(tmp_path, capsys):
    # n = 3, k = 29 is the first block whose float basis loses the spectrum
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n", "3", "--kmax", "29", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "(n, k) = (3, 29)" in err


@pytest.mark.parametrize("argv", [
    ["rates", "--family", "flip", "--seed", "7"],
    ["rates", "--family", "ellipsoid", "--tol", "1e-3"],
    ["stability", "--family", "homothety", "--seed", "1"],
    ["rates", "--family", "flip", "--resolution", "8"],
    ["stability", "--family", "stretch", "--sigmas", "0.01:0.1:geometric:3", "--resolution", "8"],
])
def test_cli_sweeps_refuse_unused_flags(argv, capsys):
    # no sweep reads --seed or --tol (argparse refuses them); the circle
    # families (flip, stretch) carry their own grids and refuse --resolution
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert all(flag in err for flag in argv if flag in ("--seed", "--tol", "--resolution"))


@pytest.mark.parametrize("flags, named", [
    (["--resolution", "8"], "--resolution"),
    (["--tol", "1e-3"], "--tol"),
    (["--resolution", "8", "--tol", "1e-3"], "--resolution, --tol"),
])
def test_cli_spectrum_refuses_unused_flags(flags, named, tmp_path, capsys):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n", "3", "--kmax", "3", "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("spherestab: error: unrecognized arguments: ")
    assert all(flag in err for flag in named.split(", "))
    assert not out.exists()
    # the seed is read: it picks the eigenfield draws
    assert main(["spectrum", "--n", "3", "--kmax", "3", "--seed", "7", "--out", str(out)]) == 0


def test_cli_sweep_resolution_takes_effect(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["rates", "--family", "ellipsoid", "--sigmas", "0.1:0.2:geometric:2"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--resolution", "8", "--out", str(b)]) == 0
    assert a.read_text().splitlines()[0] == b.read_text().splitlines()[0]
    assert a.read_bytes() != b.read_bytes()


def test_cli_deficits_identity(tmp_path):
    from spherestab.io import map_to_dict

    mp = tmp_path / "id.json"
    save_json(map_to_dict(identity_map(3)), str(mp))
    out = tmp_path / "rep.json"
    assert main(["deficits", "--map", str(mp), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert abs(rep["volume"] - 1.0) < 1e-12
    assert rep["delta"] < 1e-12 and rep["epsilon"] < 1e-12
    assert rep["degree_estimate"] == 1


def test_cli_fit_moebius(tmp_path):
    mp = tmp_path / "ell.json"
    save_json(map_to_dict(linear_map(np.diag([1.0, 1.0, 1.1]))), str(mp))
    out = tmp_path / "fit.json"
    assert main(["fit-moebius", "--map", str(mp), "--out", str(out)]) == 0
    fit = json.loads(out.read_text())
    assert fit["ratio"] < 100
    assert fit["value"] >= 0
    assert fit["converged"] is True and fit["nfev"] > 0
    # the diagonal ellipsoid is symmetric about v = 0: one evaluation, no step
    assert fit["iterations"] == 0 and 0 <= fit["grad_norm"] <= 1e-9


def test_cli_fit_moebius_survives_boosts_past_float_range(tmp_path):
    # from v = 0 a Newton step of the recentring start lands past |v| = 710,
    # where sinh overflows; the step counts as outside the domain
    A = np.array([[0.518, 0.599, 0.04], [-0.292, 0.218, -0.257], [0.008, -0.276, 2.294]])
    b = np.array([1.51, -4.067, -2.834])
    comps = [{"n": 3, "terms": [{"exponents": [0, 0, 0], "coeff": b[i]}]
              + [{"exponents": [int(j == l) for j in range(3)], "coeff": A[i, l]} for l in range(3)]}
             for i in range(3)]
    mp = tmp_path / "affine.json"
    save_json({"n": 3, "m": 3, "backing": "poly", "components": comps}, str(mp))
    out = tmp_path / "fit.json"
    assert main(["fit-moebius", "--map", str(mp), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["converged"] is True


_FIT_PATH_SCRIPT = """
import json, sys
from spherestab.cli import main
from spherestab.families import stability_sweep
stability_sweep("ellipsoid", [0.1], theorem="conformal")
assert main(["fit-moebius", "--map", sys.argv[1], "--out", sys.argv[2]]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy.optimize"))))
"""


def test_fit_path_does_not_import_scipy_optimize(tmp_path):
    # importing scipy.optimize costs a process about 0.2 s and 20 MB; the
    # nearest-Moebius fit must not need it
    import os
    import subprocess
    import sys

    import spherestab

    mp = tmp_path / "map.json"
    save_json(map_to_dict(linear_map(np.array([[1.0, 0.1, 0.0], [0.0, 1.1, 0.05], [0.02, 0.0, 0.95]]))),
              str(mp))
    src = os.path.dirname(os.path.dirname(os.path.abspath(spherestab.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FIT_PATH_SCRIPT, str(mp), str(tmp_path / "fit.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
    assert json.loads((tmp_path / "fit.json").read_text())["converged"] is True


_NO_SCIPY_SCRIPT = """
import importlib, json, pkgutil, sys
import spherestab
from spherestab.cli import main
for mod in pkgutil.iter_modules(spherestab.__path__):
    importlib.import_module("spherestab." + mod.name)
spherestab.quadrature.default_sphere_grid(4)
assert main(["spectrum", "--n", "4", "--kmax", "2", "--out", sys.argv[1]]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_package_does_not_import_scipy(tmp_path):
    # NumPy is the only runtime dependency: importing scipy.special alone
    # costs a cold process about 0.3 s
    import os
    import subprocess
    import sys

    import spherestab

    src = os.path.dirname(os.path.dirname(os.path.abspath(spherestab.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "spec.csv"
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
    assert out.read_text().count("\n") > 1


def test_cli_bad_inputs(tmp_path, capsys):
    assert main(["rates", "--family", "flip", "--sigmas", "nonsense"]) == 2
    # sigmas outside the family's domain, and a theorem the family cannot take
    assert main(["rates", "--family", "stretch"]) == 2
    assert main(["stability", "--family", "stretch"]) == 2
    assert main(["stability", "--family", "flip", "--theorem", "conformal"]) == 2
    assert main(["deficits", "--map", str(tmp_path / "missing.json")]) == 2
    # a sampled map without gradient data cannot be made (nor read from a file:
    # test_cli_refuses_map_files_of_the_wrong_json_type)
    g = build_sphere_grid(3, 6)
    with pytest.raises(ValueError, match="^map has no gradient data$"):
        sampled_map(g, g.nodes.copy(), None)
    # degenerate volume cannot be Moebius-fitted
    flat = tmp_path / "flat.json"
    save_json(map_to_dict(linear_map(np.diag([1.0, 1.0, 0.0]))), str(flat))
    assert main(["fit-moebius", "--map", str(flat)]) == 2
    # a poly map without components is no map into R^3
    empty = tmp_path / "empty.json"
    save_json({"n": 3, "m": 0, "backing": "poly", "components": []}, str(empty))
    assert main(["deficits", "--map", str(empty)]) == 2
    assert main(["fit-moebius", "--map", str(empty)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad), "--only"]) == 2
    capsys.readouterr()
    assert main(["bogus-command"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'bogus-command'" in err


@pytest.mark.parametrize("command, flags", [
    ("verify", {"--tol", "--seed"}),
    ("spectrum", {"--seed"}),
    ("rates", {"--resolution"}),
    ("stability", {"--resolution"}),
    ("fit-moebius", {"--resolution"}),
    ("deficits", {"--resolution"}),
])
def test_cli_help_lists_only_the_flags_each_command_reads(command, flags, capsys):
    assert main([command, "--help"]) == 0
    listed = set(capsys.readouterr().out.split())
    assert {"--config", "--out"} <= listed
    assert listed & {"--tol", "--seed", "--resolution"} == flags


@pytest.mark.parametrize("argv", [
    ["spectrum", "--kmax", "0"],
    ["spectrum", "--kmax", "-2"],
    ["rates", "--family", "flip", "--sigmas", "0.1:0.2:geometric:0"],
    ["stability", "--family", "homothety", "--sigmas", "0.1:0.2:geometric:0"],
])
def test_cli_refuses_empty_tables(argv, tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "at least 1" in captured.err
    assert not out.exists()


def _linear_components(n: int, width: int, entries: int) -> list[dict]:
    """Components x_i, i < width, written with exponents of the given length."""
    return [{"n": n, "terms": [{"exponents": [int(j == i) for j in range(entries)], "coeff": 1.0}]}
            for i in range(width)]


def _sampled_doc(**fields) -> dict:
    """The identity of S^2 sampled at the two poles of x_0, with the given top-level fields."""
    nodes = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
    return {"backing": "sampled", **fields, "values": nodes, "jacobians": [np.eye(3).tolist()] * 2,
            "grid": {"n": 3, "nodes": nodes, "weights": [0.5, 0.5], "exactness": 1}}


def _sampled_grid_doc(**grid) -> dict:
    """:func:`_sampled_doc` with the given fields of its grid."""
    doc = _sampled_doc()
    return {**doc, "grid": {**doc["grid"], **grid}}


@pytest.mark.parametrize("case, named", [
    ({"n": 3, "m": 2, "components": _linear_components(3, 3, 3)}, "3 components, but m = 2"),
    ({"n": 3, "m": 3, "components": _linear_components(2, 3, 2)}, "component 0 has n = 2, but the map has n = 3"),
    ({"n": 3, "m": 3, "components": _linear_components(3, 3, 2)}, "exponent [1, 0] is not 3 nonnegative integers"),
])
def test_cli_refuses_poly_maps_whose_n_or_m_disagree(case, named, tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"backing": "poly", **case}))
    assert main(["deficits", "--map", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("cannot read map: ") and named in err


def test_cli_partial_config(tmp_path, capsys):
    # a partial resolutions table merges with the defaults
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolutions": {"3": 40}}))
    loaded = load_config(str(cfg))
    assert loaded.resolutions == {**Config().resolutions, 3: 40}
    m4 = tmp_path / "m4.json"
    save_json(map_to_dict(identity_map(4)), str(m4))
    assert main(["deficits", "--config", str(cfg), "--map", str(m4)]) == 0
    # a dimension with no resolution at all is an input error
    m5 = tmp_path / "m5.json"
    save_json(map_to_dict(linear_map(np.eye(5))), str(m5))
    capsys.readouterr()
    assert main(["deficits", "--config", str(cfg), "--map", str(m5)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n = 5" in err
    # malformed tables are input errors, not silently ignored or truncated
    for bad, named in (([40], "config must be a JSON object"),
                       ({"resolutions": [40]}, "resolutions must be an object keyed by dimension"),
                       ({"resolutions": {"3": 24.9}}, "resolution for n = 3 must be an integer, not 24.9"),
                       ({"resolutions": {"4": True}}, "resolution for n = 4 must be an integer, not True"),
                       ({"resolutions": {"3.0": 24}}, "resolutions keys must be integer dimensions, not '3.0'"),
                       ({"resolutions": {" 3": 24}}, "resolutions keys must be integer dimensions, not ' 3'")):
        cfg.write_text(json.dumps(bad))
        assert main(["deficits", "--config", str(cfg), "--map", str(m4)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {named}\n"


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolutions": {"3": 40}, "kmax": {"4": 5}}))
    with pytest.raises(ValueError, match="kmax"):
        load_config(str(cfg))
    assert not hasattr(Config(), "kmax")
    mp = tmp_path / "id.json"
    save_json(map_to_dict(identity_map(3)), str(mp))
    capsys.readouterr()
    assert main(["deficits", "--config", str(cfg), "--map", str(mp)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "kmax" in err


@pytest.mark.parametrize("command", ["deficits", "fit-moebius"])
@pytest.mark.parametrize("flags, named", [
    (["--seed", "3"], "--seed"),
    (["--tol", "1e-2"], "--tol"),
    (["--seed", "3", "--tol", "1e-2"], "--seed, --tol"),
])
def test_cli_map_commands_refuse_unused_flags(command, flags, named, tmp_path, capsys):
    mp = tmp_path / "ell.json"
    save_json(map_to_dict(linear_map(np.diag([1.0, 1.0, 1.1]))), str(mp))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main([command, "--map", str(mp), "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("spherestab: error: unrecognized arguments: ")
    assert all(flag in err for flag in named.split(", "))
    assert not out.exists()


def test_cli_deficits_resolution_applies_to_the_map_dimension(tmp_path):
    from dataclasses import asdict

    from spherestab.deficits import deficit_report
    from spherestab.io import load_json
    from spherestab.operator import random_h_field
    from spherestab.quadrature import sphere_grid

    w = random_h_field(4, 3, np.random.default_rng(5))
    mp = tmp_path / "m4.json"
    save_json(map_to_dict(identity_map(4) + w.scale(0.1)), str(mp))
    u = map_from_dict(load_json(str(mp)))
    reports = {}
    for res in (None, 6):
        out = tmp_path / f"rep{res}.json"
        flags = [] if res is None else ["--resolution", str(res)]
        assert main(["deficits", "--map", str(mp), "--out", str(out)] + flags) == 0
        reports[res] = json.loads(out.read_text())
    assert reports[6] == json.loads(json.dumps(asdict(deficit_report(u, sphere_grid(4, 6)))))
    assert reports[6]["perimeter"] != reports[None]["perimeter"]


@pytest.mark.parametrize("command", ["deficits", "fit-moebius"])
def test_cli_map_commands_refuse_resolution_for_sampled_maps(command, tmp_path, capsys):
    from spherestab.moebius import as_sphere_map

    g = build_sphere_grid(3, 12)
    phi = as_sphere_map(random_moebius(np.random.default_rng(3), lam_range=(0.8, 1.2)))
    mp = tmp_path / "sampled.json"
    save_json(map_to_dict(sampled_map(g, phi.eval(g.nodes), phi.at(g.nodes)[1]())), str(mp))
    assert main([command, "--map", str(mp)]) == 0
    capsys.readouterr()
    assert main([command, "--map", str(mp), "--resolution", "20"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--resolution" in err


def test_cli_stability_sweep(tmp_path):
    out = tmp_path / "stab.csv"
    assert main(["stability", "--family", "homothety", "--theorem", "isometric",
                 "--sigmas", "0.1:0.5:geometric:4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sigma,lhs,delta,epsilon,E,ratio"
    assert len(lines) == 5
    ratios = [float(l.split(",")[5]) for l in lines[1:]]
    assert max(ratios) < 100


def test_cli_verify_unknown_check():
    assert main(["verify", "--only", "no.such.check"]) == 2


def test_cli_verify_subset_and_tolerance(tmp_path):
    rep = tmp_path / "report.json"
    rc = main(["verify", "--only", "quadrature.exactness", "quadrature.linearity",
               "--out", str(rep)])
    assert rc == 0
    data = json.loads(rep.read_text())
    assert data["passed"] and len(data["checks"]) == 2
    # an impossible tolerance must fail with exit code 1
    rc = main(["verify", "--tol", "1e-20", "--only", "quadrature.exactness"])
    assert rc == 1


def test_cli_verify_refuses_resolution(tmp_path, capsys):
    # verify runs grids of n = 2, 3 and 4; the resolutions table of --config
    # sets each of them, a single --resolution cannot
    rep = tmp_path / "report.json"
    assert main(["verify", "--resolution", "8", "--only", "quadrature.exactness", "--out", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err == "spherestab: error: unrecognized arguments: --resolution 8\n"
    assert not rep.exists()
    assert main(["verify", "--help"]) == 0
    assert "resolutions table sets the grid of each dimension" in " ".join(capsys.readouterr().out.split())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolutions": {"3": 8}}))
    assert main(["verify", "--config", str(cfg), "--only", "quadrature.exactness", "--out", str(rep)]) == 0


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["spectrum"],
    ["rates", "--family", "flip"],
    ["stability", "--family", "flip"],
    ["fit-moebius", "--map", "MAP"],
    ["deficits", "--map", "MAP"],
])
@pytest.mark.parametrize("target, reason", [
    ("missing/out.txt", "No such file or directory"),
    (".", "Is a directory"),
])
def test_cli_refuses_an_out_path_it_cannot_write_before_the_work(argv, target, reason, tmp_path, capsys,
                                                                 monkeypatch):
    import spherestab.verify

    mp = tmp_path / "ell.json"
    save_json(map_to_dict(linear_map(np.diag([1.0, 1.0, 1.1]))), str(mp))
    monkeypatch.setattr(spherestab.verify, "run_checks", lambda *a, **k: pytest.fail("verify ran its checks"))
    out = tmp_path / target
    capsys.readouterr()
    assert main([str(mp) if a == "MAP" else a for a in argv] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"cannot write {out}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ell.json"]


def test_cli_out_check_keeps_an_existing_file(tmp_path):
    # the check opens the target without truncating it; a later input error leaves it as it was
    old = tmp_path / "old.csv"
    old.write_text("kept\n")
    assert main(["spectrum", "--kmax", "0", "--out", str(old)]) == 2
    assert old.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--only", "quadrature.exactness"],
    ["spectrum", "--kmax", "1"],
])
def test_cli_refuses_a_seed_that_is_not_a_nonnegative_integer(argv, tmp_path, capsys):
    # the flag takes integers only (argparse refuses the rest); a config file may hold any JSON value
    cfg = tmp_path / "cfg.json"
    for flags, seed in ((["--seed", "-3"], None), (["--config", str(cfg)], -1),
                        (["--config", str(cfg)], 1.5), (["--config", str(cfg)], "3")):
        cfg.write_text(json.dumps({"seed": seed}))
        assert main(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error: seed must be a nonnegative integer, not ")
    with pytest.raises(ValueError, match="seed"):
        Config(seed=-1)
    assert Config(seed=0).seed == 0


@pytest.mark.parametrize("command", ["deficits", "fit-moebius"])
@pytest.mark.parametrize("doc, named", [
    ([], "a map must be an object, not an array"),
    ({"backing": "poly", "n": 3, "components": 5}, "components must be an array, not a number"),
    ({"backing": "poly", "n": 3, "components": [[1.0]]}, "component 0 must be an object, not an array"),
    ({"backing": "poly", "n": 3, "components": [{"terms": {}}]}, "component 0: terms must be an array, not an object"),
    ({"backing": "poly", "n": 3, "components": [{"n": 3}]}, "missing key 'terms'"),
    ({"backing": "sampled", "grid": 3}, "grid must be an object, not a number"),
    # integers are refused as any other number, not truncated
    ({"backing": "poly", "n": 3.7, "components": _linear_components(3, 3, 3)}, "n must be an integer, not 3.7"),
    ({"backing": "poly", "n": 3, "m": 3.0, "components": _linear_components(3, 3, 3)},
     "m must be an integer, not 3.0"),
    ({"backing": "poly", "n": 3, "components": [{"n": True, "terms": []}]},
     "component 0: n must be an integer, not True"),
    ({"backing": "sampled", "grid": {"n": 3.5, "nodes": [], "weights": [], "exactness": 3}},
     "grid: n must be an integer, not 3.5"),
    ({"backing": "sampled", "grid": {"n": 3, "nodes": [], "weights": [], "exactness": 5.5}},
     "grid: exactness must be an integer, not 5.5"),
    # a sampled map's n and m must restate its grid and values
    (_sampled_doc(n=7.5), "n must be an integer, not 7.5"),
    (_sampled_doc(n=4), "sampled map has n = 4, but the grid has n 3"),
    (_sampled_doc(m=2), "sampled map has m = 2, but values have width 3"),
    (_sampled_doc(m="x"), "m must be an integer, not 'x'"),
    ({**_sampled_doc(), "values": [1.0, 2.0]}, "values must be a nodes x m array, not of shape (2,)"),
    # and their rows and Jacobians must fit the grid's nodes
    ({**_sampled_doc(), "values": [[1.0, 0.0, 0.0]]}, "values must have one row per grid node (2), not 1"),
    ({**_sampled_doc(), "values": [[1.0, 0.0, 0.0]], "jacobians": [np.eye(3).tolist()]},
     "values must have one row per grid node (2), not 1"),
    ({**_sampled_doc(), "jacobians": [[1.0, 2.0]]},
     "jacobians must have shape (2, 3, 3) for the grid's 2 nodes, not (1, 2)"),
    ({**_sampled_doc(), "jacobians": [np.eye(3).tolist()]},
     "jacobians must have shape (2, 3, 3) for the grid's 2 nodes, not (1, 3, 3)"),
    # every deficit needs the gradient: a sampled map without Jacobians is refused
    ({k: v for k, v in _sampled_doc().items() if k != "jacobians"}, "map has no gradient data"),
    ({**_sampled_doc(), "jacobians": None}, "map has no gradient data"),
    # the grid must be a quadrature rule on the sphere
    (_sampled_grid_doc(domain="ball"), "grid: domain must be 'sphere', not 'ball'"),
    (_sampled_grid_doc(nodes=[[2.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), "grid: node 0 has norm 2.0, not 1 to within 1e-12"),
    (_sampled_grid_doc(weights=[2.0, -1.0]), "grid: weight 1 is -1.0, not nonnegative"),
    (_sampled_grid_doc(weights=[0.5, 0.6]), "grid: weights sum to 1.1, not 1 to within 1e-10"),
    # and every number finite
    ({**_sampled_doc(), "values": [[float("nan"), 0.0, 0.0], [-1.0, 0.0, 0.0]]}, "values must be finite, not nan at [0, 0]"),
    ({"backing": "poly", "n": 3, "components": [{"terms": [{"exponents": [1, 0, 0], "coeff": float("inf")}]}]},
     "component 0: coefficient of [1, 0, 0] must be finite, not inf"),
])
def test_cli_refuses_map_files_of_the_wrong_json_type(command, doc, named, tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--map", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"cannot read map: {named}\n"
