"""The invariant-check registry behind the verify command."""

from spherestab.config import Config
from spherestab.verify import ALL_CHECKS, run_checks


def test_names_are_unique():
    names = [n for n, _ in ALL_CHECKS]
    assert len(names) == len(set(names))


def test_subset_run_passes():
    cfg = Config()
    ok, results = run_checks(cfg, names=[
        "quadrature.exactness",
        "harmonics.orthonormal",
        "operator.spectrum",
        "forms.min_constant",
    ])
    assert ok
    assert len(results) == 4
    assert all(r["passed"] for r in results)


def test_impossible_tolerance_fails():
    cfg = Config().with_tolerance(1e-20)
    ok, results = run_checks(cfg, names=["quadrature.exactness"])
    assert not ok
    assert not results[0]["passed"]


def test_crashing_check_reports_failure():
    import spherestab.verify as V

    def boom(cfg):
        raise RuntimeError("synthetic")

    old = V.ALL_CHECKS
    V.ALL_CHECKS = [("synthetic.boom", boom)]
    try:
        ok, results = V.run_checks(Config())
        assert not ok
        assert "synthetic" in results[0]["detail"]
    finally:
        V.ALL_CHECKS = old


def test_solver_detail_prints_a_residual_only_when_it_fails(monkeypatch):
    # converged residuals are roundoff; the detail names their tolerances instead
    import numpy as np

    import spherestab.verify as V

    ok, results = run_checks(Config(), names=["moebius.solvers"])
    assert ok and results[0]["detail"] == "gauge residual <= 1e-07, recenter residual <= 1e-08"
    monkeypatch.setattr(V, "psi_functional", lambda u, g: np.full(8, 1e-3))
    ok, results = run_checks(Config(), names=["moebius.solvers"])
    assert not ok and results[0]["detail"] == "gauge residual 2.83e-03 > 1e-07, recenter residual <= 1e-08"


def test_spectrum_check_covers_n_3_4_and_5(monkeypatch):
    import spherestab.verify as V

    checked = []

    def recording(n, k):
        checked.append((n, k))
        return real(n, k)

    real = V.self_adjointness_residual
    monkeypatch.setattr(V, "self_adjointness_residual", recording)
    ok, results = run_checks(Config(), names=["operator.spectrum"])
    assert ok and results[0]["detail"] == "clusters, self-adjointness and kernel dims verified"
    assert checked == [(3, k) for k in range(1, 7)] + [(n, k) for n in (4, 5) for k in range(1, 5)]
