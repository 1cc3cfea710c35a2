"""The experiment scripts run end to end."""

import csv
import os
import subprocess
import sys

import spherestab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_optimality_rates_script_writes_four_csvs(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(spherestab.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "optimality_rates.py"), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for family in ("flip", "stretch", "homothety", "ellipsoid"):
        with open(tmp_path / f"rates_{family}.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sigma", "lhs", "delta", "epsilon", "E", "ratio", "energy", "slope"]
        assert len(rows) > 1
