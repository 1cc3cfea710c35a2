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


def _load_bench_pairs():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_pairs_extracts_both_sides_at_equal_path_length(tmp_path):
    # the extraction step only; the benchmark itself is not run
    bench = _load_bench_pairs()
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]

    def commit(text):
        (repo / "f.txt").write_text(text)
        subprocess.run(git + ["add", "f.txt"], cwd=repo, check=True, capture_output=True)
        subprocess.run(git + ["commit", "-qm", text], cwd=repo, check=True, capture_output=True)

    subprocess.run(git + ["init", "-q"], cwd=repo, check=True, capture_output=True)
    commit("old")
    commit("new")
    (repo / "f.txt").write_text("staged")
    subprocess.run(git + ["add", "f.txt"], cwd=repo, check=True, capture_output=True)
    parent, change = bench.resolve("HEAD~1", str(repo)), bench.resolve("INDEX", str(repo))
    dirs = bench.extract_pair(parent, change, str(tmp_path / "work"), str(repo))
    assert set(dirs) == {"parent", "change"}
    assert len(dirs["parent"]) == len(dirs["change"])
    assert open(os.path.join(dirs["parent"], "f.txt")).read() == "old"
    assert open(os.path.join(dirs["change"], "f.txt")).read() == "staged"
    # a second extraction replaces the checkouts rather than mixing them
    dirs = bench.extract_pair(bench.resolve("HEAD", str(repo)), change, str(tmp_path / "work"), str(repo))
    assert open(os.path.join(dirs["parent"], "f.txt")).read() == "new"
