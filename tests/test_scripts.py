"""The experiment scripts run end to end."""

import csv
import json
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


def _load_script(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "scripts", f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod          # as an import would; dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


def test_bench_pairs_extracts_both_sides_at_equal_path_length(tmp_path):
    # the extraction step only; the benchmark itself is not run
    bench = _load_script("bench_pairs")
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


def test_bench_pairs_counts_the_minor_faults_of_a_run_per_item(tmp_path):
    # a stand-in run.py that touches --seed MB of fresh memory over 4 items
    bench = _load_script("bench_pairs")
    os.makedirs(tmp_path / "perfbench")
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "mb = int(sys.argv[sys.argv.index('--seed') + 1])\n"
        "block = b'x' * (mb << 20)\n"
        "print(json.dumps({'attempted': 4, 'metrics': {'run_s': {'value': 0.5, 'unit': 's'}}}))\n")
    faults = {}
    for mb in (0, 16):
        result, faults[mb] = bench.run_once(str(tmp_path), "w", mb, 1, 0)
        assert result == {"attempted": 4, "metrics": {"run_s": {"value": 0.5, "unit": "s"}}}
    assert faults[0] > 0
    assert faults[16] - faults[0] >= 0.9 * (16 << 20) / 4096 / 4     # 16 MB of 4 KiB pages over 4 items


def test_bench_pairs_summary_covers_the_faults_per_item():
    bench = _load_script("bench_pairs")

    def run(side, pair, run_s, faults):
        metrics = {m: {"value": run_s if m == "run_s" else 1.0, "unit": "s"} for m in bench.METRICS}
        return {"side": side, "workload": "w", "seed": 1, "pair": pair, bench.FAULTS: faults,
                "result": {"metrics": metrics}}

    runs = [run("parent", 1, 0.10, 900.0), run("change", 1, 0.08, 100.0),
            run("change", 2, 0.07, 120.0), run("parent", 2, 0.11, 1000.0),
            run("parent", 3, 0.12, 800.0), run("change", 3, 0.13, 90.0)]
    summary = bench.summarize(runs)["w:1"]
    assert set(summary) == {*bench.METRICS, bench.FAULTS}
    f = summary[bench.FAULTS]
    assert (f["parent_median"], f["change_median"], f["change_won"], f["pairs"]) == (900.0, 100.0, 3, 3)
    assert f["parent_iqr"] == 200.0
    assert (summary["run_s"]["parent_median"], summary["run_s"]["change_won"]) == (0.11, 2)


def test_bench_pairs_measures_a_whole_command_as_its_own_child(tmp_path):
    # a stand-in CLI whose command `touch MB CODE` fills MB of fresh memory and exits CODE
    bench = _load_script("bench_pairs")
    pkg = tmp_path / "src" / "spherestab"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        "def main(argv):\n"
        "    block = b'x' * (int(argv[1]) << 20)\n"
        "    return int(argv[2])\n")
    runs = {mb: bench.run_command(str(tmp_path), f"touch {mb} 0") for mb in (0, 64)}
    assert runs[0]["exit_code"] == runs[64]["exit_code"] == 0
    assert runs[0]["wall_s"] > 0 and runs[0]["minflt"] > 0
    # the child's own rusage: neither this process's heap (pytest's, NumPy loaded) nor
    # earlier children count
    assert runs[0]["peak_rss_mb"] < 32
    assert runs[64]["peak_rss_mb"] - runs[0]["peak_rss_mb"] >= 0.9 * 64
    assert runs[64]["minflt"] - runs[0]["minflt"] >= 0.9 * (64 << 20) / 4096
    failed = bench.run_command(str(tmp_path), "touch 0 2")
    assert failed["exit_code"] == 2 and failed["peak_rss_mb"] < 32
    assert bench.run_command(str(tmp_path), "touch x 0")["stderr_tail"].rstrip().endswith(
        "ValueError: invalid literal for int() with base 10: 'x'")

    def run(side, pair, wall, code):
        return {"side": side, "command": "touch", "pair": pair, "wall_s": wall, "peak_rss_mb": 30.0,
                "minflt": 1000, "exit_code": code}

    summary = bench.summarize_commands([run("parent", 1, 0.5, 0), run("change", 1, 0.4, 0),
                                        run("change", 2, 0.3, 2), run("parent", 2, 0.6, 0)])["touch"]
    assert set(summary) == {*bench.COMMAND_METRICS, "exit_codes"}
    assert (summary["wall_s"]["change_won"], summary["peak_rss_mb"]["change_won"]) == (2, 0)
    assert summary["wall_s"]["parent_median"] == 0.55 and summary["wall_s"]["pairs"] == 2
    assert summary["exit_codes"] == {"parent": [0], "change": [0, 2]}


def test_bench_pairs_times_the_tier1_suite_as_one_command(tmp_path):
    # a stand-in suite in the tree's tests/: one test that fills 64 MB, one that fails
    bench = _load_script("bench_pairs")
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_standin.py").write_text(
        "import os\n\n"
        "def test_fills_memory():\n"
        "    assert os.environ['PYTHONPATH'] == os.path.join(os.getcwd(), 'src')\n"
        "    block = b'x' * (64 << 20)\n\n"
        "def test_fails():\n"
        "    assert False\n")
    run = bench.run_command(str(tmp_path), bench.PYTEST)
    assert run["exit_code"] == 1, run["stderr_tail"]     # pytest's code for a failed test
    assert run["wall_s"] > 0 and run["peak_rss_mb"] >= 64
    assert run["minflt"] >= 0.9 * (64 << 20) / 4096


def test_bench_pairs_draws_the_seeded_maps_for_whole_commands(tmp_path):
    # the map files of output_diff.py, drawn with a tree's code, and {maps} in a
    # command line standing for their directory
    bench = _load_script("bench_pairs")
    checkout = tmp_path / "tree"
    checkout.mkdir()
    os.symlink(os.path.dirname(os.path.dirname(os.path.abspath(spherestab.__file__))), checkout / "src")
    maps = bench.draw_maps(str(checkout), str(tmp_path / "maps"), 1)
    names = sorted(f"{name}.json" for name in [m[0] for m in bench.MAPS] + [bench.REPEATED, bench.SAMPLED])
    assert sorted(os.listdir(maps)) == names
    again = bench.draw_maps(str(checkout), str(tmp_path / "again"), 1)
    for name in names:      # the same seed draws the same files
        with open(os.path.join(maps, name), "rb") as a, open(os.path.join(again, name), "rb") as b:
            assert a.read() == b.read(), name
    out = tmp_path / "report.json"
    command = f"deficits --map {bench.MAPS_FIELD}/map_n4.json --out {out}"
    run = bench.run_command(str(checkout), command.replace(bench.MAPS_FIELD, maps))
    assert run["exit_code"] == 0, run["stderr_tail"]
    with open(out) as fh:
        assert json.load(fh)["n"] == 4


def test_output_diff_reports_the_largest_move_per_column_and_line():
    # the comparison only; no command is run
    diff = _load_script("output_diff")
    moves = diff.compare_csv("k,x,c\n1,0.5,1/4\n2,1e-16,1/2\n3,4.0,-1\n",
                             "k,x,c\n1,0.5,1/4\n2,3e-16,1/2\n3,4.5,-1\n")
    assert moves["k"].identical and moves["c"].identical and moves["c"].count == 5
    x = moves["x"]
    assert (x.moved, x.count) == (2, 3)
    assert x.max_abs == 0.5 and abs(x.max_rel - 2.0 / 3.0) < 1e-12
    assert str(x) == "2/3 moved, max |d| 5.000e-01, max rel 6.667e-01"
    assert diff.compare_csv("k\n1\n", "k\n1\n2\n")["rows"].mismatch == "1 rows -> 2 rows"

    def report(resid, status, seconds):
        return {"passed": True, "checks": [
            {"name": "a.resid", "passed": True, "detail": f"worst residual {resid} at n=3", "seconds": seconds},
            {"name": "b.status", "passed": True, "detail": status, "seconds": seconds}]}

    moves = diff.compare_json(report("1.000e-16", "solver ok", 0.1), report("1.500e-16", "solver stalled", 2.0))
    assert not any("seconds" in key for key in moves)
    resid = moves["checks[a.resid].detail"]
    assert (resid.moved, resid.count) == (1, 2) and resid.max_abs == 5e-17
    assert moves["checks[b.status].detail"].mismatch == "'solver ok' -> 'solver stalled'"
    assert moves["passed"].identical and moves["checks[a.resid].passed"].identical
    moves = diff.compare_json({"E": 1.0, "phi": {"lambda": 2.0}}, {"E": 1.0, "nfev": 3})
    assert moves["E"].identical
    assert moves["phi.lambda"].mismatch == "only in the parent" and moves["nfev"].mismatch == "only in the change"
