"""The demos and the README's library example run against the package as it is,
and the README's layer timings are those of the newest BENCH file."""
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_readme_library_block_executes():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md (Library)", "exec"), {})


def _bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers",
                                                  ROOT / "tools" / "bench_layers.py")
    bench_layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_layers)
    return bench_layers


def test_readme_layer_timings_are_the_newest_bench_file():
    # one home for layer timings: the README's block between its markers is
    # tools/bench_layers.py's table of the newest BENCH_<n>.json, and no
    # module of the package quotes a BENCH file
    bench_layers = _bench_layers()
    newest = max(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("<!-- layer-timings -->\n")
    assert len(blocks) == 3
    assert blocks[1] == bench_layers.readme_table(
        json.loads(newest.read_text(encoding="utf-8")), newest.name)
    quoting = [path.name for path in (ROOT / "src" / "xythermo").glob("*.py")
               if "BENCH_" in path.read_text(encoding="utf-8")]
    assert quoting == []


def test_bench_layers_worker_times_one_row():
    # a worker process of tools/bench_layers.py times the one grid row it is
    # given, and reads the plan bytes from the window plan its calls built
    # (BENCH_34.json's at N = 50)
    bench_layers = _bench_layers()
    key = "fourth_moment_from_kernel N=50 (1, 0.5, 0.3) regular"
    row = [bench_layers._key(*entry) for entry in bench_layers.GRID].index(key)
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_layers.py"), "--worker",
                           str(ROOT / "src"), str(row)], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    for name in ("times", "refs", "halvings", "values", "faults"):
        assert list(out[name]) == [key], name
    assert out["plan_bytes"] == {"N=50": {"snapshot_store": 304952, "window_plan": 215296}}
