"""End-to-end checks of the command-line interface via subprocesses."""
import collections
import json
import math
import os
import subprocess
import sys

import pytest

import xythermo
from xythermo import cli, correlations, thermometry

CMD = [sys.executable, "-m", "xythermo.cli"]
# the subprocess imports the same package the tests do, installed or not
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(xythermo.__file__)))


def run_cli(*args, cwd=None):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT + (os.pathsep + path if path else ""))
    return subprocess.run(CMD + list(args), capture_output=True, text=True, cwd=cwd, env=env)


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    return header, rows


def test_dispersion_table_shape_and_flat_band():
    proc = run_cli("dispersion", "--gamma", "1", "--field", "0:1:2", "--sites", "6")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["gamma", "field_ratio", "momentum", "energy", "gap"]
    assert len(rows) == 2 * 6
    flat = [r for r in rows if r[1] == 0.0]
    assert all(r[3] == pytest.approx(2.0, abs=1e-14) for r in flat)
    critical = [r for r in rows if r[1] == 1.0]
    assert all(r[4] == 0.0 for r in critical)  # gap column vanishes at h/J = 1


def test_dispersion_gap_constant_within_block():
    proc = run_cli("dispersion", "--gamma", "0.5", "--field", "1.7", "--sites", "8")
    _, rows = parse_csv(proc.stdout)
    gaps = {r[4] for r in rows}
    assert len(gaps) == 1
    assert gaps.pop() == pytest.approx(2 * 0.7, abs=1e-12)


def test_byte_identical_across_runs(tmp_path):
    args = ("phase-diagram", "--gamma", "-1:1:3", "--field", "0:2:3",
            "--temp", "0.2:0.8:2", "--sites", "8")
    outs = []
    for run in ("first", "again"):
        path = tmp_path / f"{run}.csv"
        assert run_cli(*args, "--out", str(path)).returncode == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_tscan_point_builds_one_ensemble_and_one_kernel(monkeypatch, capsys):
    """Every column of a point reads one shared ensemble and kernel."""
    calls = collections.Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("xythermo")]
    for name, fn in (("ensemble", thermometry.ensemble), ("kernel", correlations.kernel)):
        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    code = cli.main(["tscan", "--gamma", "0.5", "--field", "0.8", "--temp", "0.4",
                     "--sites", "8", "--obs", "crb,varjx,meanjz"])
    assert code == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 1 and header[-3:] == ["snr_crb", "snr_varjx", "snr_meanjz"]
    assert calls == {"ensemble": 1, "kernel": 1}


def test_progress_and_wall_time_on_stderr_only(tmp_path):
    path = tmp_path / "pd.csv"
    proc = run_cli("phase-diagram", "--gamma", "1", "--field", "0:1:2",
                   "--temp", "0.3", "--sites", "6", "--out", str(path))
    assert proc.returncode == 0
    assert "wall time" in proc.stderr
    assert proc.stderr.count("phase-diagram: ") == 2
    assert "wall time" not in path.read_text()


def test_tscan_progress_on_stderr_only(tmp_path):
    args = ("tscan", "--gamma", "0.5", "--field", "0:1:2", "--temp", "0.2:0.8:3", "--sites", "6")
    proc = run_cli(*args)
    assert proc.returncode == 0
    assert [line for line in proc.stderr.splitlines() if line.startswith("tscan: ")] == [
        f"tscan: {i}/6" for i in range(1, 7)]
    # stdout carries the table alone, byte for byte what --out writes
    path = tmp_path / "scan.csv"
    assert run_cli(*args, "--out", str(path)).returncode == 0
    assert proc.stdout == path.read_text()
    assert len(parse_csv(proc.stdout)[1]) == 6


def test_json_document_structure():
    proc = run_cli("tscan", "--gamma", "0.5", "--field", "1.2", "--temp", "0.4",
                   "--sites", "6", "--format", "json", "--obs", "crb")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["metadata"]["command"] == "tscan"
    assert doc["metadata"]["config"]["sites"] == 6
    assert doc["metadata"]["config"]["obs"] == ["crb"]
    assert doc["columns"] == ["gamma", "field_ratio", "temperature",
                              "var_jx_shot_ratio", "mean_jz_per_sqrt_sites", "snr_crb"]
    assert len(doc["rows"]) == 1
    assert all(math.isfinite(v) for v in doc["rows"][0])


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    # the three axis forms: an axis string, a bare number and a JSON list
    cfg.write_text(json.dumps({"gamma": "0.5", "field": [1.0], "sites": 10, "obs": ["crb"],
                               "temp": 0.4}))
    proc = run_cli("phase-diagram", "--config", str(cfg), "--sites", "6")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["gamma", "field_ratio", "temperature", "snr_crb_per_site"]
    assert rows == [[0.5, 1.0, 0.4, rows[0][3]]]  # flag --sites overrode the file
    # the per-site value must correspond to sites=6, not 10
    from xythermo import thermometry
    from xythermo.spectrum import ChainSpec
    want = thermometry.snr_crb(thermometry.ensemble(
        ChainSpec(gamma=0.5, field_ratio=1.0, sites=6), 0.4)) / 6
    assert rows[0][3] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("args", [
    ("phase-diagram", "--sites", "7", "--temp", "0.3"),
    ("tscan", "--temp", "0:1:3"),
    ("tscan", "--temp", "0.1:1:3:cubic"),
    ("tscan", "--gamma", "0.1:0.9:1"),
    ("phase-diagram", "--temp", "0.3", "--resume"),          # resume needs --out file
    ("phase-diagram", "--temp", "-0.5:1:-2"),
    ("tscan", "--kappa", "-1"),
    ("dispersion", "--format", "yaml"),
])
def test_config_errors_exit_two(args):
    assert run_cli(*args).returncode == 2


def test_unreadable_config_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert run_cli("tscan", "--config", str(bad)).returncode == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"sitez": 8}))
    assert run_cli("tscan", "--config", str(unknown)).returncode == 2


def test_numerical_failure_exits_three():
    # fully saturated state: J_z noise variance underflows to zero
    proc = run_cli("tscan", "--gamma", "0", "--field", "1000", "--temp", "0.01",
                   "--sites", "8", "--obs", "meanjz")
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr


def test_resume_reproduces_full_output(tmp_path):
    args = ("phase-diagram", "--gamma", "0:1:3", "--field", "0:1.5:2",
            "--temp", "0.25:0.75:2", "--sites", "6")
    full = tmp_path / "full.csv"
    assert run_cli(*args, "--out", str(full)).returncode == 0
    want = full.read_bytes()

    partial = tmp_path / "partial.csv"
    lines = want.decode().splitlines(keepends=True)
    partial.write_text("".join(lines[:5]) + lines[5][: len(lines[5]) // 2])
    assert run_cli(*args, "--out", str(partial), "--resume").returncode == 0
    assert partial.read_bytes() == want

    # resume against a stale schema falls back to full recomputation
    stale = tmp_path / "stale.csv"
    stale.write_text("alpha,beta\n1,2\n")
    assert run_cli(*args, "--out", str(stale), "--resume").returncode == 0
    assert stale.read_bytes() == want


def test_tscan_snr_columns_vanish_at_extremes():
    proc = run_cli("tscan", "--gamma", "1", "--field", "0", "--sites", "8",
                   "--temp", "0.01:100:7:log", "--obs", "crb")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    col = header.index("snr_crb")
    values = [r[col] for r in rows]
    peak = max(values)
    assert values[0] < 1e-3 * peak and values[-1] < 1e-3 * peak


def test_validate_passes():
    proc = run_cli("validate")
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout
    assert "FAIL" not in proc.stdout
