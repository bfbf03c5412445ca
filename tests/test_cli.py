"""End-to-end checks of the command-line interface via subprocesses."""
import collections
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import xythermo
from xythermo import cli, correlations, thermometry

CMD = [sys.executable, "-m", "xythermo.cli"]
# the subprocess imports the same package the tests do, installed or not
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(xythermo.__file__)))


def subprocess_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=PACKAGE_ROOT + (os.pathsep + path if path else ""))


def run_cli(*args, cwd=None):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, cwd=cwd,
                          env=subprocess_env())


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


def test_negative_values_parse_in_the_space_form():
    # '--field -0.5' would otherwise reach argparse as an unknown flag '-0.5'
    spaced = run_cli("dispersion", "--gamma", "-1:1:3", "--field", "-0.5", "--sites", "6")
    joined = run_cli("dispersion", "--gamma=-1:1:3", "--field=-0.5", "--sites", "6")
    assert spaced.returncode == joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout
    assert {row[:2] for row in map(tuple, parse_csv(spaced.stdout)[1])} == {
        (-1.0, -0.5), (0.0, -0.5), (1.0, -0.5)}


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


def test_meanjz_phase_diagram_builds_no_kernel(monkeypatch, capsys):
    """The J_z readout and the ceiling are mode sums: no kernel, at any point."""
    built = []
    init = correlations.CorrelationKernel.__init__
    monkeypatch.setattr(correlations.CorrelationKernel, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    for modulation in correlations.MODULATIONS:
        code = cli.main(["phase-diagram", "--gamma", "-1:1:3", "--field", "0:2:3",
                         "--temp", "0.05:1:2", "--sites", "10", "--obs", "crb,meanjz",
                         "--modulation", modulation])
        assert code == 0
        assert len(parse_csv(capsys.readouterr().out)[1]) == 18
    assert built == []


def _run_listing_scipy(argv):
    # one in-process CLI run in a fresh interpreter; prints its exit code and
    # whether scipy.linalg is loaded, then a line with every scipy module loaded
    script = ("import sys\n"
              "from xythermo import cli\n"
              f"code = cli.main({argv!r} + ['--out', sys.argv[1]])\n"
              "print(code, 'scipy.linalg' in sys.modules)\n"
              "print(*[m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    return subprocess.run([sys.executable, "-c", script, os.devnull],
                          capture_output=True, text=True, env=subprocess_env())


def test_meanjz_phase_diagram_leaves_scipy_linalg_unimported():
    proc = _run_listing_scipy(["phase-diagram", "--gamma", "0:1:2", "--field", "0:2:2",
                               "--sites", "8", "--obs", "crb,meanjz"])
    assert proc.stdout.split() == ["0", "False"], proc.stderr
    assert proc.stdout.splitlines()[1:] == [""], proc.stdout  # no scipy module at all


def test_varjx_tscan_imports_no_scipy():
    # the pair minors' QR comes from numpy's LAPACK and the occupations from
    # libm's exp, so a run with every readout loads no scipy module either
    proc = _run_listing_scipy(["tscan", "--gamma", "0.5", "--field", "0.8",
                               "--temp", "0.1:2:3:log", "--sites", "12",
                               "--obs", "crb,varjx,meanjz"])
    assert proc.stdout.split() == ["0", "False"], proc.stderr
    assert proc.stdout.splitlines()[1:] == [""], proc.stdout


def test_cold_xx_line_is_delivered_below_the_ceiling():
    # in the polarized XX chain at T = 0.05, Var(J_z) ~ 1e-15 is far below
    # roundoff of <J_z>^2 ~ N^2, yet every point must be delivered
    proc = run_cli("phase-diagram", "--gamma", "0", "--field", "1.8:2:5", "--temp", "0.05",
                   "--sites", "50", "--obs", "crb,meanjz", "--modulation", "half")
    assert proc.returncode == 0, proc.stderr
    header, rows = parse_csv(proc.stdout)
    assert header[3:] == ["snr_crb_per_site", "snr_meanjz_per_site"] and len(rows) == 5
    for _, _, _, crb, meanjz in rows:
        assert 0.0 < meanjz <= crb * (1 + 1e-3)


def test_closed_output_pipe_exits_1_without_a_traceback():
    # the reader takes the header and closes the pipe: the sweep stops at
    # the first row it cannot write, quietly, with exit code 1
    proc = subprocess.Popen(CMD + ["tscan", "--gamma", "1", "--field", "0.5",
                                   "--temp", "0.05:5:200:log", "--sites", "50",
                                   "--obs", "crb,varjx,meanjz"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=subprocess_env())
    assert proc.stdout.readline().startswith("gamma,field_ratio,temperature,")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1, stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr
    assert "tscan: 200/200" not in stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_table_write_exits_1_with_one_line():
    # --out on a full device, as CSV and as a JSON document written at the
    # end, and stdout redirected to one
    for args, out in ((("tscan", "--temp", "0.3", "--out", "/dev/full"), "/dev/full"),
                      (("dispersion", "--format", "json", "--out", "/dev/full"), "/dev/full"),
                      (("tscan", "--temp", "0.3"), "stdout")):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(CMD + list(args) + ["--sites", "4"], stdout=full,
                                  stderr=subprocess.PIPE, text=True, env=subprocess_env())
        assert proc.returncode == 1, (args, proc.stderr)
        assert proc.stderr.splitlines() == [
            f"error: cannot write {out}: [Errno 28] No space left on device"], args


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_out_write_leaves_the_callers_stdout_alone(capsys):
    # in-process, a failed --out ends main with 1 and leaves sys.stdout,
    # which it did not write, as it was (capsys's stand-in has no fileno)
    assert cli.main(["tscan", "--temp", "0.3", "--sites", "4", "--out", "/dev/full"]) == 1
    print("still here")
    captured = capsys.readouterr()
    assert captured.out == "still here\n"
    assert captured.err.startswith("error: cannot write /dev/full: ")


@pytest.mark.parametrize("stderr", ["closed", "read-only"])
def test_unwritable_stderr_changes_neither_table_nor_exit_code(tmp_path, stderr):
    # fd 2 closed before the interpreter starts leaves sys.stderr None; fd 2
    # open for reading fails every progress and wall-time write with EBADF
    for args in (("tscan", "--temp", "0.3:0.5:2"), ("dispersion",)):
        args += ("--sites", "4")
        want = run_cli(*args).stdout
        path = tmp_path / "table.csv"
        for out in ((), ("--out", str(path))):
            with open(os.devnull, "rb") as read_only:
                proc = subprocess.run(
                    CMD + list(args + out), stdout=subprocess.PIPE, text=True,
                    env=subprocess_env(),
                    stderr=read_only if stderr == "read-only" else None,
                    preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None)
            assert proc.returncode == 0, (args, out)
            assert (path.read_text() if out else proc.stdout) == want, (args, out)


def test_failing_sweep_keeps_the_rows_before_it():
    # the varjx noise variance is 0 at T = 0.01: the sweep exits 3 there,
    # and the CSV and the JSON document both hold the two rows before it
    args = ("tscan", "--gamma", "1", "--field", "0", "--temp", "1:0.01:3:log", "--sites", "6",
            "--obs", "varjx")
    csv_run, json_run = run_cli(*args), run_cli(*args, "--format", "json")
    assert csv_run.returncode == json_run.returncode == 3
    assert "numerical failure: varjx noise variance 0.0 at T=0.01" in csv_run.stderr
    header, rows = parse_csv(csv_run.stdout)
    assert header[-1] == "snr_varjx"
    assert [row[2] for row in rows] == [1.0, 0.1]
    doc = json.loads(json_run.stdout)
    assert doc["columns"] == header
    assert doc["rows"] == rows


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
    assert sorted(doc["metadata"]["config"]) == sorted(
        ["gamma", "field", "temp", "sites", "kappa", "modulation", "shot_noise", "obs"])


def test_dispersion_json_echoes_only_its_options():
    proc = run_cli("dispersion", "--gamma", "0.5", "--field", "1.2", "--sites", "6",
                   "--format", "json")
    assert proc.returncode == 0
    config = json.loads(proc.stdout)["metadata"]["config"]
    assert config == {"gamma": [0.5], "field": [1.2], "sites": 6}


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


def test_infinite_temperature_is_refused_before_any_output(tmp_path):
    # the library takes T = inf, but the temperature column cannot hold it:
    # a sweep over it is a config error, not a numerical failure after the
    # header, whether the value comes from the flag or from a config file
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps({"temp": [0.3, math.inf]}))
    for args in (("tscan", "--temp", "inf"), ("phase-diagram", "--config", str(cfg))):
        proc = run_cli(*args, "--sites", "4", "--gamma", "1", "--field", "0")
        assert proc.returncode == 2, args
        assert proc.stdout == "", args
        assert proc.stderr == "error: temperatures must be finite and > 0\n", args


def test_unreadable_config_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert run_cli("tscan", "--config", str(bad)).returncode == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"sitez": 8}))
    assert run_cli("tscan", "--config", str(unknown)).returncode == 2
    # values the matching flag would refuse: an unknown observable, a
    # non-bool shot_noise, a non-integer site count, bools for numbers, and
    # a format or modulation outside the flag's choices
    for value in ({"obs": ["foo"]}, {"obs": "foo"}, {"shot_noise": "false"}, {"sites": 6.9},
                  {"kappa": True}, {"gamma": [True]}, {"format": "yaml"},
                  {"modulation": "quarter"}):
        cfg = tmp_path / "value.json"
        cfg.write_text(json.dumps(value))
        proc = run_cli("tscan", "--config", str(cfg), "--temp", "0.3", "--sites", "6")
        assert proc.returncode == 2, value
        assert proc.stderr.startswith("error: config file"), value
    # keys of flags that dispersion does not take, whatever their value
    for key, value in (("temp", 0.3), ("modulation", "quarter")):
        cfg = tmp_path / "dispersion.json"
        cfg.write_text(json.dumps({key: value}))
        proc = run_cli("dispersion", "--config", str(cfg), "--sites", "6")
        assert proc.returncode == 2, key
        assert proc.stderr.startswith("error: config file") and repr(key) in proc.stderr, key
    # validate takes no options, so not even a readable config file
    cfg.write_text(json.dumps({}))
    assert run_cli("validate", "--config", str(cfg)).returncode == 2


@pytest.mark.parametrize("value", (None, 3, ["x.csv"]))
def test_config_out_must_be_a_path_string(tmp_path, value):
    # str() would take any of these: null wrote the table to a file named None
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"out": value}))
    proc = run_cli("tscan", "--config", str(cfg), "--temp", "0.3", "--sites", "6",
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: config file {cfg}: bad value for 'out'")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]


def test_unwritable_out_exits_two(tmp_path):
    # a file in a directory that does not exist, and a directory to resume into
    for args in (("tscan", "--temp", "0.3", "--out", str(tmp_path / "missing" / "x.csv")),
                 ("phase-diagram", "--temp", "0.3", "--out", str(tmp_path), "--resume")):
        proc = run_cli(*args, "--sites", "6")
        assert proc.returncode == 2, args
        assert proc.stderr.startswith("error: cannot write"), args


@pytest.mark.parametrize("command, key", [("tscan", "temp"), ("phase-diagram", "gamma")])
def test_config_empty_axis_exits_two(tmp_path, command, key):
    # the flags cannot give an empty axis; from a file it would sweep nothing
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({key: []}))
    proc = run_cli(command, "--config", str(cfg), "--sites", "6", "--format", "json")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: config file") and repr(key) in proc.stderr


def test_config_obs_list_matches_the_flag(tmp_path):
    cfg = tmp_path / "obs.json"
    cfg.write_text(json.dumps({"obs": ["meanjz", "crb"]}))
    args = ("tscan", "--temp", "0.3", "--sites", "6")
    from_file = run_cli(*args, "--config", str(cfg))
    from_flag = run_cli(*args, "--obs", "meanjz,crb")
    assert from_file.returncode == from_flag.returncode == 0
    assert from_file.stdout == from_flag.stdout
    assert from_file.stdout.splitlines()[0].endswith("snr_crb,snr_meanjz")


def test_numerical_failure_exits_three():
    # fully saturated state: J_z noise variance underflows to zero
    proc = run_cli("tscan", "--gamma", "0", "--field", "1000", "--temp", "0.01",
                   "--sites", "8", "--obs", "meanjz")
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr


def test_overflowing_mode_energy_is_refused_without_a_warning(capsys):
    # 2 sqrt((cos k - h/J)^2 + ...) leaves the float range at h/J = 1e308:
    # the row is refused after the header, and no floating-point warning
    # is raised on the way, so none reaches stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["dispersion", "--field", "1e308", "--sites", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "gamma,field_ratio,momentum,energy,gap\n"
    assert "numerical failure" in captured.err and "Warning" not in captured.err


@pytest.mark.parametrize("command, obs, code, row", (
    ("tscan", "crb", 0, "1.0,1e+308,0.3,2.0,2.0,0.0"),
    ("phase-diagram", "crb", 0, "1.0,1e+308,0.3,0.0"),
    ("tscan", "crb,varjx,meanjz", 3, None), ("phase-diagram", "crb,varjx,meanjz", 3, None)))
def test_sweeps_with_overflowing_mode_energies_raise_no_warning(command, obs, code, row, capsys):
    # at h/J = 1e308 every mode energy is inf: the ring is frozen, its CRB
    # row is written, and a meanjz noise variance of 0 is refused by name.
    # The mode table raises no overflow warning, so none reaches stderr
    argv = [command, "--field", "1e308", "--temp", "0.3", "--sites", "4", "--obs", obs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == ([row] if row else [])
    if code:
        assert "meanjz noise variance 0.0 at T=0.3" in captured.err
    assert "Warning" not in captured.err


@pytest.mark.parametrize("gamma, field, temp, obs, code, err", (
    ("1", "1e10", "1e-300", "meanjz", 0, ""), ("1", "1e10", "1e-300", "varjx", 0, ""),
    ("0", "1e10", "1e-300", "varjx", 0, ""),
    ("0", "1e10", "1e-300", "meanjz", 3, "meanjz noise variance 0.0 at T=1e-300")))
def test_frozen_ring_readouts_are_written_without_a_warning(gamma, field, temp, obs, code, err,
                                                            capsys):
    # at h/J = 1e10, T = 1e-300 every eps/T overflows: each mode is frozen
    # and its temperature slope an exact 0.  The SNR is 0 where the noise is
    # positive, and a meanjz noise variance of 0 is refused by name.  No
    # floating-point warning is raised on the way, so none reaches stderr
    argv = ["tscan", "--gamma", gamma, "--field", field, "--temp", temp, "--sites", "4",
            "--obs", obs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == code
    captured = capsys.readouterr()
    rows = captured.out.splitlines()
    assert len(rows) == (2 if code == 0 else 1)
    if code == 0:
        assert rows[1].split(",")[-1] == "0.0"
    assert err in captured.err and "Warning" not in captured.err


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


def test_resume_drops_a_row_cut_inside_its_last_cell(tmp_path):
    # a last row cut inside its last cell has every cell and parses, but has
    # no newline: it is unfinished, and resuming recomputes it
    args = ("phase-diagram", "--gamma", "0.5", "--field", "0:1:3", "--temp", "0.3",
            "--sites", "10", "--obs", "crb")
    full = tmp_path / "full.csv"
    assert run_cli(*args, "--out", str(full)).returncode == 0
    want = full.read_bytes()
    cut = tmp_path / "cut.csv"
    cut.write_bytes(want[:-6])
    assert len(cut.read_text().splitlines()[-1].split(",")) == 4
    assert run_cli(*args, "--out", str(cut), "--resume").returncode == 0
    assert cut.read_bytes() == want


def test_resume_refuses_rows_of_other_options(tmp_path):
    # the header records neither the sites nor the probe options, so rows of
    # another ring size or probe must not be kept: the first reused row is
    # recomputed, and a mismatch or a refusal exits 2 with the file unchanged
    out = tmp_path / "r.csv"
    args = ("phase-diagram", "--gamma", "0.5", "--field", "0:1:2", "--temp", "0.3",
            "--out", str(out))
    assert run_cli(*args, "--sites", "10").returncode == 0
    want = out.read_bytes()
    message = f"error: --resume: {out} holds rows computed with other options\n"
    for other in (("--sites", "12", "--kappa", "5"), ("--sites", "10", "--shot-noise"),
                  ("--sites", "10", "--modulation", "half")):
        proc = run_cli(*args, *other, "--resume")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message), other
        assert out.read_bytes() == want, other
    # a reused row at a point the options refuse (noise variance 0)
    out.write_text("gamma,field_ratio,temperature,snr_meanjz_per_site\n0.0,1000.0,0.01,1.0\n")
    proc = run_cli("phase-diagram", "--gamma", "0", "--field", "1000", "--temp", "0.01",
                   "--sites", "8", "--obs", "meanjz", "--out", str(out), "--resume")
    assert (proc.returncode, proc.stderr) == (2, message)
    assert out.read_text().endswith("0.0,1000.0,0.01,1.0\n")


def test_kappa_whose_square_leaves_the_float_range_is_a_config_error(tmp_path):
    # at 1e200 kappa^2 overflows, at 1e-200 it underflows to 0 and at 1e-160
    # to a subnormal float: refused before any output, from the flag or from
    # a config file
    for kappa in ("1e200", "1e-200", "1e-160"):
        cfg = tmp_path / "kappa.json"
        cfg.write_text(json.dumps({"kappa": float(kappa)}))
        for where in (("--kappa", kappa), ("--config", str(cfg))):
            proc = run_cli("tscan", *where, "--shot-noise", "--temp", "0.3", "--sites", "6")
            assert proc.returncode == 2, where
            assert proc.stdout == "", where
            assert proc.stderr.startswith("error: kappa must be > 0"), where
    # at 2e-154 kappa^2 is a normal float, but the shot-noise floor N/(2
    # kappa^2) overflows at 16 sites: refused before any output too
    cfg = tmp_path / "floor.json"
    cfg.write_text(json.dumps({"kappa": 2e-154}))
    for where in (("--kappa", "2e-154"), ("--config", str(cfg))):
        proc = run_cli("tscan", *where, "--shot-noise", "--temp", "0.3", "--sites", "16",
                       "--obs", "meanjz")
        assert proc.returncode == 2, where
        assert proc.stdout == "", where
        assert proc.stderr.startswith(
            "error: kappa 2e-154 puts the shot-noise floor N/(2 kappa^2) past the float range "
            "at 16 sites"), where


def test_cold_limit_ceiling_reads_zero():
    # (eps/T)^2 overflows where n(1 - n) = 0: the ceiling is exactly 0, not
    # inf * 0 = nan, and no floating-point warning reaches stderr
    for field, T in (("0", "1e-300"), ("1e300", "0.3")):
        proc = run_cli("tscan", "--gamma", "1", "--field", field, "--temp", T, "--sites", "10",
                       "--obs", "crb")
        assert proc.returncode == 0, proc.stderr
        header, rows = parse_csv(proc.stdout)
        assert rows[0][header.index("snr_crb")] == 0.0
        assert "Warning" not in proc.stderr and "non-finite" not in proc.stderr


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
    assert "ok   cold XX var_jz matches dense reference" in proc.stdout
    assert "ok   fourth_moment_jx at gamma<0 matches dense reference" in proc.stdout
    assert "ok   fourth_moment_jx on the gamma=-1, h/J=0 line matches dense reference" in proc.stdout
    assert "ok   fourth_moment_jx on the gamma=-1, h/J=0 line at N=50 equals 3N^2-2N" in proc.stdout


def test_validate_builds_one_kernel_per_ensemble(monkeypatch, capsys):
    """Each ensemble of the battery is one ReadoutPoint, so it gets one kernel."""
    built = collections.Counter()
    kernel = correlations.kernel

    def counted(ens):
        built[ens.spec, ens.temperature] += 1
        return kernel(ens)

    for module in [m for name, m in sys.modules.items() if name.startswith("xythermo")]:
        for attr, value in list(vars(module).items()):
            if value is kernel:
                monkeypatch.setattr(module, attr, counted)
    assert cli.main(["validate"]) == 0
    assert "all checks passed" in capsys.readouterr().out
    assert len(built) >= 8 and set(built.values()) == {1}


def test_one_parser_serves_every_call_of_a_process(capsys):
    # the parser is built once per process and kept; a flag of one call
    # leaves nothing behind for the next, so each call writes the bytes it
    # writes in a process of its own
    assert cli._build_parser() is cli._build_parser()
    calls = (("tscan", "--gamma", "1", "--field", "0.5", "--temp", "0.1:1:3", "--sites", "8",
              "--shot-noise", "--modulation", "half", "--format", "json"),
             ("tscan", "--gamma", "1", "--field", "0.5", "--temp", "0.1:1:3", "--sites", "8"),
             ("dispersion", "--gamma", "-1:1:3", "--field", "-0.5", "--sites", "6"))
    together = []
    for args in calls:
        assert cli.main(args) == 0
        together.append(capsys.readouterr().out)
    for args, out in zip(calls, together):
        alone = run_cli(*args)
        assert alone.returncode == 0, alone.stderr
        assert out == alone.stdout, args
    assert together[0] != together[1]
