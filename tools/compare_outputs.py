"""Compare the CLI output of source trees, run by run, by stdout hash, stderr and exit code.

For each tree, one fresh process with BLAS pinned to one thread runs a
fixed list of command lines through ``xythermo.cli.main`` and records the
sha256 of each run's stdout, its stderr lines but for progress
(``<command>: i/n``) and ``wall time:``, so that a refused sweep is
compared by its message (with the tree's path, which a warning names,
written ``<src>``), and its exit code: round 0 of each
``sweepbench`` workload at seeds 411, 415 and 416, the README
``dispersion``, ``tscan`` (100 sites) and phase diagram, ``dispersion``
and ``tscan`` as JSON, a phase diagram with every probe option, the same
sweep from a ``--config`` file (alone, and as CSV with ``--sites``
overriding the file), the plateau sweep, which exits 3 partway, two
sweeps whose <J_x^4> takes orthogonal minors for every gap class (a
point at N = 50 where one stack of Schur windows breaks down, 300
contraction matrices, and the gamma = -1, h/J = 0 line at N = 14, 21
matrices at each of its three coldest temperatures), the same line at
N = 24 and T = 0.05 and 0.3, where Hadamard's bound certifies the
quadruple sum at the edge of its reach, so that a change of which route
a point takes shows as a mismatch, a JSON sweep that
exits 3 at its last point, whose document keeps the rows before it, a
``dispersion`` whose rows overflow and are refused after the header, and
``validate``.
Each mismatch with the first tree is printed, and the exit code is 1 if
there is any.  Where both outputs are tables (CSV, or JSON with columns
and rows) of the same shape, each numeric column that moved is printed
with its largest relative move |v - v0| / |v0| against the first tree's
v0 (inf where v0 = 0) and its largest absolute move, so that a change
that moves numbers can state by how much:

    git archive --prefix=parent/ HEAD~1 | tar x -C /tmp
    python tools/compare_outputs.py --tree parent=/tmp/parent/src --tree change=src
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (411, 415, 416)
# stderr lines that differ from run to run, or only report how far a sweep got
UNCOMPARED_STDERR = re.compile(r"[\w-]+: \d+/\d+$|wall time: ")
EXTRA = {
    "readme dispersion": "dispersion --gamma 1 --field 0:2:21 --sites 64",
    "dispersion json": "dispersion --gamma -1:1:3 --field 0.5 --sites 8 --format json",
    "tscan json": "tscan --gamma 0.5 --field 0:1:2 --temp 0.1:1:3:log --sites 10 --format json",
    "probe options": "phase-diagram --gamma -1:1:3 --field 0:2:3 --temp 0.2 --sites 10 "
                     "--modulation half --shot-noise --kappa 3",
    "config file": "phase-diagram --config {config}",
    "config file, flags override": "phase-diagram --config {config} --sites 6 --format csv",
    "readme tscan": "tscan --gamma 1 --field 0.5 --temp 0.05:5:40:log --sites 100",
    "readme phase diagram": "phase-diagram --gamma -1:1:41 --field 0:2:41 --temp 0.05 "
                            "--sites 50 --obs crb,meanjz",
    "plateau sweep": "tscan --gamma -1:1:5 --field 0:2:5 --temp 0.05:5:4:log --sites 30 "
                     "--obs crb,varjx,meanjz",
    "window breakdown": "tscan --gamma -0.9653537597782795 --field 0.2609446655556303 "
                        "--temp 0.05 --sites 50 --obs crb,varjx,meanjz",
    "fallback minors": "tscan --gamma -1 --field 0 --temp 0.05:5:6:log --sites 14 "
                       "--obs crb,varjx,meanjz",
    "certificate edge": "tscan --gamma -1 --field 0 --temp 0.05:0.3:2 --sites 24 "
                        "--obs crb,varjx,meanjz",
    "failing json sweep": "tscan --gamma 1 --field 0 --temp 1:0.01:3:log --sites 6 --obs varjx "
                          "--format json",
    "non-finite dispersion": "dispersion --field 1e308 --sites 4",
    "validate": "validate",
}
# the probe-options sweep as a file: every axis form, an obs list, a switch and two choices
CONFIG = {"gamma": "-1:1:3", "field": [0.0, 1.0, 2.0], "temp": 0.2, "sites": 10,
          "obs": ["crb", "varjx", "meanjz"], "shot-noise": True, "modulation": "half",
          "kappa": 3, "format": "json"}


def _runs(config: str) -> dict[str, list[str]]:
    from sweepbench.workloads import WORKLOADS, rounds

    runs = {f"{workload} seed {seed} sweep {i}": sweep.argv
            for workload in WORKLOADS for seed in SEEDS
            for i, sweep in enumerate(rounds(workload, seed, 1)[0])}
    return runs | {name: line.format(config=config).split() for name, line in EXTRA.items()}


def _table(text: str) -> dict[str, list[float]] | None:
    # the numeric columns of a CSV or JSON table; None for any other output
    try:
        doc = json.loads(text)
        columns, rows = doc["columns"], doc["rows"]
    except (ValueError, TypeError, KeyError):
        lines = text.splitlines()
        if not lines or "," not in lines[0]:
            return None
        columns, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    table = {}
    for i, name in enumerate(columns):
        try:
            table[name] = [float(row[i]) for row in rows]
        except (ValueError, TypeError, IndexError):
            pass  # not a numeric column
    return table


def _moves(table: dict[str, list[float]], base: dict[str, list[float]]) -> list[str]:
    # per column that moved: its largest relative and absolute move from base
    if table.keys() != base.keys() or any(len(table[k]) != len(base[k]) for k in base):
        return ["tables differ in shape"]
    lines = []
    for name, values in table.items():
        # a NaN on one side only moved by inf; NaN on both did not move
        moved = [(v, v0) for v, v0 in zip(values, base[name])
                 if v != v0 and not (math.isnan(v) and math.isnan(v0))]
        if moved:
            absolute = [abs(v - v0) if not math.isnan(v - v0) else math.inf for v, v0 in moved]
            rel = max(a / abs(v0) if abs(v0) > 0 else math.inf
                      for a, (_, v0) in zip(absolute, moved))
            lines.append(f"{name}: {len(moved)} value(s) moved, largest relative move "
                         f"{rel:.3g}, absolute {max(absolute):.3g}")
    return lines


def _run_all(tmp: str) -> dict[str, tuple[str, int, dict | None, list[str]]]:
    # (sha256 of stdout, exit code, numeric columns, compared stderr lines)
    # of every run, with the tree on sys.path; a warning names its source
    # file by path, so the tree's own path is written <src>
    from xythermo import cli

    src = os.path.dirname(os.path.dirname(cli.__file__))
    config = os.path.join(tmp, "sweep.json")
    with open(config, "w") as fh:
        json.dump(CONFIG, fh)
    results = {}
    for name, argv in _runs(config).items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        text = out.getvalue()
        stderr = [line.replace(src, "<src>") for line in err.getvalue().splitlines()
                  if not UNCOMPARED_STDERR.match(line)]
        results[name] = (hashlib.sha256(text.encode()).hexdigest(), code, _table(text), stderr)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC",
                        help="a label and the src directory of one source tree (repeatable)")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:  # every run of one tree, in a fresh process
        sys.path[:0] = [args.worker, ROOT]
        with tempfile.TemporaryDirectory() as tmp:
            print(json.dumps(_run_all(tmp)))
        return 0
    if not args.tree:
        parser.error("need at least one --tree")

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = {}
    for label, src in (t.split("=", 1) for t in args.tree):
        proc = subprocess.run([sys.executable, __file__, "--worker", os.path.abspath(src)],
                              env=env, capture_output=True, text=True, check=True)
        results[label] = json.loads(proc.stdout)
        print(f"{label}: {len(results[label])} runs", file=sys.stderr, flush=True)
    (first, base), *others = results.items()
    mismatches = 0
    for label, runs in others:
        for name, (digest, code, table, stderr) in runs.items():
            base_digest, base_code, base_table, base_stderr = base[name]
            if (digest, code, stderr) != (base_digest, base_code, base_stderr):
                mismatches += 1
                print(f"{label} differs from {first}: {name}: exit {code} vs {base_code}, "
                      f"stdout {digest[:12]} vs {base_digest[:12]}")
                if table is not None and base_table is not None:
                    for line in _moves(table, base_table):
                        print(f"    {line}")
                if stderr != base_stderr:
                    print(f"    stderr {first}: {base_stderr}\n    stderr {label}: {stderr}")
    print(f"{mismatches} mismatch(es) over {len(base)} runs")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
