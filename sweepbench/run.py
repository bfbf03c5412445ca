"""Sweep benchmark for xythermo: end-to-end and per-layer metrics.

Run from the repository root:

    python3 sweepbench/run.py --workload tscan-quartic --seed 1 --seconds 20 --trace 0

Workloads are ``tscan-quartic``, ``tscan-pairs`` and ``phase-map`` (see
workloads.py for why each exists).  The program is used from ``src/``
through its public CLI entry ``xythermo.cli.main(argv)``; it receives only
the generated argument lists, never the seed.  One client runs the sweeps
in a closed loop, single-threaded (no ``--threads``, ``THREADS`` unset,
BLAS pinned to one thread unless the caller pins it).

``--trace 0`` reports the end-to-end metrics with tracing off:
points_per_ref_s, point_p50_ref_ms, point_p90_ref_ms, delivered_share,
setup_s and peak_rss_mb.  ``--trace 1`` replays a fixed sweep list once
untraced and once with every layer wrapped (spans.py), and reports
per-layer metrics.  The metric lists are the ones BENCHMARK.json declares.

Throughput and row latency are given in reference time: every interval is
divided by the duration of a fixed speed probe timed next to it
(worker.speed_probe, about 1 ms on a 2-vCPU x86-64 VM), so one ref_ms is
one probe duration.  setup_s is the median launch-to-first-row time in
reference seconds: raw seconds over 1000 times the run's median probe
duration.  On a shared machine whose CPU speed swings by 1.5x for seconds
to minutes this keeps run-to-run spread to a few percent; the raw values
in seconds are printed alongside.  delivered_share is the share of
attempted points delivered as correct rows (1 - failed_share), which,
unlike failed_share, is never 0.

Every delivered row is checked (checks.py).  The last line of standard
output is one JSON object with keys correct, attempted, failed and
metrics; the line before it holds provenance.  A human-readable table goes
to standard error.  Exit code 0 means every check passed; 1 means a wrong
row, a crash or an oracle mismatch; 2 means the benchmark cannot run here.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import numpy as np

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".sweepbench-out")

SETUP_PROBES = 5
MIN_ROWS = 100  # p90 needs ten samples beyond it
MAX_ROUNDS = 64
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """No result can be produced; ``code`` 2 means the set-up, 1 the program."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def no_rows(what: str, total: dict) -> BenchError:
    reasons = total["bad"] + total["crashes"]
    return BenchError(f"{what} delivered no correct row: {reasons[:3]}", code=1 if reasons else 2)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("THREADS", None)  # the CLI's own thread pool stays at its default of 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return env


def setup_probe(argv: list[str]) -> float:
    """Seconds from launching a fresh interpreter to the CLI's first data row."""
    cmd = [sys.executable, "-m", "xythermo.cli"] + argv
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=child_env(), cwd=ROOT, text=True)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)  # a hung child ends the reads
    watchdog.start()
    try:
        proc.stdout.readline()  # header
        row = proc.stdout.readline()
        elapsed = perf_counter() - t0
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if not row.strip():
        raise BenchError(f"setup probe {argv} delivered no row")
    return elapsed


def run_worker(plan: dict) -> dict:
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(json.dumps(plan), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited {proc.returncode}: {err[-2000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    if os.path.commonpath([os.path.realpath(res["xythermo_file"]), os.path.realpath(SRC)]) \
            != os.path.realpath(SRC):
        raise BenchError(f"imported xythermo from {res['xythermo_file']}, not from {SRC}")
    return res


def tally(sweeps, results) -> dict:
    """Row accounting over executed sweeps; ok_lines holds each sweep's correct rows."""
    total = {"attempted": 0, "ok": 0, "refused": 0, "bad": [], "known": [], "ok_lines": [],
             "exit_codes": {}, "crashes": []}
    for sweep, res in zip(sweeps, results):
        got = checks.check_sweep(sweep, res)
        for key in ("attempted", "ok", "refused"):
            total[key] += got[key]
        total["bad"] += got["bad"]
        total["known"] += got["known"]
        total["ok_lines"].append(got["ok_lines"])
        code = str(res["code"])
        total["exit_codes"][code] = total["exit_codes"].get(code, 0) + 1
        if res["code"] not in (0, 3):  # 3 is the CLI's documented numerical refusal
            total["crashes"].append(f"{res['argv']}: exit {res['code']} {res['error'] or ''} "
                                    f"{res['stderr_tail'][-200:]}")
    return total


def oracle_problems(workload: str, seed: int) -> list[str]:
    import worker
    from xythermo import cli

    problems = []
    for sweep in workloads.oracle_sweeps(workload, seed):
        problems += checks.check_against_oracle(sweep, worker.run_sweep(cli.main, sweep.argv))
    return problems


def provenance(seed: int, xythermo_file: str) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "xythermo")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = git.stdout.strip() or None
    env = child_env()
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "cli_threads": 1,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "xythermo_file": os.path.relpath(xythermo_file, ROOT),
        "machine": platform.machine(),
    }


def timings(results: list[dict], ok_lines: list[list[int]], probes: list) -> dict:
    """Raw and probe-normalized per-row latencies and total sweep time.

    Each interval between one output line and the next (speed probes
    excluded) is divided by the mean duration of the speed probes just
    before and just after its end.  One ref_ms is one probe duration.
    """
    times = [t for t, _ in probes]
    durations = [d for _, d in probes]

    def probe_at(t: float) -> float:
        j = bisect.bisect_left(times, t)
        return statistics.fmean(durations[max(0, j - 1): j + 1])

    out = {"raw_s": [], "ref_ms": [], "total_s": 0.0, "total_ref_ms": 0.0}
    for res, ok in zip(results, ok_lines):
        ok = set(ok)
        resumed = res["start"]
        ends = list(zip(res["stamps"], res["resumes"])) + [(res["end"], res["end"])]
        for i, (stamp, resume) in enumerate(ends):
            raw = stamp - resumed
            ref = raw / probe_at(stamp)
            out["total_s"] += raw
            out["total_ref_ms"] += ref
            if i in ok:
                out["raw_s"].append(raw)
                out["ref_ms"].append(ref)
            resumed = resume
    return out


def end_to_end(args) -> tuple[dict, dict, dict]:
    plan_rounds = workloads.rounds(args.workload, args.seed, MAX_ROUNDS)
    first = plan_rounds[0][0].argv
    setup = [setup_probe(first) for _ in range(SETUP_PROBES)]
    plan = {"trace": False, "seconds": args.seconds,
            "rounds": [[s.argv for s in rnd] for rnd in plan_rounds]}
    res = run_worker(plan)
    executed = [s for rnd in plan_rounds[: res["rounds"]] for s in rnd]
    total = tally(executed, res["sweeps"])
    if total["ok"] == 0:
        raise no_rows("the run", total)
    t = timings(res["sweeps"], total["ok_lines"], res["probes"])
    ref_ms, raw_ms = np.array(t["ref_ms"]), np.array(t["raw_s"]) * 1e3
    probe_s = statistics.median(d for _, d in res["probes"])
    metrics = {
        "points_per_ref_s": total["ok"] / (t["total_ref_ms"] / 1e3),
        "point_p50_ref_ms": float(np.percentile(ref_ms, 50)),
        "point_p90_ref_ms": float(np.percentile(ref_ms, 90)),
        "delivered_share": total["ok"] / total["attempted"],
        "setup_s": statistics.median(setup) / (1e3 * probe_s),
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
    }
    info = {
        "samples": {"point_p50_ref_ms": len(ref_ms), "point_p90_ref_ms": len(ref_ms),
                    "setup_s": len(setup), "speed_probes": len(res["probes"])},
        "raw": {"points_per_s": total["ok"] / t["total_s"],
                "point_p50_ms": float(np.percentile(raw_ms, 50)),
                "point_p90_ms": float(np.percentile(raw_ms, 90)),
                "setup_s": statistics.median(setup),
                "probe_ms_median": 1e3 * probe_s},
        "setup_runs_s": setup,
        "rounds": res["rounds"],
        "sweeps": len(executed),
        "sweep_s": t["total_s"],
        "failed_share": 1.0 - total["ok"] / total["attempted"],
    }
    if len(ref_ms) < MIN_ROWS:
        info["warning"] = f"only {len(ref_ms)} rows: p90 has fewer than 10 samples beyond it"
    return metrics, total, {**info, "xythermo_file": res["xythermo_file"]}


def per_layer(args) -> tuple[dict, dict, dict]:
    os.makedirs(OUT_DIR, exist_ok=True)
    sweeps = workloads.trace_sweeps(args.workload, args.seed)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
    res = run_worker({"trace": True, "trace_sweeps": [s.argv for s in sweeps],
                      "spans_path": spans_path})
    total = tally(sweeps + sweeps, res["sweeps"])
    points = sum(len(ok) for ok in total["ok_lines"][len(sweeps):])  # traced pass
    if points == 0:
        raise no_rows("the traced pass", total)
    trace, det = res["trace"], res["trace"]["det"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "det_s": 0.0}
    values = {f"{layer}.{field}": value for layer, *_ in spans.LAYERS
              for field, value in trace["layers"].get(layer, zero).items()}
    values.update({f"lapack.det.{key}": det[key]
                   for key in ("matrices", "flops_computed", "bytes_computed")})
    for bucket in spans.det_buckets():
        for key in ("matrices", "s"):
            values[f"lapack.det.{bucket}.{key}"] = det["buckets"].get(bucket, {}).get(key, 0)
    values.update({f"scale.{name}": seconds for name, (seconds, _) in res["scale"].items()})
    values["ratio.kernels_per_point"] = values["correlations.kernel.calls"] / points
    values["ratio.ensembles_per_point"] = values["thermometry.ensemble.calls"] / points
    values["trace.points"] = points
    values["trace.overhead_share"] = res["traced_s"] / res["untraced_s"] - 1.0
    total["bad"] += [f"scaling probe {name} returned {value!r}"
                     for name, (_, value) in res["scale"].items()
                     if not (np.isfinite(value) and value > 0)]
    info = {"spans": trace["spans"], "spans_file": os.path.relpath(spans_path, ROOT),
            "unwrapped": trace["unwrapped"], "untraced_s": res["untraced_s"],
            "traced_s": res["traced_s"],
            "self_incl_det_s": {k: v["self_s"] + v["det_s"] for k, v in trace["layers"].items()
                                if k != "lapack.det"}}
    return values, total, {**info, "xythermo_file": res["xythermo_file"]}


def declared_units(kind: str) -> dict:
    """Metric name -> unit of the end_to_end or per_layer list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "xythermo", "cli.py")):
        print(f"error: no xythermo sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        if args.trace:
            values, total, info = per_layer(args)
            units = declared_units("per_layer")
        else:
            values, total, info = end_to_end(args)
            units = declared_units("end_to_end")
        metrics = {name: values[name] for name in units}
        problems = total["bad"] + total["crashes"] + oracle_problems(args.workload, args.seed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code

    correct = not problems
    info["provenance"] = provenance(args.seed, info.pop("xythermo_file"))
    info["workload"] = args.workload
    info["exit_codes"] = total["exit_codes"]
    info["problems"] = problems[:50]
    info["known_defect_rows"] = {"count": len(total["known"]), "examples": total["known"][:5]}
    for name, value in sorted(metrics.items()):
        print(f"{args.workload:>14} {name:<40} {value:>14.6g} {units.get(name, '')}",
              file=sys.stderr)
    failed = total["attempted"] - total["ok"]
    print(f"{args.workload:>14} rows: {total['attempted']} attempted, {total['ok']} correct, "
          f"{total['refused']} refused, {len(total['known'])} known-defect, {failed} failed "
          f"(failed_share {failed / total['attempted']:.4f}); exit codes {total['exit_codes']}",
          file=sys.stderr)
    for row in total["known"][:3]:
        print(f"known defect: {row}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    result = {"correct": correct, "attempted": total["attempted"], "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "info": info}, fh, indent=1)
    print(json.dumps({"provenance": info["provenance"], "info": {
        k: v for k, v in info.items() if k not in ("provenance", "problems", "self_incl_det_s")}}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
