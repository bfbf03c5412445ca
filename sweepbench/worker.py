"""Run benchmark sweeps through ``xythermo.cli.main`` in one fresh process.

Usage (started by run.py, one process per workload run):

    python3 sweepbench/worker.py < plan.json

The plan names the sweeps as CLI argument lists.  Each sweep is one
closed-loop call of ``cli.main(argv)`` with ``--out -``; ``sys.stdout`` is
replaced by a clock that timestamps every row the CLI writes and flushes.
The result, including this process's peak RSS, is one JSON document on
the real standard output.

On a shared machine the CPU speed a process gets changes by up to 1.5x
within seconds.  Untraced runs therefore time a fixed speed probe next to
the rows (at most every PROBE_EVERY_S, outside the rows' own intervals),
so that run.py can express every interval in units of the probe.
"""
from __future__ import annotations

import io
import json
import os
import resource
import sys
from time import perf_counter

import numpy as np

ROOT = os.getcwd()
PROBE_EVERY_S = 0.05

_PROBE_RNG = np.random.default_rng(20261017)
_PROBE_MATS = _PROBE_RNG.random((40, 24, 24))
_PROBE_VEC = _PROBE_RNG.random(64)


def speed_probe() -> float:
    """Seconds taken by a fixed ~1 ms mix of interpreter, LAPACK and small-array work."""
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(4000):
        table[i & 255] = table.get(i & 255, 0) + i
    np.linalg.det(_PROBE_MATS)
    for _ in range(40):
        np.cos(_PROBE_VEC) @ np.sin(_PROBE_VEC)
    return perf_counter() - start


class RowClock(io.TextIOBase):
    """Stand-in for sys.stdout that timestamps each complete output line.

    ``stamps[i]`` is when line i was written; ``resumes[i]`` is when the
    CLI got control back, which is later than the stamp when a speed probe
    ran in between.  With ``probes=None`` no probe runs.
    """

    def __init__(self, probes: list | None = None) -> None:
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self.resumes: list[float] = []
        self.probes = probes
        self._buf = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = perf_counter()
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self.lines.append(line)
            self.stamps.append(now)
            self.resumes.append(now)
        if self.probes is not None and self.stamps and self.stamps[-1] == now and (
                now - self.probes[-1][0] >= PROBE_EVERY_S):
            self.probes.append((now, speed_probe()))
            self.resumes[-1] = perf_counter()
        return len(text)

    def flush(self) -> None:
        pass


def run_sweep(main, argv: list[str], probes: list | None = None) -> dict:
    """One CLI call with its output rows, their timestamps and exit status."""
    clock, err = RowClock(probes), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = clock, err
    error = None
    start = perf_counter()
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a flag
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is recorded, never fatal to the run
        code, error = None, repr(exc)
    finally:
        end = perf_counter()
        sys.stdout, sys.stderr = saved
    return {"argv": list(argv), "code": code, "error": error, "start": start, "end": end,
            "lines": clock.lines, "stamps": clock.stamps, "resumes": clock.resumes,
            "stderr_tail": err.getvalue()[-400:]}


def _closed_loop(main, rounds: list[list[list[str]]], seconds: float) -> dict:
    # whole rounds only; start another only if it should end by ~seconds
    sweeps, durations = [], []
    probes = [(perf_counter(), speed_probe())]
    t0 = perf_counter()
    for rnd in rounds:
        r0 = perf_counter()
        for argv in rnd:
            sweeps.append(run_sweep(main, argv, probes))
            probes.append((perf_counter(), speed_probe()))
        durations.append(perf_counter() - r0)
        if perf_counter() - t0 + 0.5 * sum(durations) / len(durations) >= seconds:
            break
    return {"sweeps": sweeps, "rounds": len(durations), "probes": probes}


def _scale_probe() -> dict:
    # one timed call each, as in the ROADMAP layer table (gamma=1, h/J=0.5, T=0.3)
    from xythermo import correlations, thermometry
    from xythermo.spectrum import ChainSpec

    out = {}
    for n in (50, 100):
        ens = thermometry.ensemble(ChainSpec(gamma=1.0, field_ratio=0.5, sites=n), 0.3)
        t = perf_counter()
        value = correlations.fourth_moment_jx(ens)
        out[f"fourth_moment.n{n}_s"] = (perf_counter() - t, value)
    kern = correlations.kernel(thermometry.ensemble(ChainSpec(1.0, 0.5, 400), 0.3))
    t = perf_counter()
    value = correlations.var_jx(kern)
    out["var_jx.n400_s"] = (perf_counter() - t, value)
    return out


def main() -> int:
    plan = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from xythermo import cli

    result: dict = {"xythermo_file": sys.modules["xythermo"].__file__}
    if not plan["trace"]:
        result.update(_closed_loop(cli.main, plan["rounds"], plan["seconds"]))
    else:
        import spans

        result["scale"] = _scale_probe()
        # alternate untraced and traced runs of each sweep so that drift in
        # machine speed cancels out of the overhead estimate
        recorder = spans.SpanRecorder()
        plain, traced = [], []
        for argv in plan["trace_sweeps"]:
            plain.append(run_sweep(cli.main, argv))
            with spans.installed(recorder):
                # look main up at call time, so the wrapped binding is used
                traced.append(run_sweep(lambda a: cli.main(a), argv))
        recorder.write(plan["spans_path"])
        result.update(sweeps=plain + traced, n_untraced=len(plain), trace=recorder.summary(),
                      untraced_s=sum(r["end"] - r["start"] for r in plain),
                      traced_s=sum(r["end"] - r["start"] for r in traced))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
