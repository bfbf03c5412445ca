"""Per-call timings of the slow layers of one point, on a fixed grid.

Times ``correlations.fourth_moment_from_kernel`` (regular and breakdown
points at N = 14, 50 and 100, gamma < 0 points at N = 50 and 100, a point
where one window stack breaks down at N = 50, one regular point at N =
200), ``var_jx`` (N = 50 to 1000, the gapless XX chain at T = 5 and N =
300, and a zero-mode point at N = 50), ``var_jy`` (N = 300),
``var_jx_slope`` and ``kernel`` (N = 50 to 1000), and at N = 50 the
per-point layers of a
``phase-diagram`` sweep: ``thermometry.ensemble``, ``var_jz`` (uniform and
half probe) and ``mean_jz_slope``, and one VAR_JX readout point at N = 50
(a fresh ``faraday.ReadoutPoint``'s ``snr_varjx``: its kernel, Var(J_x),
the slope and <J_x^4>, as one ``tscan-quartic`` row computes them), for
one or more source trees, and writes the medians to a JSON file together
with the core count and the BLAS in use.
Each grid row makes one untimed warm-up call and then CALLS timed calls in
the same process, and takes their median, so that a row does not read the
allocator and cache state that the rows before it left.  The warm-up call
also builds what a tree memoizes per ring size (the cos/sin tables, the
plan of Schur windows of <J_x^4>), as the first point of a sweep does.
The CPU speed a process gets on a shared machine swings by tens of percent
between runs, so each call is also divided by the mean duration of the
benchmark's fixed speed probe (``sweepbench.worker.speed_probe``, about 1
ms), timed just before and just after it: the "ref" statistics are per-call
times in probe units, as ``sweepbench`` reports them, next to the raw
seconds.  To compare a
change with its parent commit, export the parent next to the checkout and
pass both trees; the trees run alternately, each repetition in a fresh
process with BLAS pinned to one thread:

    git archive --prefix=parent/ HEAD~1 | tar x -C /tmp
    python tools/bench_layers.py --tree parent=/tmp/parent/src --tree change=src \\
        --reps 5 --out BENCH.json

Every call gets its own ensemble and kernel, built outside the timed
region, so that nothing one call computes on first read is there for the
next.  Before ``fourth_moment_from_kernel`` the kernel's pair correlators
are filled by ``var_jx``, as a readout point does; ``var_jx`` itself is
timed on a fresh kernel.  The "warm" ``kernel`` rows time the kernel of an
ensemble after another ensemble's kernel, so the cos/sin tables of its ring
size are built already, as at every point of a sweep but the first; the
"cold" rows clear that memo first.  The
``ensemble`` row builds the mode table and the thermal record of a ring
size seen before, as at every point of a sweep but the first: the
records build every per-mode array up front (rotations, double angles,
reduced energies, fluctuation weights, 1 - 2 n_k and its slope), so the
J_z rows of a fresh ensemble time the mode sums alone.  Next to each time
the file records how many matrices the timed call handed to the
orthogonal-minor engine, ``xythermo.minors``, to the halving
(``_halving_minors``) or to one level of it (``_split``, which the pair
correlators enter through ``_complementary_minors``, as they entered it
directly before that call existed, so the counts are the same in both
trees): each call counts the product of its stack's leading dimensions,
1 for a single matrix, and a depth counter shared by the two leaves out
the calls that the halving makes of itself.  It also records the value the call
returned (sum of g_j^2 for a kernel, of n_k for an ensemble), and the
minor page faults of the timed call (the median over its calls of the
change in ``resource.getrusage(RUSAGE_SELF).ru_minflt``, None where the
``resource`` module is missing): a call that takes fresh pages from the
operating system shows there.  With the
pair correlators filled, a fourth-moment call that hands in any matrices
has met a breakdown and taken orthogonal minors for every gap class; it
hands in none where no elimination broke down, or where Hadamard's bound
left every class out.  Each
tree's values must repeat exactly over its calls and repetitions; the file
gives every value's relative difference from the first tree, and the run
prints the largest, so a speed change that moves the numbers shows next to
its timings.  For N = 50, 100 and 200 the file also records the bytes of
the store of Schur-complement snapshots that <J_x^4> keeps per point and
the bytes of the plan of Schur windows it builds once per ring size,
recorded as ``correlations.fourth_moment_from_kernel`` at a regular
point asks ``_window_plan`` for it, so that every tree is measured
through its own call.  The run ends by printing the last tree's rows as
the README's layer-timings block (``readme_table``), which goes between
the README's ``<!-- layer-timings -->`` markers when the file is
committed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

try:
    import resource
except ImportError:  # not on every platform
    resource = None

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (layer, N, gamma, h/J, T); "breakdown" points are where the elimination of
# the pair matrix without row exchanges meets a zero pivot, so that every
# gap class takes orthogonal minors unless a bound certifies them
# negligible, as it does not at N = 14 on the gamma = -1, h/J = 0 line; at
# the "window breakdown" point, from the tscan-quartic benchmark, the pair
# matrix does not break down but one stack of its Schur windows does.  The
# "gapless" var_jx point has t_min = 2e-3 and det C = 1e-300 for the
# skew-circulant split of the pair correlators; at the "zero mode" point (N
# = 2 mod 4, gamma = 0, h/J = 0) C is singular to working precision and the
# whole pair matrix takes one halving
GRID = (
    ("fourth_moment_from_kernel", 14, -1.0, 0.0, 0.3, "breakdown"),
    ("fourth_moment_from_kernel", 50, 1.0, 0.5, 0.3, "regular"),
    ("fourth_moment_from_kernel", 50, -0.892, 0.767, 0.792, "regular"),
    ("fourth_moment_from_kernel", 50, -1.0, 0.0, 0.3, "breakdown"),
    ("fourth_moment_from_kernel", 50, -1.0, 0.0, 5.0, "breakdown"),
    ("fourth_moment_from_kernel", 50, 0.0, 2.0, 0.05, "breakdown"),
    ("fourth_moment_from_kernel", 50, 1.0, 0.5, math.inf, "breakdown"),
    ("fourth_moment_from_kernel", 50, -0.9653537597782795, 0.2609446655556303, 0.05,
     "window breakdown"),
    ("fourth_moment_from_kernel", 100, 1.0, 0.5, 0.3, "regular"),
    ("fourth_moment_from_kernel", 100, -0.892, 0.767, 0.792, "regular"),
    ("fourth_moment_from_kernel", 100, -1.0, 0.0, 0.3, "breakdown"),
    ("fourth_moment_from_kernel", 200, 1.0, 0.5, 0.3, "regular"),
    ("var_jx", 50, 1.0, 0.5, 0.3, "regular"),
    ("var_jx", 100, 1.0, 0.5, 0.3, "regular"),
    ("var_jx", 300, 1.0, 0.5, 0.3, "regular"),
    ("var_jx", 1000, 1.0, 0.5, 0.3, "regular"),
    ("var_jx", 300, 0.0, 0.0, 5.0, "gapless"),
    ("var_jx", 50, 0.0, 0.0, 0.126, "zero mode"),
    ("var_jy", 300, 1.0, 0.5, 0.3, "regular"),
    ("var_jx_slope", 50, 1.0, 0.5, 0.3, "regular"),
    ("var_jx_slope", 100, 1.0, 0.5, 0.3, "regular"),
    ("var_jx_slope", 300, 1.0, 0.5, 0.3, "regular"),
    ("kernel", 50, 1.0, 0.5, 0.3, "warm"),
    ("kernel", 300, 1.0, 0.5, 0.3, "warm"),
    ("kernel", 1000, 1.0, 0.5, 0.3, "warm"),
    ("kernel", 300, 1.0, 0.5, 0.3, "cold"),
    ("kernel", 1000, 1.0, 0.5, 0.3, "cold"),
    ("ensemble", 50, 1.0, 0.5, 0.3, "warm"),
    ("var_jz", 50, 1.0, 0.5, 0.3, "uniform"),
    ("var_jz", 50, 1.0, 0.5, 0.3, "half"),
    ("mean_jz_slope", 50, 1.0, 0.5, 0.3, "uniform"),
    ("VAR_JX point", 50, 1.0, 0.5, 0.3, "snr_varjx"),
)

# ring sizes at which the bytes of the window plan and of the snapshot
# store are recorded
PLAN_SIZES = (50, 100, 200)


# timed calls per grid row and repetition, after one warm-up call
CALLS = 5


def _key(layer, n, gamma, field, temp, kind):
    return f"{layer} N={n} ({gamma:g}, {field:g}, {temp:g}) {kind}"


def _minor_faults() -> int | None:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else None


def _time_grid() -> tuple[dict[str, float], dict[str, float], dict[str, int], dict[str, float],
                          dict[str, float | None]]:
    # per grid entry, the median of CALLS timings after one warm-up call, in
    # seconds and in speed-probe units, the matrices one call handed to the
    # orthogonal-minor engine, the value it returned and the median of its
    # minor page faults, with the tree on sys.path
    from sweepbench.worker import speed_probe
    from xythermo import correlations, faraday, minors, thermometry
    from xythermo.spectrum import ChainSpec

    engine = {name: getattr(minors, name) for name in ("_halving_minors", "_split")}
    count, depth = [0], [0]

    def entry(fn):
        # counts the matrices of a call from outside the engine only
        def wrapped(a):
            if not depth[0]:
                count[0] += math.prod(a.shape[:-2])
            depth[0] += 1
            try:
                return fn(a)
            finally:
                depth[0] -= 1
        return wrapped

    def prepare(layer, n, gamma, field, temp, kind):
        # the call, with its argument built fresh and outside the timed region
        spec = ChainSpec(gamma=gamma, field_ratio=field, sites=n)
        if layer == "ensemble":
            return lambda: thermometry.ensemble(spec, temp)
        ens = thermometry.ensemble(spec, temp)
        if layer == "VAR_JX point":
            return lambda: faraday.ReadoutPoint(ens, faraday.FaradaySetup()).snr_varjx
        if layer in ("var_jz", "mean_jz_slope"):
            return lambda: getattr(correlations, layer)(ens, kind)
        if layer == "kernel":
            # another ensemble's kernel builds the tables of N, if memoized
            correlations.kernel(thermometry.ensemble(spec, temp))
            if kind == "cold":
                correlations._trig_tables.cache_clear()
            return lambda: correlations.kernel(ens)
        kern = correlations.kernel(ens)
        if layer == "fourth_moment_from_kernel":
            correlations.var_jx(kern)
        call = getattr(correlations, layer)
        return lambda: call(kern)

    def scalar(layer, value):
        if layer == "kernel":
            return float(value.g @ value.g)
        if layer == "ensemble":
            return float(value.occupations.sum())
        return float(value)

    times, refs, halvings, values, faults = {}, {}, {}, {}, {}
    for name, fn in engine.items():
        setattr(minors, name, entry(fn))
    try:
        for row in GRID:
            key = _key(*row)
            prepare(*row)()  # warm-up
            elapsed, ref, seen, fresh = [], [], set(), []
            for _ in range(CALLS):
                call = prepare(*row)
                count[0] = 0
                before = speed_probe()
                paged = _minor_faults()
                start = perf_counter()
                value = call()
                elapsed.append(perf_counter() - start)
                if paged is not None:
                    fresh.append(_minor_faults() - paged)
                ref.append(2.0 * elapsed[-1] / (before + speed_probe()))
                seen.add((count[0], scalar(row[0], value)))
            if len(seen) != 1:
                raise SystemExit(f"{key}: calls disagree: {sorted(seen)}")
            times[key], refs[key] = statistics.median(elapsed), statistics.median(ref)
            halvings[key], values[key] = seen.pop()
            faults[key] = statistics.median(fresh) if fresh else None
    finally:
        for name, fn in engine.items():
            setattr(minors, name, fn)
    return times, refs, halvings, values, faults


def _plan_bytes() -> dict[str, dict[str, int]]:
    # per ring size, the bytes of the snapshot store (its length is fixed by
    # N: sum of k^2, k = 2 ... N-2, plus 2(N-2) spare entries) and of the
    # arrays of the window plan that the fourth moment of a regular point
    # asks the engine for, through a call every tree has
    from xythermo import correlations, minors, thermometry
    from xythermo.spectrum import ChainSpec

    window_plan, planned = minors._window_plan, []

    def record(*args):
        planned.append(window_plan(*args))
        return planned[-1]

    out = {}
    minors._window_plan = record
    try:
        for n in PLAN_SIZES:
            spec = ChainSpec(gamma=1.0, field_ratio=0.5, sites=n)
            planned.clear()
            correlations.fourth_moment_from_kernel(
                correlations.kernel(thermometry.ensemble(spec, 0.3)))
            (stacks,) = planned  # the sum asks for the plan once
            store = 8 * (sum(k * k for k in range(2, n - 1)) + 2 * (n - 2))
            plan = sum(getattr(stack, name).nbytes for stack in stacks
                       for name in ("t3", "t2", "offsets", "rows", "weights"))
            out[f"N={n}"] = {"snapshot_store": store, "window_plan": plan}
    finally:
        minors._window_plan = window_plan
    return out


def _median_or_none(values: list) -> float | None:
    # None where the repetitions could not count page faults
    return None if None in values else statistics.median(values)


def _relative_difference(value: float, base: float) -> float:
    if value == base:
        return 0.0
    return abs(value - base) / abs(base) if base else math.inf


def _relative_differences(values: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    # |v - v0| / |v0| of each tree's value against the first tree's v0
    base = next(iter(values.values()))
    return {label: {k: _relative_difference(v, base[k]) for k, v in vals.items()}
            for label, vals in values.items()}


def _blas() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def readme_table(bench: dict, name: str) -> str:
    """The README's layer-timings block: one Markdown row per grid key of bench's last tree.

    bench is the JSON that main writes, name the file it was read from;
    each row gives the median and the min-max range of the per-call ref
    times over the repetitions, and the median minor page faults.
    """
    tree = list(bench["median_ref"])[-1]
    medians, lows, highs = (bench[stat][tree] for stat in ("median_ref", "min_ref", "max_ref"))
    faults = bench["median_minor_faults"][tree]
    lines = [f"Per-call times in ref units (one call of the benchmark's fixed speed probe, "
             f"about 1 ms) from `{name}`, tree `{tree}`: the median and range over "
             f"{bench['reps']} repetitions, each the median of {bench['calls']} calls; "
             f"{bench['nproc']} cores ({bench['machine']}), {bench['blas']} "
             f"{bench['blas_version']} with OPENBLAS_NUM_THREADS={bench['blas_threads']}, "
             f"numpy {bench['numpy']}, Python {bench['python']}.",
             "",
             "| layer, N (gamma, h/J, T) and point | median ref | min–max ref | minor faults |",
             "|---|---|---|---|"]
    for key, median in medians.items():
        fault = "–" if faults[key] is None else f"{faults[key]:g}"
        lines.append(f"| {key} | {median:.3g} | {lows[key]:.3g}–{highs[key]:.3g} | {fault} |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC",
                        help="a label and the src directory of one source tree (repeatable)")
    parser.add_argument("--reps", type=int, default=5, help="repetitions per tree (default 5)")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:  # one repetition of one tree, in a fresh process
        sys.path[:0] = [args.worker, ROOT]
        times, refs, halvings, values, faults = _time_grid()
        print(json.dumps({"times": times, "refs": refs, "halvings": halvings, "values": values,
                          "faults": faults, "plan_bytes": _plan_bytes(), "env": _blas()}))
        return 0
    if not args.tree or not args.out or args.reps < 1:
        parser.error("need at least one --tree, an --out file and --reps >= 1")

    trees = dict(t.split("=", 1) for t in args.tree)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs = {label: [] for label in trees}
    for rep in range(args.reps):
        for label in list(trees) if rep % 2 == 0 else list(trees)[::-1]:
            proc = subprocess.run(
                [sys.executable, __file__, "--worker", os.path.abspath(trees[label])],
                env=env, capture_output=True, text=True, check=True)
            runs[label].append(json.loads(proc.stdout))
            print(f"rep {rep + 1}/{args.reps} {label} done", file=sys.stderr, flush=True)
    times = {label: [r["times"] for r in reps] for label, reps in runs.items()}
    refs = {label: [r["refs"] for r in reps] for label, reps in runs.items()}
    halvings = {label: reps[0]["halvings"] for label, reps in runs.items()}
    values = {label: reps[0]["values"] for label, reps in runs.items()}
    for label, reps in runs.items():  # deterministic: every repetition agrees
        for name, first in (("halvings", halvings), ("values", values)):
            if any(r[name] != first[label] for r in reps):
                raise SystemExit(f"{name} of tree {label} differ between repetitions")
    differences = _relative_differences(values)
    result = {
        "what": "per-call seconds, and per-call time over the speed probe's (ref): the "
                "median of each repetition's timed calls after a warm-up call, then "
                "median, min and max over repetitions that alternate the trees",
        "nproc": os.cpu_count(),
        "machine": os.uname().machine,
        "python": sys.version.split()[0],
        **next(iter(runs.values()))[0]["env"],
        "reps": args.reps,
        "calls": CALLS,
        **{stat: {label: {k: fn([r[k] for r in reps]) for k in reps[0]}
                  for label, reps in times.items()}
           for stat, fn in (("median_s", statistics.median), ("min_s", min), ("max_s", max))},
        **{stat: {label: {k: fn([r[k] for r in reps]) for k in reps[0]}
                  for label, reps in refs.items()}
           for stat, fn in (("median_ref", statistics.median), ("min_ref", min),
                            ("max_ref", max))},
        "median_minor_faults": {label: {k: _median_or_none([r["faults"][k] for r in reps])
                                        for k in reps[0]["faults"]}
                                for label, reps in runs.items()},
        "halving_matrices": halvings,
        "plan_bytes": {label: reps[0]["plan_bytes"] for label, reps in runs.items()},
        "values": values,
        "relative_difference_from_first_tree": differences,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for label, medians in result["median_s"].items():
        for k, v in medians.items():
            faults = result["median_minor_faults"][label][k]
            print(f"{label:>8}  {v * 1e3:10.4f} ms  {result['median_ref'][label][k]:9.4g} ref  "
                  f"{halvings[label][k]:6d} matrices  {faults if faults is not None else '-':>7} "
                  f"faults  {k}")
    for label, diffs in list(differences.items())[1:]:
        worst = max(diffs, key=diffs.get)
        print(f"{label:>8}  largest relative difference of a value from tree "
              f"{next(iter(trees))}: {diffs[worst]:.3g} ({worst})")
    print(readme_table(result, os.path.basename(args.out)), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
